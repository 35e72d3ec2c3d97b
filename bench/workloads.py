"""The benchmark's workloads: the command lines of each, made from a seed.

A command is an ffstat CLI argv, or ``["l_suite", Q, MAX_DEG, N_MAX]``
for the library call.  ``CACHE`` stands for a directory the runner
creates empty before each pass.  The seed only picks inputs; the program
sees nothing but the argv.
"""

CACHE = "@CACHE"

# Monic primes of degree 2 over F_3, in ffpoly.primes order.
FIXED_PRIMES = ("X^2+1", "X^2+X+2", "X^2+2X+2")

# Members (index, f1, f2, f3) of the full q=9 genus-1 family at
# index (2k+1)*N/16 + 9k, N = 1105920, so both monic members and
# leading-coefficient twists are drawn.
Q9_MEMBERS = (
    (69120, "1", "X^2+7X+8", "X+1"),
    (207369, "2X^2+7X+3", "2X+2", "1"),
    (345618, "3", "3X^2+2X+4", "X^2+3X"),
    (483867, "4", "4X^2+3X", "X^2+X+4"),
    (622116, "5X^2+8X+8", "5", "X^2+7"),
    (760365, "6X^2+8X+7", "6", "X^2+5X+1"),
    (898614, "7X^2+5X+8", "7X^2+2X", "1"),
    (1036863, "8X^2+5X+6", "8X^2+3", "1"),
)


def _family(seed):
    return [
        ["family", "--q", "5", "--genus", "2", "--count", "--cache-dir", CACHE],
        ["moments", "--q", "5", "--genus", "2", "--n-max", "4", "--variant", "full",
         "--threads", "2", "--cache-dir", CACHE],
        ["density", "--q", "5", "--genus", "2", "--alpha", "1"],
    ]


def _lsuite(seed):
    return [["l_suite", "5", "5", "8"], ["l_suite", "3", "6", "8"]]


def _fixedprime(seed):
    prime = FIXED_PRIMES[seed % len(FIXED_PRIMES)]
    return [
        ["lemma61", "--q", "3", "--prime", prime, "--d-max", "7", "--M", "9"],
        ["eulersum", "--q", "3", "--n", "3", "--M", "9"],
    ]


def _primepower(seed):
    _, f1, f2, f3 = Q9_MEMBERS[seed % len(Q9_MEMBERS)]
    return [
        ["moments", "--q", "9", "--genus", "0", "--n-max", "2", "--variant", "full"],
        ["moments", "--q", "9", "--genus", "1", "--n-max", "1", "--variant", "full"],
        ["eulersum", "--q", "9", "--n", "2", "--M", "3"],
        ["curve", "--q", "9", "--f1", f1, "--f2", f2, "--f3", f3, "--n-max", "4"],
    ]


WORKLOADS = {
    "family": _family,
    "lsuite": _lsuite,
    "fixedprime": _fixedprime,
    "primepower": _primepower,
}


def all_commands(workload):
    """Every distinct command the workload runs over all seeds."""
    period = len(FIXED_PRIMES) * len(Q9_MEMBERS)
    seen = {}
    for seed in range(period):
        for argv in WORKLOADS[workload](seed):
            seen.setdefault(" ".join(argv), argv)
    return list(seen.values())
