"""Run one benchmark command in this fresh process and report its cost.

    python3 child.py SRC REPORT TRACE ARGV...

SRC is the ``src`` directory to import ffstat from, REPORT the file the
JSON cost report is written to and TRACE ``0`` or ``1``.  ARGV is an
ffstat command line (``moments --q 5 ...``), ``l_suite Q MAX_DEG N_MAX``
for the library call, or ``probe`` to import only.  The command's
output goes to this process's stdout, which the caller digests.

Only ``sys`` and ``time`` are loaded before the clock starts, so the
import time covers every module ``import ffstat.cli`` pulls in, as a
user's ``ffstat`` invocation pays it.
"""

import sys
import time

T0 = time.perf_counter()
SRC, REPORT, TRACE = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
ARGV = sys.argv[4:]
HERE = sys.path[0]
sys.path[0] = SRC  # the benchmark's own modules must not shadow anything
import ffstat.cli  # noqa: E402

T1 = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402


def _run(argv):
    if argv[0] == "l_suite":
        q, max_deg, n_max = (int(a) for a in argv[1:4])

        def emit(rec):
            # every modulus's completed L-polynomial, Frobenius traces and
            # prime sums, so the digest covers what the suite computes
            sys.stdout.write(json.dumps([rec["deg"], rec["code"], rec["lstar"].coeffs,
                                         rec["t"], rec["s"]]) + "\n")

        rep = ffstat.lfunc.l_suite(q, max_deg=max_deg, n_max=n_max, collect=emit)
        text = json.dumps(
            {"q": rep.q, "max_deg": rep.max_deg, "n_max": rep.n_max,
             "moduli": rep.moduli, "failures": rep.failures,
             "rh_max_dev": repr(rep.rh_max_dev),
             "prime_sum_bound_max": repr(rep.prime_sum_bound_max)},
            sort_keys=True)
        sys.stdout.write(text + "\n")
        return 0 if rep.ok() else 2
    return ffstat.cli.main(argv)


def _host_speed():
    """Seconds this process takes for a fixed mix of interpreter work
    (dict and small-int traffic, big-int products) and numpy work on a
    32 KiB int8 array, about 0.1 s on a 2 GHz Xeon vCPU.  It allocates
    well under 1 MB; taken before the command, it moves no workload's peak
    RSS by more than the 0.1 MiB that peak varies by from run to run.

    The runner scales a command's times by the mean of this reference
    taken just before and just after it: the speed of a shared VM drifts
    by up to 30 % over minutes, and this drift is not the program's."""
    import gc

    import numpy as np

    gc.disable()  # the same cost whatever heap the command left behind
    t0 = time.perf_counter()
    table = {}
    acc = 0
    for a in range(135000):
        key = (a * 7 + 3) % 101, a % 13
        table[key] = table.get(key, 0) + a
        acc = (acc * 31 + a) % 1000003
    big = 1
    for k in range(1, 9000):
        big = big * (k | 1) % (1 << 4096) + k
    a8 = np.zeros(1 << 15, dtype=np.int8)
    a8[::3], a8[1::5] = 1, -1
    for k in range(1, 577):
        acc += int((a8 * np.roll(a8, k)).sum(dtype=np.int64))
    elapsed = time.perf_counter() - t0
    gc.enable()
    return elapsed


def _environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
    }


def main():
    src = os.path.realpath(SRC)
    loaded = os.path.realpath(ffstat.cli.__file__)
    if not loaded.startswith(src + os.sep):
        print(f"ffstat imported from {loaded}, not from {src}", file=sys.stderr)
        return 3
    report = {"setup_s": T1 - T0, "ref_s": _host_speed()}
    if ARGV == ["probe"]:
        report["environment"] = _environment()
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        with contextlib.ExitStack() as stack:
            tracer = None
            if TRACE:
                sys.path.append(HERE)
                import tracer as tracing

                tracer = tracing.Tracer()
                report["missing_targets"] = stack.enter_context(tracing.wrapped(tracer))
            ru0 = resource.getrusage(resource.RUSAGE_SELF)
            w0 = time.perf_counter()
            report["rc"] = _run(ARGV)
            sys.stdout.flush()
            w1 = time.perf_counter()
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        report["wall_s"] = w1 - w0
        report["cpu_s"] = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
        report["peak_rss_mb"] = ru1.ru_maxrss / 1024.0
        if tracer is not None:
            report["trace"] = tracer.summary()
        report["ref_s"] = (report["ref_s"] + _host_speed()) / 2
    with open(REPORT, "w") as fh:
        json.dump(report, fh)
    return report.get("rc", 0)


if __name__ == "__main__":
    sys.exit(main())
