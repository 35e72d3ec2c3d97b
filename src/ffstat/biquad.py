"""Biquadratic curve families over F_q and their Frobenius data.

A family member is a triple (f1, f2, f3) of square-free, pairwise coprime
polynomials (f3 monic; all three monic in the "monic" variant) whose
degree pattern satisfies the genus-length condition L(d1, d2, d3) = g+3,
excluding the degenerate degree multisets {g+3,0,0} and {g+2,0,0} that
collapse to hyperelliptic curves (only reachable when g is odd).

Point counts are defined by the quadratic character sum over P^1(F_{q^n}):

    N_n = sum_x (1 + chi2(f1*f3(x)) + chi2(f2*f3(x)) + chi2(f1*f2(x)))

where chi2 at infinity is chi2(leading coefficient) for even degree and 0
for odd.  The finite x are summed by their minimal polynomials, the monic
primes of degree dividing n (orbit_columns), not point by point.
T_n = q^n+1-N_n is the integer q^{n/2} Tr(Theta_C^n), and the
zeta numerator P_C(u) of degree 2g is recovered from T_1..T_g by Newton's
identities plus the functional equation, with an independent T_{g+1}
consistency check.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import ffpoly
from ._tables import poly_tables
from .errors import InvariantError
from .lfunc import _rh_rows, power_sums

MONIC, FULL = "monic", "full"


def genus_length(d1, d2, d3):
    """L(d1,d2,d3): total degree, plus 1 unless d1+d3 and d2+d3 are both even."""
    bump = 0 if (d1 + d3) % 2 == 0 and (d2 + d3) % 2 == 0 else 1
    return d1 + d2 + d3 + bump


def admissible_patterns(g):
    """(kept, excluded) ordered degree triples with L = g+3.

    Candidates are exhausted over d1+d2+d3 <= g+3 rather than listed in
    closed form; `excluded` holds the ones rejected by the degenerate
    multiset rule.
    """
    target = g + 3
    kept, excluded = [], []
    for total in range(target + 1):
        for d1 in range(total + 1):
            for d2 in range(total - d1 + 1):
                d3 = total - d1 - d2
                if genus_length(d1, d2, d3) != target:
                    continue
                if sorted((d1, d2, d3)) in ([0, 0, g + 3], [0, 0, g + 2]):
                    excluded.append((d1, d2, d3))
                else:
                    kept.append((d1, d2, d3))
    return kept, excluded


@dataclass(frozen=True)
class CurveTriple:
    """One family member; validates the defining conditions on construction."""

    f1: ffpoly.Poly
    f2: ffpoly.Poly
    f3: ffpoly.Poly
    variant: str = MONIC

    def __post_init__(self):
        f1, f2, f3 = self.f1, self.f2, self.f3
        if self.variant not in (MONIC, FULL):
            raise ValueError(f"unknown variant {self.variant!r}")
        for f in (f1, f2, f3):
            if f.is_zero() or not ffpoly.is_squarefree(f):
                raise ValueError("family members must be nonzero and square-free")
        if not f3.is_monic():
            raise ValueError("f3 must be monic")
        if self.variant == MONIC and not (f1.is_monic() and f2.is_monic()):
            raise ValueError("monic variant requires monic f1, f2")
        for a, b in ((f1, f2), (f1, f3), (f2, f3)):
            if not ffpoly.poly_gcd(a, b).is_constant():
                raise ValueError("family members must be pairwise coprime")
        g = self.genus
        degs = sorted(int(f.degree) for f in (f1, f2, f3))
        if degs in ([0, 0, g + 3], [0, 0, g + 2]):
            raise ValueError("degenerate degree multiset (hyperelliptic)")

    @property
    def field(self):
        return self.f1.field

    @property
    def genus(self):
        return genus_length(*(int(f.degree) for f in (self.f1, self.f2, self.f3))) - 3

    def pair_products(self):
        """(f1*f3, f2*f3, f1*f2), the three quadratic twists of the cover."""
        return self.f1 * self.f3, self.f2 * self.f3, self.f1 * self.f2


@dataclass(frozen=True)
class CurveData:
    """Exact point counts and traces; P_C present once reconstructed."""

    N: tuple
    T: tuple
    pc: Optional[tuple] = None

    def n_from_pc(self, q, n):
        """q^n + 1 - (power sum of P_C reciprocal roots), exact."""
        if self.pc is None:
            raise ValueError("no zeta numerator attached")
        return q ** n + 1 - (power_sums(self.pc, n)[-1] if n else 0)


class PolySet:
    """Monic square-free polynomials over `field` as int arrays, with their
    prime factors.

    Polynomial i has degree deg[i] and its lower coefficients are the
    base-q digits of code[i].  Factor entry j says that key[j] divides
    polynomial poly[j], poly ascending; key k is the monic prime of degree
    key_deg[k] and code key_code[k], the keys in ascending (degree, code)
    order.  Indexing builds the Poly, for printing and library callers.
    """

    __slots__ = ("field", "deg", "code", "poly", "key", "key_deg", "key_code")

    def __init__(self, field, deg, code, poly, key, key_deg, key_code):
        self.field = field
        self.deg, self.code, self.poly, self.key, self.key_deg, self.key_code = (
            np.asarray(a, dtype=np.int64) for a in (deg, code, poly, key, key_deg, key_code))

    @classmethod
    def of(cls, field, polys):
        """The PolySet of monic square-free Polys, factored off the sieve
        tables; ValueError for one that is not square-free."""
        deg = [int(f.degree) for f in polys]
        code = [f.monic_code() for f in polys]
        T = poly_tables(field, max([1, *deg]))
        factors = [T.factor(d, c) if d else [] for d, c in zip(deg, code)]
        if None in factors:
            raise ValueError("the polynomials of a PolySet must be square-free")
        keys = sorted({key for fac in factors for key in fac})
        entries = [(i, keys.index(key)) for i, fac in enumerate(factors) for key in fac]
        return cls(field, deg, code, *np.reshape(entries, (-1, 2)).T, *np.reshape(keys, (-1, 2)).T)

    def __len__(self):
        return len(self.deg)

    def __getitem__(self, i):
        return ffpoly.Poly.monic_from_code(self.field, int(self.deg[i]), int(self.code[i]))

    def take(self, index):
        """The PolySet of the polynomials at the ascending distinct
        indices `index`, with the keys that divide them."""
        taken = np.zeros(len(self), dtype=bool)
        taken[index] = True
        at = taken[self.poly]
        used, key = np.unique(self.key[at], return_inverse=True)
        return PolySet(self.field, self.deg[index], self.code[index],
                       np.searchsorted(index, self.poly[at]), key,
                       self.key_deg[used], self.key_code[used])


# ---------------------------------------------------------------------------
# Family enumeration
# ---------------------------------------------------------------------------


class SquarefreeDegree(NamedTuple):
    """The square-free monic polynomials of one degree and their prime factors.

    `codes` holds their codes in ascending order, the order of
    ffpoly.enumerate_polys.  Entry j of the flat int64 arrays says that
    the prime of degree `prime_deg[j]` and column `prime_col[j]` divides
    the polynomial of code codes[poly[j]].  Columns number the monic
    primes by degree, then code, so the primes of degree <= m are the
    first _prime_columns(q, m).
    """

    codes: np.ndarray
    poly: np.ndarray
    prime_deg: np.ndarray
    prime_col: np.ndarray


#: the most codes q^d that squarefree_factors scans: the sieve tables
#: reach degree d, and the factor arrays hold a few entries per code
SQUAREFREE_CODES_CAP = 3 ** 10


def check_squarefree_degree(field, d):
    """ValueError when squarefree_factors(field, d) would pass SQUAREFREE_CODES_CAP."""
    if field.q ** d > SQUAREFREE_CODES_CAP:
        raise ValueError(f"square-free factors: q={field.q} with degree {d} is over the cap "
                         f"of {SQUAREFREE_CODES_CAP} codes")


def _prime_columns(q, m):
    """The number of monic primes of degree <= m."""
    return sum(ffpoly.prime_count_exact(q, e) for e in range(1, m + 1))


@functools.lru_cache(maxsize=None)
def squarefree_factors(field, d):
    """SquarefreeDegree for the square-free monic polynomials of degree d.

    Every code of degree d is factored at once off the sieve tables
    (PolyTables.factor_all), its factors in ascending (degree, code)
    order.  A degree over the cap of check_squarefree_degree is refused
    before anything is built.
    """
    check_squarefree_degree(field, d)
    empty = np.zeros(0, dtype=np.int64)
    if d == 0:
        out = SquarefreeDegree(np.zeros(1, dtype=np.int64), empty, empty, empty)
    else:
        q = field.q
        T = poly_tables(field, d)
        squarefree, rows, pdeg, pcode = T.factor_all(d)
        col = np.empty_like(pcode)
        for e in range(1, d + 1):
            at = pdeg == e
            col[at] = _prime_columns(q, e - 1) + np.searchsorted(T.prime_codes[e], pcode[at])
        index = np.cumsum(squarefree) - 1
        out = SquarefreeDegree(np.flatnonzero(squarefree), index[rows], pdeg, col)
    for arr in out:
        arr.flags.writeable = False  # shared by every caller through the cache
    return out


@functools.lru_cache(maxsize=None)
def _incidence(field, d, m):
    """float32 0/1 matrix: [i, c] is 1 when prime column c (degree <= m)
    divides the i-th square-free monic of degree d."""
    sf = squarefree_factors(field, d)
    at = sf.prime_deg <= m
    out = np.zeros((len(sf.codes), _prime_columns(field.q, m)), dtype=np.float32)
    out[sf.poly[at], sf.prime_col[at]] = 1
    return out


@functools.lru_cache(maxsize=None)
def coprime_mask(field, da, db):
    """bool (N_da, N_db): whether the square-free monics of degrees da and
    db are coprime, from prime-factor incidence.  A common prime has
    degree <= min(da, db), so only those primes are columns; the
    incidence product counts shared primes, at most d < 2^24, exactly."""
    m = min(da, db)
    A, B = _incidence(field, da, m), _incidence(field, db, m)
    out = (A @ B.T) == 0
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=None)
def _coprime_series(field, d, length):
    """int64 (N_d, length): the coefficients of u^0 .. u^(length-1) in
    prod_{P | f} 1/(1 + u^deg P), one row per square-free monic f of
    degree d.  Dividing a series by 1 + u^e is the recurrence
    c[i] -= c[i - e], run in place from low i to high."""
    sf = squarefree_factors(field, d)
    counts = np.zeros((len(sf.codes), d + 1), dtype=np.int64)
    np.add.at(counts, (sf.poly, sf.prime_deg), 1)
    series = np.zeros((len(sf.codes), length), dtype=np.int64)
    series[:, 0] = 1
    for e in range(1, min(d, length - 1) + 1):
        for k in range(1, int(counts[:, e].max()) + 1):
            rows = counts[:, e] >= k
            sub = series[rows]
            for i in range(e, length):
                sub[:, i] -= sub[:, i - e]
            series[rows] = sub
    return series


@functools.lru_cache(maxsize=None)
def pair_weight(field, da, db, dc):
    """int64 (N_da, N_db): entry [i, j] counts the square-free monic f of
    degree dc coprime to fa_i fb_j when fa_i and fb_j are coprime, and is
    0 otherwise (fa_i, fb_j the square-free monics of degrees da, db in
    squarefree_factors order).

    For coprime fa, fb these f are counted by the u^dc coefficient of
    Z_SF(u) / prod_{P | fa fb} (1 + u^deg P), Z_SF(u) = sum_k
    squarefree_count(q, k) u^k, and the product splits over fa and fb.
    So the block is cop o (B_a S B_b^T): B the truncated series of
    _coprime_series, S[i, j] = squarefree_count(q, dc - i - j) (0 when
    i + j > dc), cop the coprime_mask."""
    q = field.q
    S = np.array([[ffpoly.squarefree_count(q, dc - i - j) if i + j <= dc else 0
                   for j in range(dc + 1)] for i in range(dc + 1)], dtype=np.int64)
    W = _coprime_series(field, da, dc + 1) @ S @ _coprime_series(field, db, dc + 1).T
    W *= coprime_mask(field, da, db)
    W.flags.writeable = False  # shared by every caller through the cache
    return W


@functools.lru_cache(maxsize=None)
def family_degrees(g):
    """The degrees the kept patterns of genus g use, ascending."""
    return tuple(sorted({d for pat in admissible_patterns(g)[0] for d in pat}))


#: the most bytes of one pair block: its int64 weights, 4-byte incidence
#: product and 1-byte coprimality mask
PAIR_BLOCK_BYTES_CAP = 1 << 28


def largest_pair_block(field, g):
    """(N_a N_b, (d_a, d_b)): the largest W12 block of genus g, one per kept
    pattern (pair_weights), or (0, None)."""
    count = functools.partial(ffpoly.squarefree_count, field.q)
    return max(((count(a) * count(b), (a, b)) for a, b, _ in admissible_patterns(g)[0]),
               key=lambda item: item[0], default=(0, None))


def check_family(field, g):
    """ValueError, with nothing built, when the tables of the family of
    genus g would pass their caps: its top degree that of
    check_squarefree_degree, or its largest pair block PAIR_BLOCK_BYTES_CAP."""
    check_squarefree_degree(field, max(family_degrees(g), default=0))
    entries, degrees = largest_pair_block(field, g)
    if 13 * entries > PAIR_BLOCK_BYTES_CAP:
        raise ValueError(f"pair weights: q={field.q}, g={g} needs a {degrees} degree block "
                         f"of about {13 * entries} bytes, over the cap of {PAIR_BLOCK_BYTES_CAP}")


@functools.lru_cache(maxsize=None)
def pair_weights(field, g):
    """{pattern: W12} over the kept patterns of genus g.

    W12 = pair_weight(field, d1, d2, d3) weighs the pair (f1, f2) by the
    number of f3 that make it a member, so a sum over members of any
    function of (f1, f2) is its sum against W12, and the block sums to the
    pattern's member count.  A family over the caps of check_family is
    refused before anything is built.  The dict is shared through the
    cache: read it, do not change it."""
    check_family(field, g)
    for d in reversed(family_degrees(g)):
        squarefree_factors(field, d)  # top degree first: its sieve table serves every lower one
    return {(d1, d2, d3): pair_weight(field, d1, d2, d3) for d1, d2, d3 in admissible_patterns(g)[0]}


@functools.lru_cache(maxsize=None)
def family_size(field, g, variant=MONIC):
    """Exact member count, the total of the W12 pair weights, summed once
    per (field, g, variant); the full variant is (q-1)^2 times the monic one."""
    if variant not in (MONIC, FULL):
        raise ValueError(f"unknown variant {variant!r}")
    n = sum(int(W12.sum()) for W12 in pair_weights(field, g).values())
    return (field.q - 1) ** 2 * n if variant == FULL else n


@functools.lru_cache(maxsize=None)
def family_polys(field, g):
    """PolySet of the square-free monics of the degrees family_degrees(g),
    by degree, then code; its keys are all the monic primes of degree up
    to the top one, numbered as squarefree_factors' prime columns.  The
    top degree is built first: its sieve table serves every lower one."""
    degrees = family_degrees(g)
    sf = [squarefree_factors(field, d) for d in reversed(degrees)][::-1]
    sizes = [len(f.codes) for f in sf]
    start = np.cumsum([0] + sizes)
    top = max(degrees, default=0)
    primes = [poly_tables(field, top).prime_codes[a] for a in range(1, top + 1)]
    cat = lambda arrays: np.concatenate([np.zeros(0, dtype=np.int64), *arrays])
    return PolySet(field, np.repeat(degrees, sizes), cat(f.codes for f in sf),
                   cat(f.poly + s for f, s in zip(sf, start)), cat(f.prime_col for f in sf),
                   np.repeat(np.arange(1, top + 1), [len(c) for c in primes]), cat(primes))


@functools.lru_cache(maxsize=None)
def _pair_cumsums(field, g):
    """{pattern: 0 and the row-major cumulative sum of its W12}: pair
    (f1, f2) number p holds the members of ranks cum[p] to cum[p + 1] - 1."""
    return {pattern: np.cumsum(np.append(0, W)) for pattern, W in pair_weights(field, g).items()}


def _unrank(field, pattern, cum, rank):
    """(i1, i2, i3), each an index into the square-free monics of its
    degree, for the members at the ascending ranks `rank` within one
    pattern: (i1, i2) the pair that holds the rank, i3 the r-th f3 coprime
    to both.  The f3 of about ffpoly.BLOCK_BYTES of pairs are listed at
    once, and a pair listing other than its weight raises InvariantError."""
    m13, m23 = (coprime_mask(field, d, pattern[2]) for d in pattern[:2])
    flat = np.searchsorted(cum, rank, side="right") - 1
    pairs, at = np.unique(flat, return_inverse=True)
    weight = cum[pairs + 1] - cum[pairs]
    r = rank - cum[flat]
    i1, i2 = np.divmod(pairs, len(m23))
    i3 = np.empty_like(rank)
    step = max(1, ffpoly.BLOCK_BYTES // m13.shape[1])
    for lo in range(0, len(pairs), step):
        mask = m13[i1[lo:lo + step]] & m23[i2[lo:lo + step]]
        count = mask.sum(axis=1)
        if not np.array_equal(count, weight[lo:lo + step]):
            raise InvariantError(f"pattern {pattern}: a pair lists other f3 than its weight")
        a, b = np.searchsorted(at, [lo, lo + step])
        j = at[a:b] - lo
        i3[a:b] = np.flatnonzero(mask)[np.cumsum(count)[j] - count[j] + r[a:b]] % mask.shape[1]
    return i1[at], i2[at], i3


def member_rows(field, g, variant, index):
    """(polys, rows, twists) for a sequence of member indices: the
    family_polys PolySet, rows of indices (f1, f2, f3) into it and
    the codes (c1, c2) scaling f1, f2.  Members run by kept pattern, then
    f1, f2, f3 in square-free order, then twist; they are unranked from the
    pair weights, with no member array.  Indices outside [0, family_size)
    raise ValueError."""
    size = family_size(field, g, variant)
    index = np.asarray(index, dtype=np.int64).reshape(-1)
    if index.size and (index.min() < 0 or index.max() >= size):
        raise ValueError(f"member indices {index.min()}..{index.max()} are not within [0, {size})")
    u = 1 if variant == MONIC else field.q - 1
    monic, rest = np.divmod(index, u * u)
    cums, polys = _pair_cumsums(field, g), family_polys(field, g)
    edges = np.cumsum([0] + [int(cum[-1]) for cum in cums.values()])
    order = np.argsort(monic, kind="stable")
    bounds = np.searchsorted(monic[order], edges)
    rows = np.empty((len(index), 3), dtype=np.int64)
    for (pattern, cum), edge, a, b in zip(cums.items(), edges, bounds, bounds[1:]):
        if a < b:
            found = _unrank(field, pattern, cum, monic[order[a:b]] - edge)
            rows[order[a:b]] = np.stack(found, axis=1) + np.searchsorted(polys.deg, pattern)
    return polys, rows, np.stack(np.divmod(rest, u), axis=1) + 1


def member_polys(field, g, variant, index):
    """(f1, f2, f3) for a sequence of member indices, unranked 4096 at a
    time; correct by construction, so not validated as CurveTriples."""
    for lo in range(0, len(index), 4096):
        polys, rows, twists = member_rows(field, g, variant, index[lo:lo + 4096])
        for (i1, i2, i3), (c1, c2) in zip(rows.tolist(), twists.tolist()):
            yield polys[i1].scale(c1), polys[i2].scale(c2), polys[i3]


def family_member(field, g, variant, index):
    """Random access into the deterministic enumeration order: a validated
    CurveTriple.  An index outside [0, family_size) raises ValueError."""
    return CurveTriple(*next(member_polys(field, g, variant, [index])), variant)


def enumerate_family(field, g, variant=MONIC, start=0, stop=None):
    """Stream of validated CurveTriples in deterministic order, sliceable
    by index; stop is cut to the family size, and start < 0 or start >
    stop raises ValueError."""
    total = family_size(field, g, variant)
    stop = total if stop is None else min(stop, total)
    if not 0 <= start <= stop:
        raise ValueError(f"member slice [{start}, {stop}) is not within [0, {total}]")
    for f1, f2, f3 in member_polys(field, g, variant, range(start, stop)):
        yield CurveTriple(f1, f2, f3, variant)


def family_size_ratio(field, g, variant=MONIC):
    """(size, size / q^(g+3)) - the empirical leading-order ratio."""
    from fractions import Fraction

    size = family_size(field, g, variant)
    return size, Fraction(size, field.q ** (g + 3))


# ---------------------------------------------------------------------------
# Character sums over P^1(F_{q^n}), point counts and the zeta numerator
# ---------------------------------------------------------------------------


def divisors(n):
    """The divisors of n >= 1, ascending."""
    return [d for d in range(1, n + 1) if n % d == 0]


def orbit_columns(polys, degrees):
    """Yield (d, X) for each degree d of `degrees` and each block of the
    monic primes P of degree d: X[i, j] = (f_i / P_j) in int8, for the
    polynomials f_i of the PolySet polys and the primes P_j of the block,
    in code order.

    An x in F_{q^n} with minimal polynomial P of degree d | n has
    chi_{q^n}(f(x)) = chi_{q^d}(f(x))^(n/d) = (f/P)^(n/d), and the d roots
    of P share that value, so a character sum over F_{q^n} is the sum over
    d | n of these columns raised to n/d, each weighted by d.  (f/P) is
    the product of (Q/P) over the key primes Q dividing f
    (PolyTables.prime_symbols, off whichever side's residue tables have
    fewer entries, so no table passes the top degree of the polynomials).
    Blocks hold about 64 ffpoly.BLOCK_BYTES of symbols of the polynomials
    and keys."""
    T = poly_tables(polys.field, max(int(polys.deg.max(initial=0)), 1, *degrees))
    # slot j: the j-th factor of each polynomial that has more than j, so
    # that no slot names a polynomial twice
    slot = np.arange(len(polys.poly)) - np.searchsorted(polys.poly, polys.poly)
    slots = [(polys.poly[slot == j], polys.key[slot == j]) for j in range(int(slot.max(initial=-1)) + 1)]
    step = max(1, 64 * ffpoly.BLOCK_BYTES // max(1, len(polys) + len(polys.key_deg)))
    for d in degrees:
        primes = T.prime_codes[d]
        for lo in range(0, len(primes), step):
            L = T.prime_symbols(d, primes[lo:lo + step], (polys.key_deg, polys.key_code))
            X = np.ones((len(polys), L.shape[1]), dtype=np.int8)
            for at, key in slots:
                X[at] *= L[key]
            yield d, X


def member_traces(field, n, polys, rows, twists):
    """T_n = -(S13 + S23 + S12) for each member (c1 f1, c2 f2, f3), with
    f1, f2, f3 the polynomials of the PolySet polys that a row of `rows`
    indexes and (c1, c2) the codes in the matching row of `twists`."""
    return _member_traces(field, [n], polys, rows, twists)[0]


def _member_traces(field, ns, polys, rows, twists):
    """member_traces for each n of ns at once, one row per n.  The finite
    part of S_ab is the sum over d | n of d times the products of the orbit
    columns (orbit_columns) of fa and fb raised to n/d, over the
    polynomials in use: each degree's columns are read once for all n.
    chi_2 at infinity of a monic product is 1 for even degree, and a twist
    enters as chi_{q^n}(c) = chi_q(c)^n on all of P^1."""
    used, local = np.unique(rows, return_inverse=True)
    rows = local.reshape(np.shape(rows))
    polys = polys.take(used)
    deg = [polys.deg[rows[:, k]] for k in range(3)]
    pairs = ((0, 2), (1, 2), (0, 1))
    sums = np.array([[(deg[a] + deg[b] + 1) % 2 for a, b in pairs]] * len(ns))
    degrees = [d for d in range(1, max(ns) + 1) if any(n % d == 0 for n in ns)]
    for d, X in orbit_columns(polys, degrees):
        step = max(1, ffpoly.BLOCK_BYTES // X.shape[1])
        for lo in range(0, len(rows), step):
            block = rows[lo:lo + step]
            prods = [X[block[:, a]] * X[block[:, b]] for a, b in pairs]
            for i, n in enumerate(ns):
                if n % d == 0:
                    powers = (p if n // d % 2 else p * p for p in prods)
                    sums[i, :, lo:lo + len(block)] += d * np.stack([p.sum(axis=1, dtype=np.int64) for p in powers])
    chi = np.array([[field.chi2(c) ** n for c in range(field.q)] for n in ns], dtype=np.int64)
    x1, x2 = chi[:, twists[:, 0]], chi[:, twists[:, 1]]
    return -(x1 * sums[:, 0] + x2 * sums[:, 1] + x1 * x2 * sums[:, 2])


def curve_counts(triple, n_max):
    """N_n and T_n for 1 <= n <= n_max by the character sum over P^1.  The
    sieve table of the top degree is asked for first, so a refused one is
    refused before any is built."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    f1, f2, f3 = triple.f1, triple.f2, triple.f3
    field = triple.field
    monic = (f1.to_monic(), f2.to_monic(), f3)
    poly_tables(field, max(n_max, *(int(f.degree) for f in monic)))
    polys = PolySet.of(field, monic)
    twists = np.array([[f1.leading, f2.leading]])
    return _curve_data(field.q, _member_traces(field, range(1, n_max + 1), polys, [[0, 1, 2]], twists)[:, 0])


def _curve_data(q, T):
    """CurveData of the traces T_1, T_2, ... in an int array."""
    T = tuple(T.tolist())
    return CurveData(tuple(q ** n + 1 - t for n, t in enumerate(T, start=1)), T)


def zeta_numerator(triple, n_max=None):
    """CurveData carrying P_C, reconstructed from T_1..T_g.

    Coefficients a_1..a_g come from Newton's identities (each division by
    k must be exact), a_{g+1}..a_{2g} from the functional equation
    a_j = q^{j-g} a_{2g-j}.  The count N_{g+1} predicted by P_C is checked
    against the direct character sum; a mismatch raises InvariantError.
    """
    g = triple.genus
    return _with_zeta_numerator(curve_counts(triple, max(g + 1, n_max or 0)), g, triple.field.q)


def member_zeta_numerators(field, g, index, n_max=None):
    """zeta_numerator of the monic members of genus g at these indices, in
    a list; the traces of all of them come from one orbit-column pass."""
    polys, rows, twists = member_rows(field, g, MONIC, index)
    T = _member_traces(field, range(1, max(g + 1, n_max or 0) + 1), polys, rows, twists)
    return [_with_zeta_numerator(_curve_data(field.q, col), g, field.q) for col in T.T]


def _with_zeta_numerator(data, g, q):
    """data with P_C, from its T_1..T_(g+1) (zeta_numerator)."""
    T = data.T
    a = [1] + [0] * (2 * g)
    for k in range(1, g + 1):
        acc = T[k - 1]
        for i in range(1, k):
            acc += a[i] * T[k - i - 1]
        if acc % k:
            raise InvariantError("Newton inversion not integral")
        a[k] = -(acc // k)
    for j in range(g + 1, 2 * g + 1):
        a[j] = q ** (j - g) * a[2 * g - j]
    pc = tuple(a)
    if power_sums(pc, g + 1)[g] != T[g]:
        raise InvariantError("zeta numerator inconsistent with point counts")
    return CurveData(data.N, data.T, pc)


def pc_rh_deviation(pc_coeffs, q):
    """max | |root|/sqrt(q) - 1 | over reciprocal roots of P_C: one row of
    lfunc._rh_rows, which reads the roots of the exact square-free part
    (repeated roots would spoil double precision)."""
    return float(_rh_rows(np.array([pc_coeffs], dtype=object).reshape(1, -1), q)[0])


def eigenphases(pc_coeffs):
    """Sorted angles theta_j with reciprocal roots sqrt(q) e^{i theta_j} of
    P_C, via numpy roots."""
    if len(pc_coeffs) <= 1:
        return np.zeros(0)
    return np.sort(np.angle(np.roots(list(pc_coeffs))))
