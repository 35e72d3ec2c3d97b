"""Family averages of Tr(Theta_C^n) and their exact error decomposition.

The average over the full family vanishes identically for odd n (the
leading-coefficient twists cancel three ways).  For even n it satisfies
an exact rational identity

    avg_T / q^(n/2) = -3 + roots_term - bilinear_term

where roots_term collects members whose f1*f2 vanishes somewhere on
P^1(F_{q^(n/2)}) (the point at infinity counts as a root precisely when
deg f1*f2 is odd, and each member contributes its root count minus one,
which keeps the main term at exactly -3), and bilinear_term is the
character sum over x in F_{q^n} outside F_{q^(n/2)}.

Fixed-prime sums N_{k1,k2}(d;P) and their residue-derived constants
C_{k1,k2}(d;P), C(g;P) follow, with exact L-values and truncated Euler
products supplying the predictions; reference values for the matrix
integrals over USp(2g), USp(2g)^3 and U(2g) close the loop for the
trace-moment experiment and the one-level density.

Every exhaustive sum is a sum over primes of short character sums
(Rudnick; Bucur, Costa, David, Guerreiro and Lowry-Duda).  A monic prime
divides at most one of the pairwise coprime f1, f2, f3, so the sum of
chi(f1) chi(f2) over such square-free triples of degrees (i, j, k) is the
coefficient of x1^i x2^j x3^k in F = prod_{a, s} (1 + s (x1^a + x2^a) +
x3^a)^N_{s,a}, N_{s,a} the number of monic primes of degree a at chi = s.
Every caller reads sums over one total degree and parity class, a quarter
of the signed sum of the four F(e1 u, e2 u, u), e1, e2 = +-1, and the
excluded patterns' one-variable coefficients (parity_series).  An x in
F_{q^n} with minimal polynomial P of degree d | n has chi(f(x)) =
(f/P)^(n/d), so a family total reads the series of chi_P for n/d odd and
of chi_P^2 for n/d even.  Members are unranked from the pair weights
(biquad.member_rows) only for sample mode and the density cross-check.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Optional

import numpy as np

from . import biquad, eulerprod, ffpoly, lfunc
from ._tables import poly_tables, read_degree, symbol_store, unique_rows
from .errors import InvariantError

USP, USP_CUBED, UNITARY = "USp", "USp_cubed", "U"


def eta(n):
    """Parity indicator: 1 for even n, 0 for odd."""
    return 1 if n % 2 == 0 else 0


def matrix_integral_reference(group, g, n):
    """Haar averages of Tr(U^n): -eta_n on USp(2g) for n <= 2g, three
    times that on USp(2g)^3, and 0 on U(2g)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if group == UNITARY:
        return 0
    if group == USP:
        return -eta(n) if n <= 2 * g else 0
    if group == USP_CUBED:
        return -3 * eta(n) if n <= 2 * g else 0
    raise ValueError(f"unknown group {group!r}")


# ---------------------------------------------------------------------------
# Family sums
# ---------------------------------------------------------------------------


#: the most bytes _family_totals may take
TOTALS_BYTES_CAP = 1 << 28

#: (e1, e2) of the columns F(e1 u, e2 u, u) of parity_series; its
#: columns 4 and 5 are F(u, 0, 0) and F(0, 0, u)
_SIGNS = ((1, 1), (-1, 1), (1, -1), (-1, -1))


def parity_series(counts, D):
    """int64 (V, 6, D + 1): the coefficients up to u^D of the six columns
    of _SIGNS for each vector counts[v], counts[v, a - 1] the numbers
    (N-, N0, N+) of monic primes of degree a at chi = -1, 0, 1.  A factor
    1 + c u^a of F is expanded binomially, in one pass over (a, s, m) for
    every vector and column.  Exact: |c| <= 3, so a term or partial sum,
    and m C(N, m) <= 3^m C(N, m), is at most a coefficient of
    prod_a (1 + u^a)^(3 n_a), n_a the most primes of degree a in a vector;
    one of 2^63 or more up to u^D raises InvariantError before the series
    is built."""
    counts = np.asarray(counts, dtype=np.int64)
    width = min(counts.shape[1], D)
    major = [1] + [0] * D
    for a, most in enumerate(counts[:, :width].sum(axis=2).max(axis=0).tolist(), 1):
        major = [sum(math.comb(3 * most, m) * major[t - a * m] for m in range(t // a + 1)) for t in range(D + 1)]
    if max(major) >= 1 << 63:
        raise InvariantError(f"series to degree {D}: a coefficient bound of {max(major)} is beyond exact int64")
    S = np.zeros((len(counts), 6, D + 1), dtype=np.int64)
    S[:, :, 0] = 1
    for a in range(1, width + 1):
        for s, N in zip((-1, 0, 1), counts[:, a - 1].T):
            top = min(D // a, int(N.max()))
            if not top:
                continue
            c = np.array([1 + s * (e1 ** a + e2 ** a) for e1, e2 in _SIGNS] + [s, 1], dtype=np.int64)
            old, comb = S.copy(), np.ones(len(N), dtype=np.int64)
            for m in range(1, top + 1):
                comb = comb * (N - m + 1) // m  # C(N, m)
                S[:, :, a * m:] += (comb[:, None] * c ** m)[:, :, None] * old[:, :, :D + 1 - a * m]
    return S


@functools.lru_cache(maxsize=None)
def _kept_weights(g):
    """int64 (6, 6, 2): four times the weight of column c at u^(g + 2 + t)
    in row r of _kept_sums.  A cell, a total degree T and parities, is kept
    as a whole (biquad.genus_length), T = g + 2 or g + 3, and the excluded
    patterns in kept cells (odd g) go by their one-variable entries."""
    kept, excluded = biquad.admissible_patterns(g)
    W = np.zeros((6, 6, 2), dtype=np.int64)
    for r, (a, b) in enumerate(((0, 1), (0, 2), (1, 2))):
        for T, *par in {(sum(p), *(d % 2 for d in p)) for p in kept + excluded}:
            for col, (e1, e2) in enumerate(_SIGNS):
                W[r::3, col, T - g - 2] += e1 ** par[a] * e2 ** par[b] * np.array([1, par[a] == par[b]])
        for p in excluded:
            col, e = (5, p[3 - a - b]) if p[3 - a - b] else (4, p[a] + p[b])
            W[r::3, col, e - g - 2] -= 4 * np.array([1, (p[a] + p[b]) % 2 == 0])
    W.flags.writeable = False  # shared by every caller through the cache
    return W


def _kept_sums(series, g):
    """(V, 6) Python ints off a parity_series reaching g + 3: per vector the
    sums of chi(f_a) chi(f_b) over the monic family of genus g for (a, b) =
    (1, 2), (1, 3), (2, 3), then over its members with deg f_a f_b even."""
    return np.tensordot(series[:, :, g + 2:g + 4].astype(object), _kept_weights(g), axes=([1, 2], [1, 2])) // 4


def _top_degree(g):
    """The top degree of the kept patterns of genus g; ValueError naming
    the genus when it has none."""
    degrees = biquad.family_degrees(g)
    if not degrees:
        raise ValueError(f"genus {g} has no kept degree pattern")
    return degrees[-1]


def family_totals_bytes(field, g, n):
    """The bytes _family_totals(field, g, n) would allocate, from prime
    counts: for the primes of each degree d | n with n/d odd, the residue
    tables of the keys their counts read, of degree up to
    _tables.read_degree(d, top) (_tables.symbol_store), and per prime its
    int32 count vector in three copies; a block of symbols with a mask, and
    one of the series (64 ffpoly.BLOCK_BYTES) three times over while
    built."""
    q, top = field.q, _top_degree(g)
    keys = [ffpoly.prime_count_exact(q, a) for a in range(1, top + 1)]
    return 320 * ffpoly.BLOCK_BYTES + sum(
        symbol_store(q, d, keys[:read_degree(d, top)])[1] + 36 * top * ffpoly.prime_count_exact(q, d)
        for d in biquad.divisors(n) if n // d % 2)


def check_family_totals(field, g, n):
    """ValueError when family_totals_bytes passes TOTALS_BYTES_CAP."""
    need = family_totals_bytes(field, g, n)
    if need > TOTALS_BYTES_CAP:
        raise ValueError(f"family totals: q={field.q}, g={g} at n={n} need about {need} bytes, "
                         f"over the cap of {TOTALS_BYTES_CAP}")


def _trivial_counts(field, g):
    """The count vector of chi = 1 over the primes up to genus g's top degree."""
    return np.array([(0, 0, ffpoly.prime_count_exact(field.q, a)) for a in range(1, _top_degree(g) + 1)])


@functools.lru_cache(maxsize=None)
def _series_size(field, g):
    """The monic family size by the trivial vector's series."""
    return int(_kept_sums(parity_series(_trivial_counts(field, g)[None], g + 3), g)[0, 0])


def _monic_size(field, g):
    """The monic family size from the pair weights (biquad.family_size).
    ValueError for an empty family; InvariantError when the trivial
    vector's series (_series_size) counts another size."""
    size = biquad.family_size(field, g, biquad.MONIC)
    if size == 0:
        raise ValueError(f"family (q={field.q}, g={g}) is empty")
    if _series_size(field, g) != size:
        raise InvariantError(f"the series counts {_series_size(field, g)} members, the pair weights {size}")
    return size


@functools.lru_cache(maxsize=None)
def _family_totals(field, g, n):
    """Exhaustive totals over the monic family, from prime counts.

    Returns (sum of S13+S23+S12, sum of S12, sum of (roots on P^1 of the
    half field minus 1), sum of the outside-subfield bilinear character
    sum, sum of its generating-x part) -- the last three only for even n.

    One parity_series, built in blocks of vectors, serves all five, over a
    stack of count vectors: the trivial one; per d | n with n/d even, one
    prime of degree d moved to chi = 0 (chi_P^2), its kept sum Z_d the
    members it does not divide; per d | n with n/d odd, the distinct
    vectors of (Q/P) over the primes P of degree d (PolyTables.prime_counts).
    The finite part of S_ab is the sum over d | n of d pi_q(d) Z_d or d
    times the kept sums; chi at infinity of the monic f_a f_b is 1 for even
    degree.  The zeros in F_{q^(n/2)} are those of the prime factors of
    degree e | n/2, sum_e e pi_q(e) (size - Z_e); the generating x are the
    roots of the primes of degree n.  S13 and S23 read their own cells, so
    s_all = 3 s12 is checked (InvariantError).  Sums over vectors are
    Python ints."""
    check_family_totals(field, g, n)
    T = poly_tables(field, max(n, _top_degree(g)))
    trivial = _trivial_counts(field, g)
    parts = [(trivial[None], 0, np.ones(1, dtype=np.int64))]  # (vectors, d, multiplicities)
    for d in biquad.divisors(n):
        if n // d % 2:
            counts = T.prime_counts(d, T.prime_codes[d], len(trivial)).reshape(-1, trivial.size)
            vectors, _, mult = unique_rows(counts)
            del counts  # freed before the series is built
            parts.append((vectors.reshape(-1, *trivial.shape), d, mult))
        else:
            moved = trivial.copy()
            moved[d - 1:d] += (0, 1, -1)  # none past the top degree
            parts.append((moved[None], d, np.array([len(T.prime_codes[d])])))
    stack, step = np.concatenate([v for v, _, _ in parts]), max(1, 64 * ffpoly.BLOCK_BYTES // (48 * (g + 4)))
    sums = np.concatenate([_kept_sums(parity_series(stack[lo:lo + step], g + 3), g)
                           for lo in range(0, len(stack), step)])
    at = np.cumsum([0] + [len(v) for v, _, _ in parts])
    part = {d: (sums[lo:hi] * mult[:, None]).sum(axis=0) for (_, d, mult), lo, hi in zip(parts, at, at[1:])}
    size, inf = part[0][0], part[0][3:]
    fin = sum(d * part[d][:3] for d in biquad.divisors(n))
    s12_tot, s_all = int(fin[0] + inf[0]), int(sum(fin) + sum(inf))
    if s_all != 3 * s12_tot:
        raise InvariantError(f"pair-sum symmetry broke: s_all = {s_all}, s12 = {s12_tot}")
    if n % 2:
        return s_all, s12_tot, 0, 0, 0
    zeros_half = sum(e * (len(T.prime_codes[e]) * size - part[e][0]) for e in biquad.divisors(n // 2))
    roots_tot = zeros_half - inf[0]  # zeros_half + (members of odd d1 + d2) - size
    bil_tot = fin[0] - (size * field.q ** (n // 2) - zeros_half)
    return s_all, s12_tot, int(roots_tot), int(bil_tot), int(n * part[n][0])


@dataclass
class MomentReport:
    q: int
    g: int
    n: int
    variant: str
    family_size: int
    avg_T: Fraction
    avg_trace: float
    reference: float
    roots_term: Optional[Fraction] = None
    bilinear_term: Optional[Fraction] = None
    diagnostics: dict = dc_field(default_factory=dict)
    mode: str = "exhaustive"
    sample_size: Optional[int] = None
    std_error: Optional[float] = None

    @property
    def gap(self):
        return self.avg_trace - self.reference


def average_trace(field, g, n, variant=biquad.FULL, mode="exhaustive",
                  sample_size=None, seed=0):
    """Family average of T_n = q^(n/2) Tr(Theta_C^n), exact in exhaustive
    mode; sample mode draws uniformly without replacement from the
    deterministic enumeration order using a counter-based generator."""
    size = biquad.family_size(field, g, variant)
    monic = _monic_size(field, g)
    q = field.q
    if mode == "exhaustive":
        s_all, s12_tot, *_ = _family_totals(field, g, n)
        if variant == biquad.MONIC:
            avg_T = Fraction(-s_all, monic)
        else:
            avg_T = _full_average(field, n, monic, s_all, s12_tot)
        sample_size_out = None
        se = None
    elif mode == "sample":
        if sample_size is None or sample_size < 1:
            raise ValueError(f"sample mode needs a sample size >= 1, got {sample_size}")
        rng = np.random.Generator(np.random.Philox(seed))
        k = min(sample_size, size)
        idx = np.sort(rng.choice(size, size=k, replace=False))
        vals = biquad.member_traces(field, n, *biquad.member_rows(field, g, variant, idx))
        avg_T = Fraction(int(vals.sum()), k)
        se = float(np.std(vals.astype(float), ddof=1) / math.sqrt(k)) / q ** (n / 2) if k > 1 else 0.0
        sample_size_out = k
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return MomentReport(
        q=q, g=g, n=n, variant=variant, family_size=size,
        avg_T=avg_T, avg_trace=float(avg_T) / q ** (n / 2),
        reference=float(matrix_integral_reference(USP_CUBED, g, n)),
        mode=mode, sample_size=sample_size_out, std_error=se,
    )


def _full_average(field, n, monic, monic_s_all, monic_s12):
    """Exact full-variant average from monic pair sums.

    chi2((c f)(x)) = chi2(c) chi2(f(x)) at every point of P^1 including
    infinity, so summing a member's trace over its (q-1)^2 leading
    coefficient twists multiplies the f1*f3 and f2*f3 pair sums by
    (q-1) * sum_c chi2(c) and the f1*f2 pair sum by (sum_c chi2(c))^2.
    The constant sum is computed literally, chi_{q^n}(c) = chi_q(c)^n for
    c in F_q: it is q-1 for even n (every unit of F_q is a square in
    F_{q^n}) and 0 for odd n.  monic is the monic family size.
    """
    const_sum = sum(field.chi2(c) ** n for c in field.units())
    u = field.q - 1
    size_full = u * u * monic
    total = const_sum * u * (monic_s_all - monic_s12) + const_sum ** 2 * monic_s12
    return Fraction(-total, size_full)


def error_decomposition(field, g, n):
    """Exact pieces of the even-n identity; raises InvariantError if the
    rearrangement fails to close (it cannot, barring bugs), or if the
    family size of the series and of the pair weights differ (_monic_size)."""
    if n % 2 or n < 2:
        raise ValueError("the decomposition is an even-n statement")
    q = field.q
    size = _monic_size(field, g)
    s_all, s12_tot, roots_tot, bil_tot, gen_tot = _family_totals(field, g, n)
    qn2 = q ** (n // 2)
    avg_T = Fraction(-s_all, size)
    roots_term = Fraction(3 * roots_tot, qn2 * size)
    bilinear_term = Fraction(3 * bil_tot, qn2 * size)
    if avg_T / qn2 != -3 + roots_term - bilinear_term:
        raise InvariantError("error decomposition identity failed")

    nongen_tot = bil_tot - gen_tot
    divs = [d for d in range(1, n) if n % d == 0 and (n // 2) % d != 0]
    bigd = math.lcm(*divs) if divs else 0
    report = MomentReport(
        q=q, g=g, n=n, variant=biquad.MONIC, family_size=size,
        avg_T=avg_T, avg_trace=float(avg_T) / q ** (n / 2),
        reference=float(matrix_integral_reference(USP_CUBED, g, n)),
        roots_term=roots_term, bilinear_term=bilinear_term,
    )
    report.diagnostics = {
        "roots_bound": 3 * (g + 3) / q ** (n / 2),
        "nongen_actual": abs(float(Fraction(3 * nongen_tot, qn2 * size))),
        "nongen_bound": (3 * q ** (bigd - n / 2)) if divs else 0.0,
        "nongen_bound_weak": 3 * q ** (-n / 6),
        "gen_term": Fraction(3 * gen_tot, qn2 * size),
    }
    return report


# ---------------------------------------------------------------------------
# Fixed-prime sums and their constants
# ---------------------------------------------------------------------------


_series_of = {}  # per prime P, its series of the highest total degree built so far


def _prime_series(P, D):
    """parity_series of chi_P to total degree D or more, from the counts of
    the monic primes Q of degree up to D by (Q/P) (eulerprod.chi_counts).
    The one of highest degree built so far for P serves every lower D, so
    callers ask for their top degree first."""
    S = _series_of.get(P)
    if S is None or S.shape[1] <= D:
        counts = eulerprod.chi_counts(P, D) if D else np.zeros((0, 3), dtype=np.int64)
        S = _series_of[P] = parity_series(counts[None], D)[0]
    return S


def nkk_sums_all(field, P, d):
    """All four parity classes of N_{k1,k2}(d;P), off P's series."""
    if d < 0:
        raise ValueError("d must be >= 0")
    return _parity_classes(_prime_series(P, d), d)


def _parity_classes(S, d):
    """{(k1, k2): the sum of the entries [a, b, c] of a series of one
    vector with a + b + c = d and (a + c, b + c) = (k1, k2) mod 2}: the
    cell of parities ((d - k2) % 2, (d - k1) % 2), a quarter of the signed
    sum of the four columns F(e1 u, e2 u, u) at u^d."""
    cols = S[:4, d].tolist()
    cell = {(p1, p2): sum(e1 ** p1 * e2 ** p2 * x for (e1, e2), x in zip(_SIGNS, cols)) // 4
            for p1 in (0, 1) for p2 in (0, 1)}
    return {(k1, k2): cell[(d - k2) % 2, (d - k1) % 2] for k1 in (0, 1) for k2 in (0, 1)}


@dataclass
class FixedPrimeReport:
    P: ffpoly.Poly
    M: int
    exact_sum: int
    predicted: float
    c_value: Fraction
    blocks: dict
    d: Optional[int] = None
    k1k2: Optional[tuple] = None
    g: Optional[int] = None

    @property
    def gap(self):
        return self.exact_sum - self.predicted


def c_blocks(P, M):
    """The building blocks at u = 1/q as exact Fractions: L(1/q, chi_P^{+-})
    and the truncated H_{P,+-}, H_{P,0}.  For library callers: the C
    constants read the same values as integer numerators over powers of
    q, without building these."""
    if M < 1:
        raise ValueError("M must be >= 1")
    q = P.field.q
    u = Fraction(1, q)
    return {
        "L_plus": eulerprod.l_value(P, lfunc.PLUS, u),
        "L_minus": eulerprod.l_value(P, lfunc.MINUS, u),
        "H_plus": eulerprod.h_value("plus", P, u, M),
        "H_minus": eulerprod.h_value("minus", P, u, M),
        "H_zero": eulerprod.h_value("zero", P, u, M),
    }


@functools.lru_cache(maxsize=16)
def _q_power(q, e):
    """q^e, kept for the few exponents of the blocks in use."""
    return q ** e


def _c_combine(q, l_plus, l_minus, h_plus, h_minus, h_zero):
    """t1 = L+^2 H+, t2 = L-^2 H-, t3 = L+ L- H0 and the only three values
    C_{k1,k2}(d;P) takes (t1 + t2 + 2 t3, t1 + t2 - 2 t3, t1 - t2), from
    blocks given as (num, e) pairs meaning num / q^e.

    Returns (e, (t1, t2, t3), (even, odd, mixed)), all numerators over
    the one power q^e: products multiply numerators and add exponents,
    sums shift each numerator to the common exponent, so no gcd runs."""
    (lp, ep), (lm, em) = l_plus, l_minus
    t = [(lp * lp * h_plus[0], 2 * ep + h_plus[1]),
         (lm * lm * h_minus[0], 2 * em + h_minus[1]),
         (lp * lm * h_zero[0], ep + em + h_zero[1])]
    e = max(te for _, te in t)
    t1, t2, t3 = (num * q ** (e - te) for num, te in t)
    s = t1 + t2
    return e, (t1, t2, t3), (s + 2 * t3, s - 2 * t3, t1 - t2)


@functools.lru_cache(maxsize=8)
def _c_pairs(P, M):
    """_c_combine of the blocks of (P, M), read off the integer cores of
    eulerprod's L and H values at u = 1/q."""
    q = P.field.q
    u = Fraction(1, q)
    return _c_combine(q, eulerprod._l_pair(P, lfunc.PLUS), eulerprod._l_pair(P, lfunc.MINUS),
                      *(eulerprod._h_pair(kind, P, u, M) for kind in eulerprod.KINDS))


@functools.lru_cache(maxsize=16)
def _q_fraction(num, q, e):
    """num / q^e as a Fraction: one gcd on numbers of ~10^5 bits, paid
    once per value a library caller asks for."""
    return Fraction(num, _q_power(q, e))


def _kk_index(d, k1, k2):
    """Which of (even, odd, mixed) C_{k1,k2}(d;P) is."""
    if k1 != k2:
        return 2
    return 0 if (d + k1) % 2 == 0 else 1


def c_constant_kk(P, d, k1, k2, M):
    """C_{k1,k2}(d;P) = t1 + (-1)^(k1+k2) t2 + (-1)^d ((-1)^k1 + (-1)^k2) t3.

    Mixed parities give t1 - t2; equal parities give t1 + t2 + 2 t3 when
    d + k1 is even and t1 + t2 - 2 t3 when it is odd."""
    e, _, c = _c_pairs(P, M)
    return _q_fraction(c[_kk_index(d, k1, k2)], P.field.q, e)


def predicted_nkk(P, d, k1, k2, M):
    """The Lemma 6.1 prediction C_{k1,k2}(d;P)/4 q^d as a float, without
    building C's Fraction."""
    e, _, c = _c_pairs(P, M)
    return _scaled_float(c[_kk_index(d, k1, k2)], P.field.q, e, d)


def _scaled_float(num, q, e, d):
    """float(num / q^e / 4 * q^d) by one int true division of the
    unreduced pair.  CPython rounds int / int correctly, and
    Fraction.__float__ is the same division of the reduced pair, so both
    give the same float (or both raise OverflowError)."""
    return num * q ** d / (4 * _q_power(q, e))


def c_constant_g(P, g, M):
    """C(g;P) = (q+3)/q t1 + (q-1)/q t2 - 2 (-1)^g (q+1)/q t3, the
    genus-level combination of the same blocks."""
    q = P.field.q
    e, (t1, t2, t3), _ = _c_pairs(P, M)
    num = (q + 3) * t1 + (q - 1) * t2 - 2 * (-1) ** g * (q + 1) * t3
    return _q_fraction(num, q, e + 1)


def excluded_degree_correction(field, P, g):
    """2 sum_{deg f = g+2, g+3} mu^2(f) chi_P(f) + (q+1)/q * q^(g+3)/zeta_q(2),
    the excluded-pattern correction active for odd g; exact Fraction.  The
    character sum is the entries [e, 0, 0] of P's series, F(u, 0, 0)."""
    q, S = field.q, _prime_series(P, g + 3)
    char_sum = int(S[4, g + 2]) + int(S[4, g + 3])
    return 2 * char_sum + Fraction(q + 1, q) * q ** (g + 3) / lfunc.zeta_q_value(q, 2)


def fixed_prime_family_sum(field, g, P):
    """sum over the monic family of chi_P(f1 f2), exact: the kept sum of
    P's series (_prime_series, _kept_sums)."""
    return int(_kept_sums(_prime_series(P, g + 3)[None], g)[0, 0])


def family_sum_report(field, g, P, M):
    """Prop.-6.2-style report: exact family sum against
    C(g;P)/4 q^(g+3) minus the odd-g exclusion correction."""
    c = c_constant_g(P, g, M)
    pred = c / 4 * field.q ** (g + 3)
    if g % 2 == 1:
        pred -= excluded_degree_correction(field, P, g)
    return FixedPrimeReport(
        P=P, M=M, exact_sum=fixed_prime_family_sum(field, g, P),
        predicted=float(pred), c_value=c, blocks=c_blocks(P, M), g=g,
    )


def family_sum_nkk_decomposition(field, g, P):
    """The exact combinatorial identity behind the family sum: the four
    parity-class sums at total degrees g+3 / g+2, minus the excluded
    degenerate triples (odd g only), one-variable entries of P's series:
    F(u, 0, 0) or, for [0, 0, k], F(0, 0, u).  Exact integer."""
    top = nkk_sums_all(field, P, g + 3)
    low = nkk_sums_all(field, P, g + 2)
    S = _prime_series(P, g + 3)
    excluded = sum(int(S[5, k] if k else S[4, i + j]) for i, j, k in biquad.admissible_patterns(g)[1])
    return top[(0, 0)] + low[(0, 1)] + low[(1, 0)] + low[(1, 1)] - excluded


# ---------------------------------------------------------------------------
# The trace-moment experiment
# ---------------------------------------------------------------------------

#: the unspecified cutoff constant in the n < 2g - C log_q(g) range label
RANGE_LABEL_C = 5


def run_modes(field, size, n_max, mode="auto", work_budget=None):
    """{n: "exhaustive" or "sample"} for n = 1 .. n_max: mode itself, or for
    "auto" sample mode at the n whose cost size (q^n + 1), members times
    points of P^1(F_{q^n}), passes the work budget."""
    if mode != "auto":
        return dict.fromkeys(range(1, n_max + 1), mode)
    return {n: "sample" if work_budget is not None and size * (field.q ** n + 1) > work_budget else "exhaustive"
            for n in range(1, n_max + 1)}


def theorem_experiment(field, g_list, n_max, variant=biquad.FULL,
                       work_budget=None, sample_size=1000, seed=0, mode="auto"):
    """Rows of (g, n) cells: average trace, matrix-integral reference, gap,
    the even exhaustive n's roots_term and bilinear_term (else None) and the
    error-term scale diagnostics.  Each n runs in its mode of run_modes:
    "auto" samples where size (q^n + 1) passes the work budget."""
    rows = []
    for g in g_list:
        size = biquad.family_size(field, g, variant)
        for n, how in run_modes(field, size, n_max, mode, work_budget).items():
            rep = average_trace(field, g, n, variant, mode=how, sample_size=sample_size, seed=seed)
            logq_g = math.log(g, field.q) if g > 1 else 0.0
            lo = 3 * logq_g
            hi = 2 * g - RANGE_LABEL_C * logq_g
            row = {
                "q": field.q, "g": g, "n": n,
                "family_size": size,
                "avg_T": rep.avg_T,
                "avg_trace": rep.avg_trace,
                "reference": rep.reference,
                "gap": rep.gap,
                "mode": rep.mode,
                "in_theorem_range": (n % 2 == 0 and lo <= n <= 2 * g),
                "in_prime_range": n < hi,
                "roots_term": None, "bilinear_term": None,
                "roots_bound": 3 * (g + 3) / field.q ** (n / 2),
                "nongen_bound": 3 * field.q ** (-n / 6),
            }
            if n % 2 == 0 and how == "exhaustive":
                dec = error_decomposition(field, g, n)
                row["roots_term"], row["bilinear_term"] = dec.roots_term, dec.bilinear_term
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# One-level density
# ---------------------------------------------------------------------------


def fejer_kernel(alpha):
    """hat f(x) = max(0, 1 - |x|/alpha); support (-alpha, alpha)."""

    def fhat(x):
        return max(0.0, 1.0 - abs(x) / alpha)

    return fhat


@dataclass
class DensityReport:
    q: int
    g: int
    alpha: float
    variant: str
    terms: tuple  # the n grid actually used
    family_value: float
    reference_value: float
    crosscheck_max_gap: float
    family_size: int


def _density_terms(g, alpha):
    return tuple(n for n in range(1, max(1, math.ceil(2 * alpha * g)) + 1)
                 if n < 2 * alpha * g)


def trace_expansion_z(fhat, g, traces, q):
    """hat f(0) + (1/g) sum_{n < 2 alpha g} hat f(n/2g) t_n / q^(n/2)."""
    z = fhat(0.0)
    for n, t in traces:
        z += fhat(n / (2 * g)) * (t / q ** (n / 2)) / g
    return z


def eigenphase_z(fhat, g, phases, terms):
    """sum_j F(theta_j) with F the periodized kernel, evaluated through
    its finite cosine expansion on the same hat-f grid."""
    z = 0.0
    for th in phases:
        val = fhat(0.0)
        for n in terms:
            val += 2.0 * fhat(n / (2 * g)) * math.cos(n * th)
        z += val / (2 * g)
    return z


def curve_density_pair(triple, fhat, alpha):
    """(trace-expansion Z, eigenphase Z) for a single curve."""
    g = triple.genus
    terms = _density_terms(g, alpha)
    data = biquad.zeta_numerator(triple, n_max=max(terms) if terms else None)
    return _density_pair(fhat, g, triple.field.q, terms, data)


def _density_pair(fhat, g, q, terms, data):
    """(trace-expansion Z, eigenphase Z) of a curve's CurveData with P_C."""
    z_trace = trace_expansion_z(fhat, g, [(n, data.T[n - 1]) for n in terms], q)
    return z_trace, eigenphase_z(fhat, g, biquad.eigenphases(data.pc), terms)


def one_level_density(field, g, fhat, alpha, variant=biquad.FULL,
                      crosscheck_curves=10):
    """Family average of the linear statistic Z against the USp(2g)^3
    reference, plus a per-curve eigenphase-vs-trace cross-check on a
    deterministic sample of curves.

    Caveat on dimensions: each curve contributes the 2g eigenphases of
    its own Frobenius class, while the reference moments integrate over
    the block group USp(2g)^3 sitting inside USp(6g).  Both sides are
    computed exactly as displayed; reconciling the bookkeeping is an open
    modelling question, not something this function decides.

    Z is normalised by 1/g, so the genus must be at least 1."""
    if alpha > 1:
        warnings.warn("alpha > 1 exceeds the n <= 2g trace convention")
    q = field.q
    terms = _density_terms(g, alpha)
    # refused before the first stage, or else one sieve table for the run,
    # the top degree's, asked for before any other: the cross-check
    # curves' counts reach max(terms) and g + 1, the family's polynomials g + 1
    biquad.check_family(field, g)
    for n in terms:
        check_family_totals(field, g, n)
    poly_tables(field, max(1, g + 1, *terms))
    size = biquad.family_size(field, g, variant)
    monic = _monic_size(field, g)
    if g < 1:
        raise ValueError(f"one-level density needs genus >= 1, got {g}")
    worst = 0.0
    picked = range(0, monic, max(1, monic // max(1, crosscheck_curves)))
    for data in biquad.member_zeta_numerators(field, g, picked, max(terms, default=None)):
        z_t, z_p = _density_pair(fhat, g, q, terms, data)
        worst = max(worst, abs(z_t - z_p))
    # family side: average of per-curve trace expansions = expansion of
    # the average traces (linearity); computed from exact family totals
    fam = fhat(0.0)
    for n in terms:
        rep = average_trace(field, g, n, variant)
        fam += fhat(n / (2 * g)) * float(rep.avg_T) / q ** (n / 2) / g
    ref = fhat(0.0)
    for n in terms:
        ref += fhat(n / (2 * g)) * matrix_integral_reference(USP_CUBED, g, n) / g
    return DensityReport(
        q=q, g=g, alpha=alpha, variant=variant, terms=terms,
        family_value=fam, reference_value=ref,
        crosscheck_max_gap=worst, family_size=size,
    )
