"""Family averages of Tr(Theta_C^n) and their exact error decomposition.

The average over the full family vanishes identically for odd n (the
leading-coefficient twists cancel three ways).  For even n it satisfies
an exact rational identity

    avg_T / q^(n/2) = -3 + roots_term - bilinear_term

where roots_term collects members whose f1*f2 vanishes somewhere on
P^1(F_{q^(n/2)}) (the point at infinity counts as a root precisely when
deg f1*f2 is odd, and each member contributes its root count minus one,
which keeps the main term at exactly -3), and bilinear_term is the
character sum over x in F_{q^n} outside F_{q^(n/2)}.  The degree-n part
of the bilinear term, the x of minimal polynomial of degree n, is
recomputed independently from prime counts (triple_series) and
asserted equal.

Fixed-prime sums N_{k1,k2}(d;P) and their residue-derived constants
C_{k1,k2}(d;P), C(g;P) follow, with exact L-values and truncated Euler
products supplying the predictions; reference values for the matrix
integrals over USp(2g), USp(2g)^3 and U(2g) close the loop for the
trace-moment experiment and the one-level density.

No exhaustive sum lists the members, and no point of F_{q^n} is
evaluated.  The family totals are sums over pairs (f_a, f_b) of
square-free monics weighted by the number of third polynomials that
complete the pair (biquad.pair_weight): the character sums over F_{q^n}
are sum(W o G_ab) with G_ab = sum_{d | n} d X_a X_b^T one float32 Gram
block per degree pair over the orbit columns X[f, P] = (f/P)^(n/d) of the
monic primes P of degree d | n (biquad.orbit_columns: an x with minimal
polynomial P has chi(f(x)) = (f/P)^(n/d), and P stands for its d roots).
Every fixed-character sum over triples -- the fixed-prime sums,
N_{k1,k2}(d;P), the prime-sum form -- is read off one series of prime
counts (triple_series).  Members are unranked from the pair weights
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
from ._tables import poly_tables
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


def _gram_pairs(patterns):
    """The degree pairs (a <= b) of the Gram blocks of these patterns."""
    return sorted({tuple(sorted(pair)) for d1, d2, d3 in patterns
                   for pair in ((d1, d2), (d1, d3), (d2, d3))})


def family_totals_bytes(field, g, n):
    """The bytes _family_totals(field, g, n) would allocate, estimated from
    prime and square-free counts before anything is built: the residue
    tables of its orbit columns, those of the primes of the degrees d | n
    up to the family's top degree (the keys, all primes up to there, have
    more entries; biquad.orbit_columns) and the keys' own when n passes
    it; a block of columns, in int8 and two float32 copies; per Gram
    degree pair two float32 and two int64 blocks."""
    q = field.q
    degrees = biquad.family_degrees(g)
    top = max(degrees, default=0)
    pi = {d: ffpoly.prime_count_exact(q, d) for d in range(1, max(n, top) + 1)}
    count = {d: ffpoly.squarefree_count(q, d) for d in degrees}
    tables = sum(pi[d] * q ** d for d in biquad.divisors(n) if d <= top)
    tables += (n > top) * sum(pi[a] * q ** a for a in range(1, top + 1))
    width = sum(count.values()) + sum(pi[a] for a in range(1, top + 1))
    block = 9 * min(width * sum(pi[d] for d in biquad.divisors(n)), max(width, 64 * ffpoly.BLOCK_BYTES))
    grams = 24 * sum(count[a] * count[b] for a, b in _gram_pairs(biquad.admissible_patterns(g)[0]))
    return tables + block + grams


def check_family_totals(field, g, n):
    """ValueError when family_totals_bytes passes TOTALS_BYTES_CAP."""
    need = family_totals_bytes(field, g, n)
    if need > TOTALS_BYTES_CAP:
        raise ValueError(f"family totals: q={field.q}, g={g} at n={n} need about {need} bytes, "
                         f"over the cap of {TOTALS_BYTES_CAP}")


@functools.lru_cache(maxsize=None)
def _family_totals(field, g, n):
    """Exhaustive totals over the monic family, from pair weights.

    Returns (sum of S13+S23+S12, sum of S12, sum of (roots on P^1 of the
    half field minus 1), sum of the outside-subfield bilinear character
    sum, sum of its generating-x part) -- the last three only for even n.

    A member sum of chi(fa fb) over F_{q^n} is sum(Wab o G) per pattern,
    Wab its pair weights (biquad.pair_weights) and G the Gram block
    sum_{d | n} d X_a X_b^T of the orbit columns X (biquad.orbit_columns)
    of degree d of the polynomials of degrees d_a, d_b; S13 and S23 read
    their own W13, W23 blocks, so s_all = 3 s12 is a check, not a product.
    Every member is monic, so chi at infinity of fa fb is 1 for even
    degree.  The generating x are those whose minimal polynomial has
    degree n: the columns of d = n alone.  f has a zero in F_{q^(n/2)} at
    each root of a prime factor of degree dividing n/2, so its zero count
    there is the sum of those degrees, read off the factor arrays.

    Exactness of the float32 GEMM: column entries are (f/P)^(n/d) in
    {-1, 0, 1}, weighted by d.  Each x in F_{q^n} has one minimal
    polynomial, of degree d | n, and shares it with d - 1 others, so
    sum_{d | n} d pi_q(d) = q^n, and a Gram entry and each partial sum of
    it, in any order and over any blocks of columns, is an integer of
    absolute value at most q^n; the generating part alone is at most
    n pi_q(n) <= q^n.  float32 holds every integer up to 2^24 exactly, and
    q^n >= 2^24 raises InvariantError before anything is built.
    """
    if field.q ** n >= 1 << 24:
        raise InvariantError(f"q^n = {field.q ** n} is beyond exact float32 Gram blocks")
    check_family_totals(field, g, n)
    weights = biquad.pair_weights(field, g)
    fam = biquad.family_polys(field, g)
    span = {d: slice(*np.searchsorted(fam.deg, [d, d + 1])) for d in biquad.family_degrees(g)}
    count = {d: s.stop - s.start for d, s in span.items()}
    # per degree pair, the Gram blocks of the columns of d < n, weighted,
    # and of the generating columns d = n, unweighted
    grams = {(a, b): np.zeros((2, count[a], count[b]), dtype=np.float32) for a, b in _gram_pairs(weights)}
    for d, X in biquad.orbit_columns(fam, biquad.divisors(n)):
        if n // d % 2 == 0:
            X *= X
        Xf = X.astype(np.float32)
        Xw = Xf if d == n else d * Xf
        for (a, b), G in grams.items():
            G[int(d == n)] += Xw[span[a]] @ Xf[span[b]].T
    gen = {pair: n * G[1].astype(np.int64) for pair, G in grams.items()}
    full = {pair: G[0].astype(np.int64) + gen[pair] for pair, G in grams.items()}

    def gram(blocks, a, b):
        return blocks[a, b] if a <= b else blocks[b, a].T

    fin, inf = [0, 0, 0], [0, 0, 0]
    for (d1, d2, d3), pair_blocks in weights.items():
        for k, ((a, b), W) in enumerate(zip(((d1, d2), (d1, d3), (d2, d3)), pair_blocks)):
            fin[k] += int((W * gram(full, a, b)).sum())
            if (a + b) % 2 == 0:
                inf[k] += int(W.sum())
    s12_tot = fin[0] + inf[0]
    s_all = sum(fin) + sum(inf)
    if n % 2:
        return s_all, s12_tot, 0, 0, 0
    key_deg = fam.key_deg[fam.key]
    zeros = np.zeros(len(fam), dtype=np.int64)
    np.add.at(zeros, fam.poly, np.where(n // 2 % key_deg == 0, key_deg, 0))
    size = zeros_half = odd = gen_tot = 0
    for (d1, d2, _), (W12, _, _) in weights.items():
        members = int(W12.sum())
        size += members
        odd += (d1 + d2) % 2 * members
        zeros_half += int(zeros[span[d1]] @ W12.sum(axis=1) + zeros[span[d2]] @ W12.sum(axis=0))
        gen_tot += int((W12 * gram(gen, d1, d2)).sum())
    roots_tot = zeros_half + odd - size
    bil_tot = fin[0] - (size * field.q ** (n // 2) - zeros_half)
    return s_all, s12_tot, roots_tot, bil_tot, gen_tot


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
    if size == 0:
        raise ValueError(f"family (q={field.q}, g={g}) is empty")
    q = field.q
    if mode == "exhaustive":
        s_all, s12_tot, *_ = _family_totals(field, g, n)
        if variant == biquad.MONIC:
            avg_T = Fraction(-s_all, biquad.family_size(field, g, biquad.MONIC))
        else:
            avg_T = _full_average(field, g, n, s_all, s12_tot)
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


def _full_average(field, g, n, monic_s_all, monic_s12):
    """Exact full-variant average from monic pair sums.

    chi2((c f)(x)) = chi2(c) chi2(f(x)) at every point of P^1 including
    infinity, so summing a member's trace over its (q-1)^2 leading
    coefficient twists multiplies the f1*f3 and f2*f3 pair sums by
    (q-1) * sum_c chi2(c) and the f1*f2 pair sum by (sum_c chi2(c))^2.
    The constant sum is computed literally, chi_{q^n}(c) = chi_q(c)^n for
    c in F_q: it is q-1 for even n (every unit of F_q is a square in
    F_{q^n}) and 0 for odd n.
    """
    const_sum = sum(field.chi2(c) ** n for c in field.units())
    u = field.q - 1
    size_full = u * u * biquad.family_size(field, g, biquad.MONIC)
    total = const_sum * u * (monic_s_all - monic_s12) + const_sum ** 2 * monic_s12
    return Fraction(-total, size_full)


def error_decomposition(field, g, n):
    """Exact pieces of the even-n identity; raises InvariantError if the
    rearrangement fails to close (it cannot, barring bugs).

    Also recomputes the degree-n (generating) part of the bilinear sum in
    the prime-sum form through the n-to-1 correspondence x <-> P_x, from
    prime counts (_generating_prime_sum), and asserts exact agreement.
    """
    if n % 2 or n < 2:
        raise ValueError("the decomposition is an even-n statement")
    q = field.q
    size = biquad.family_size(field, g, biquad.MONIC)
    if size == 0:
        raise ValueError(f"family (q={field.q}, g={g}) is empty")
    s_all, s12_tot, roots_tot, bil_tot, gen_tot = _family_totals(field, g, n)
    if s_all != 3 * s12_tot:
        raise InvariantError("pair-sum symmetry broke")
    qn2 = q ** (n // 2)
    avg_T = Fraction(-s_all, size)
    roots_term = Fraction(3 * roots_tot, qn2 * size)
    bilinear_term = Fraction(3 * bil_tot, qn2 * size)
    if avg_T / qn2 != -3 + roots_term - bilinear_term:
        raise InvariantError("error decomposition identity failed")

    if gen_tot != n * _generating_prime_sum(field, g, n):
        raise InvariantError("x-sum and prime-sum forms disagree")

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


def triple_series(q, counts, D):
    """int64 S[b, i, j, k]: the sum of chi(f1) chi(f2) over the pairwise
    coprime square-free monic (f1, f2, f3) of degrees (i, j, k), i + j + k
    <= D, chi having counts[b, a - 1] = (N-, N0, N+) monic primes of degree
    a with chi = -1, 0, 1 (no others, so an entry is whole when its degrees
    are at most counts.shape[1]).  A prime divides at most one f, so S =
    prod_{a, s} (1 + s (x1^a + x2^a) + x3^a)^N_s, expanded binomially.
    Exact in int64: an entry or partial sum is a signed count of distinct
    triples, at most q^D, and a term weight at most N_s^m <= q^(a m);
    q^D >= 2^63 raises InvariantError.  Products past D may wrap; they are
    cleared."""
    if q ** D >= 1 << 63:
        raise InvariantError(f"q^D = {q ** D} is beyond exact int64 series")
    counts, fact = np.asarray(counts, dtype=np.int64), math.factorial
    S = np.zeros((len(counts),) + (D + 1,) * 3, dtype=np.int64)
    S[:, 0, 0, 0] = 1
    past = np.indices((D + 1,) * 3).sum(axis=0) > D
    for a in range(1, min(counts.shape[1], D) + 1):
        for s, N in zip((-1, 0, 1), counts[:, a - 1].T.tolist()):
            if not any(N):
                continue
            old, S = S, S.copy()
            for m in range(1, min(D // a, max(N)) + 1):  # C(N, m) = 0 for m > N
                comb = np.array([math.comb(c, m) for c in N], dtype=np.int64)[:, None, None, None]
                r = D + 1 - a * m
                for m1 in range(m + 1 if s else 1):
                    for m2 in range(m - m1 + 1 if s else 1):
                        w = s ** (m1 + m2) * fact(m) // (fact(m1) * fact(m2) * fact(m - m1 - m2))
                        i, j, k = a * m1, a * m2, a * (m - m1 - m2)
                        S[:, i:i + r, j:j + r, k:k + r] += w * comb * old[:, :r, :r, :r]
            S[:, past] = 0
    return S


def _generating_prime_sum(field, g, n):
    """sum over the monic primes P of degree n (even) of the family sum of
    chi_P(f1 f2): the kept-pattern coefficients of one series per distinct
    vector of counts of the key primes Q up to the family's top degree
    (PolyTables.prime_counts).  No orbit column, Gram block or pair weight
    is read."""
    top = max(biquad.family_degrees(g), default=0)
    T = poly_tables(field, max(n, top))
    counts = T.prime_counts(n, T.prime_codes[n], top)
    vectors, mult = np.unique(counts.reshape(len(counts), -1), axis=0, return_counts=True)
    kept = (slice(None), *np.array(biquad.admissible_patterns(g)[0]).T)
    step = max(1, 8 * ffpoly.BLOCK_BYTES // (g + 4) ** 3)
    return sum(int(triple_series(field.q, vectors[lo:lo + step].reshape(-1, top, 3), g + 3)[kept].sum(axis=1)
                   @ mult[lo:lo + step]) for lo in range(0, len(vectors), step))


# ---------------------------------------------------------------------------
# Fixed-prime sums and their constants
# ---------------------------------------------------------------------------


_series_of = {}  # per prime P, its series of the highest total degree built so far


def _prime_series(P, D):
    """triple_series of chi_P reaching total degree D, from the counts of
    the monic primes Q of degree up to D by (Q/P) (eulerprod.chi_counts).
    The one of highest degree built so far for P serves every lower D, so
    callers ask for their top degree first."""
    S = _series_of.get(P)
    if S is None or len(S) <= D:
        counts = eulerprod.chi_counts(P, D) if D else np.zeros((0, 3), dtype=np.int64)
        S = _series_of[P] = triple_series(P.field.q, counts[None], D)[0]
    return S


def nkk_sums_all(field, P, d):
    """All four parity classes of N_{k1,k2}(d;P): P's series (_prime_series)
    at each split (a, b, c) of d goes to class ((a + c) % 2, (b + c) % 2)."""
    if d < 0:
        raise ValueError("d must be >= 0")
    S = _prime_series(P, d)
    out = {(a, b): 0 for a in (0, 1) for b in (0, 1)}
    for a in range(d + 1):
        for b in range(d - a + 1):
            c = d - a - b
            out[(a + c) % 2, (b + c) % 2] += int(S[a, b, c])
    return out


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
    character sum is the entries [e, 0, 0] of P's series (f2 = f3 = 1)."""
    q, S = field.q, _prime_series(P, g + 3)
    char_sum = int(S[g + 2, 0, 0] + S[g + 3, 0, 0])
    return 2 * char_sum + Fraction(q + 1, q) * q ** (g + 3) / lfunc.zeta_q_value(q, 2)


def fixed_prime_family_sum(field, g, P):
    """sum over the monic family of chi_P(f1 f2), exact: the coefficients
    of P's series (_prime_series) at the kept patterns."""
    S = _prime_series(P, g + 3)
    return sum(int(S[pattern]) for pattern in biquad.admissible_patterns(g)[0])


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
    degenerate triples (odd g only) read off P's series.  Exact integer."""
    top = nkk_sums_all(field, P, g + 3)
    low = nkk_sums_all(field, P, g + 2)
    excluded = sum(int(_prime_series(P, g + 3)[pattern]) for pattern in biquad.admissible_patterns(g)[1])
    return top[(0, 0)] + low[(0, 1)] + low[(1, 0)] + low[(1, 1)] - excluded


# ---------------------------------------------------------------------------
# The trace-moment experiment
# ---------------------------------------------------------------------------

#: the unspecified cutoff constant in the n < 2g - C log_q(g) range label
RANGE_LABEL_C = 5


def theorem_experiment(field, g_list, n_max, variant=biquad.FULL,
                       work_budget=None, sample_size=1000, seed=0):
    """Rows of (g, n) cells: average trace, matrix-integral reference,
    gap, and the error-term scale diagnostics.  Falls back to sampling
    when family_size * q^n exceeds the work budget."""
    rows = []
    for g in g_list:
        size = biquad.family_size(field, g, variant)
        for n in range(1, n_max + 1):
            cost = size * (field.q ** n + 1)
            if work_budget is not None and cost > work_budget:
                rep = average_trace(field, g, n, variant, mode="sample",
                                    sample_size=sample_size, seed=seed)
            else:
                rep = average_trace(field, g, n, variant)
            logq_g = math.log(g, field.q) if g > 1 else 0.0
            lo = 3 * logq_g
            hi = 2 * g - RANGE_LABEL_C * logq_g
            rows.append({
                "q": field.q, "g": g, "n": n,
                "family_size": size,
                "avg_T": rep.avg_T,
                "avg_trace": rep.avg_trace,
                "reference": rep.reference,
                "gap": rep.gap,
                "mode": rep.mode,
                "in_theorem_range": (n % 2 == 0 and lo <= n <= 2 * g),
                "in_prime_range": n < hi,
                "roots_bound": 3 * (g + 3) / field.q ** (n / 2),
                "nongen_bound": 3 * field.q ** (-n / 6),
            })
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
    if size == 0:
        raise ValueError(f"family (q={q}, g={g}) is empty")
    if g < 1:
        raise ValueError(f"one-level density needs genus >= 1, got {g}")
    worst = 0.0
    monic = biquad.family_size(field, g, biquad.MONIC)
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
