"""Truncated Euler products of generic local factors 1 + delta(u; Q).

A local-factor family is described by its leading character part
delta(u;Q) = (sum_i c_i chi_i(Q)) u^deg(Q) + O(|u|^(1+eta) deg(Q)), with
chi_i(Q) = eps_i^deg(Q) * (Q / D_i).  The three concrete families are the
per-prime factors

    delta_{P,+-}(u;Q) = 2 chi_P^{+-}(Q) u^d - (1 + 2 chi_P^{+-}(Q)) u^{2d}
    delta_{P,0}(u;Q)  = (chi_P^+ + chi_P^-)(Q) u^d
                        - (1 + chi_P^+(Q) + chi_P^-(Q)) u^{2d}

whose full products equal L(u,chi_P^+-)^2 H_{P,+-}(u), resp.
L(u,chi_P^+) L(u,chi_P^-) H_{P,0}(u).

All products are exact rationals (evaluation points are rational, every
local numerator an integer over a power of q); numerators multiply in a
balanced tree so catalog-scale truncations stay cheap.  Sums of the
truncated products over primes of fixed degree approach
pi_q(n)/zeta_q(2), and the module reports the three error scales of that
approximation alongside the exact value.  At u = 1/q such a sum is an
integer over a power of p, so it is reduced by the p-adic valuation of
its numerator: the prime sums build no Fraction and run no gcd on their
~10^5-bit numerators.
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Callable

from . import ffpoly
from . import lfunc
from ._tables import check_sieve, poly_tables, read_degree, symbol_store
from .errors import InvariantError

KINDS = ("plus", "minus", "zero")

#: the most bytes of residue tables (_tables.symbol_store) a prime sum may
#: read.  The counts read keys up to degree (n-1)//2 + 1 alone, so no run
#: the sieve cap admits comes near it: the largest, q = 157 at n = 3,
#: reads the tables of the keys of degree <= 2, about 0.3 GB, and
#: eulersum --q 25 --n 4 --M 4 those of its 325 keys, about 0.2 MB
PRIME_SUM_BYTES_CAP = 1 << 30


def _prod(vals):
    """Balanced integer product (keeps big-int multiplies near-square)."""
    vals = list(vals)
    if not vals:
        return 1
    while len(vals) > 1:
        nxt = [a * b for a, b in zip(vals[0::2], vals[1::2])]
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


def prod_fractions(fracs):
    fracs = list(fracs)
    return Fraction(_prod(f.numerator for f in fracs), _prod(f.denominator for f in fracs))


@dataclass(frozen=True)
class LocalFactorSpec:
    """A family of local factors over the monic primes of one F_q[X].

    chars lists (c_i, eps_i, D_i) for the u^deg(Q) coefficient
    sum_i c_i eps_i^deg(Q) (Q/D_i); exact_factor(Q, u) returns the full
    1 + delta(u;Q) as a Fraction; eta bounds the remainder exponent.
    """

    field: ffpoly.FiniteField
    chars: tuple
    exact_factor: Callable
    eta: Fraction
    label: str = ""

    def main_term(self, Q, u):
        d = int(Q.degree)
        total = Fraction(0)
        for c, eps, D in self.chars:
            chi = ffpoly.jacobi_symbol(Q, D)
            if eps == -1 and d % 2 == 1:
                chi = -chi
            total += Fraction(c) * chi
        return total * u ** d

    def remainder_scale(self, Q, u):
        """|delta - main| / |u|^((1+eta) deg Q) as a float (the implied
        constant of the remainder bound at this Q and u)."""
        d = int(Q.degree)
        rem = self.exact_factor(Q, u) - 1 - self.main_term(Q, u)
        expo = (1 + self.eta) * d
        return abs(float(rem)) / float(abs(u)) ** float(expo)

    def in_disc(self, u):
        """|u| < min(q^(-1/(1+eta)), q^(-1/2)), decided exactly."""
        q = self.field.q
        au = abs(u)
        if au ** 2 * q >= 1:
            return False
        r, s = self.eta.numerator, self.eta.denominator
        # |u|^(1 + eta) < 1/q  <=>  |u|^(s+r) * q^s < 1
        return au ** (s + r) * q ** s < 1


@dataclass(frozen=True)
class TruncatedProduct:
    spec: LocalFactorSpec
    M: int
    u: Fraction
    value: Fraction
    in_disc: bool


def delta_spec(kind, P):
    """LocalFactorSpec for delta_{P,kind}, kind in {plus, minus, zero}."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    fld = P.field

    def exact_factor(Q, u):
        return local_factor(kind, P, Q, u, _validate=False)

    if kind == "plus":
        chars = ((Fraction(2), 1, P),)
    elif kind == "minus":
        chars = ((Fraction(2), -1, P),)
    else:
        chars = ((Fraction(1), 1, P), (Fraction(1), -1, P))
    return LocalFactorSpec(fld, chars, exact_factor, Fraction(1), f"delta[P={P},{kind}]")


def _chi_pm(P, Q, sign, lookup=None):
    chi = lookup(Q) if lookup is not None else ffpoly.jacobi_symbol(Q, P)
    if sign == -1 and int(Q.degree) % 2 == 1:
        chi = -chi
    return chi


@functools.lru_cache(maxsize=None)
def chi_counts(P, max_deg):
    """Row d-1 holds the numbers of monic primes Q of degree d with
    (Q/P) = -1, 0, 1, for d = 1..max_deg (PolyTables.prime_counts, which
    reads keys up to read_degree(deg P, max_deg) <= deg P and completes the
    rest, so the table reaches deg P alone).  Shared by the three kinds
    and moments' series, so read-only."""
    d = int(P.degree)
    counts = poly_tables(P.field, d).prime_counts(d, [P.monic_code()], max_deg)[0]
    counts.flags.writeable = False
    return counts


def local_factor(kind, P, Q, u, _validate=True):
    """The exact local factor 1 + delta_{P,kind}(u; Q) as a Fraction."""
    if _validate and not ffpoly.is_irreducible(Q):
        raise ValueError("Q must be monic irreducible")
    if not Q.is_monic():
        raise ValueError("Q must be monic")
    u = Fraction(u)
    d = int(Q.degree)
    ud, u2d = u ** d, u ** (2 * d)
    if kind == "plus" or kind == "minus":
        chi = _chi_pm(P, Q, 1 if kind == "plus" else -1)
        return 1 + 2 * chi * ud - (1 + 2 * chi) * u2d
    if kind == "zero":
        s = _chi_pm(P, Q, 1) + _chi_pm(P, Q, -1)
        return 1 + s * ud - (1 + s) * u2d
    raise ValueError(f"kind must be one of {KINDS}")


def truncated_product(spec, M, u):
    """Product of spec.exact_factor over all monic primes of degree <= M.

    Exact rational arithmetic; a point outside the convergence disc only
    flags the result, the product itself is still exact.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    u = Fraction(u)
    # top degree first: its sieve table then serves every lower degree
    by_degree = [ffpoly.primes(spec.field, d) for d in range(M, 0, -1)][::-1]
    fracs = [Fraction(spec.exact_factor(Q, u)) for primes in by_degree for Q in primes]
    return TruncatedProduct(spec, M, u, prod_fractions(fracs), spec.in_disc(u))


def tail_bound(spec, M, u):
    """(sqrt(q)|u|)^M / M + (q |u|^(1+eta))^M / M; a scale, not a certificate."""
    q = spec.field.q
    au = abs(float(u))
    eta = float(spec.eta)
    return (math.sqrt(q) * au) ** M / M + (q * au ** (1 + eta)) ** M / M


# ---------------------------------------------------------------------------
# Assembly against exact L-values
# ---------------------------------------------------------------------------


def l_value(P, sign, u):
    """L(u, chi_P^sign) evaluated exactly from its raw polynomial."""
    chi = lfunc.QuadChar(P, sign)
    return lfunc.l_polynomial(chi).evaluate(Fraction(u))


def _l_pair(P, sign):
    """L(1/q, chi_P^sign) as (num, n) meaning num / q^n: with raw
    coefficients c_0..c_n, num = sum_i c_i q^(n-i)."""
    q = P.field.q
    coeffs = lfunc.l_polynomial(lfunc.QuadChar(P, sign)).coeffs
    num = 0
    for c in coeffs:
        num = num * q + c
    return num, len(coeffs) - 1


def h_value(kind, P, u, M):
    """Truncated H_{P,kind}(u): the Euler factors left after dividing the
    zeta and L local factors out of 1 + delta_{P,kind}.

    The Fraction of _h_pair's numerator over b^exponent, u = a/b.  At
    u = 1/q and M around 9 that costs one gcd on numbers of ~10^5 bits:
    Fraction's constructor always runs one, even on a pair already reduced
    by p-valuation as _prime_sum's is.  So the fixed-prime constants read
    the unreduced pair instead, and only library callers pay the gcd."""
    u = Fraction(u)
    num, den_exp = _h_pair(kind, P, u, M)
    return Fraction(num, u.denominator ** den_exp)


def _h_pair(kind, P, u, M):
    """Truncated H_{P,kind}(u) as (num, e) meaning num / b^e, u = a/b.

    The factor at a prime of degree d is an integer over b^(4d) that
    depends only on d and (Q/P), so the numerator is one integer per
    (d, (Q/P)) raised to its multiplicity, and the exponent is 4 d summed
    over the primes."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    if M < 1:
        raise ValueError("M must be >= 1")
    u = Fraction(u)
    a, b = u.numerator, u.denominator
    nums, den_exp = [], 0
    for d, row in enumerate(chi_counts(P, M).tolist(), 1):
        ad, bd = a ** d, b ** d
        for chi, count in zip((-1, 0, 1), row):
            if count:
                base, c1, c2 = _local_terms(kind, d, chi, ad, bd)
                nums.append((base * (bd - c1 * ad) * (bd - c2 * ad)) ** count)
        den_exp += 4 * d * sum(row)
    return _prod(nums), den_exp


def assembled_product(kind, P, u, M):
    """L-part times truncated H-part: L(u,chi^+-)^2 H_{P,+-} for the signed
    kinds, L(u,chi^+) L(u,chi^-) H_{P,0} for the mixed one.

    Agrees with truncated_product(delta_spec(kind, P), M, u) up to the
    tail scale; the gap shrinks as M grows.
    """
    u = Fraction(u)
    h = h_value(kind, P, u, M)
    if kind == "plus":
        return l_value(P, lfunc.PLUS, u) ** 2 * h
    if kind == "minus":
        return l_value(P, lfunc.MINUS, u) ** 2 * h
    if kind == "zero":
        return l_value(P, lfunc.PLUS, u) * l_value(P, lfunc.MINUS, u) * h
    raise ValueError(f"kind must be one of {KINDS}")


# ---------------------------------------------------------------------------
# Prime sums (sum over deg P = n of the truncated product at u = 1/q)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrimeSumResult:
    """The prime sum as the coprime ints num / den, den a power of p."""

    q: int
    n: int
    M: int
    kind: str
    num: int
    den: int
    reference: Fraction
    scales: dict = dc_field(compare=False, default_factory=dict)

    @functools.cached_property
    def value(self):
        """num / den as a Fraction, for library callers: its constructor
        runs one gcd on the ~10^5-bit pair, so it is built once."""
        return Fraction(self.num, self.den)

    @functools.cached_property
    def gap(self):
        """value - reference, built once (the subtraction runs gcds too)."""
        return self.value - self.reference

    @property
    def scaled_gap(self):
        """|gap| normalized by n / q^(n/2) (the leading error scale).

        float(gap) is one int true division of the unreduced difference:
        CPython rounds int / int correctly, as Fraction.__float__ does the
        reduced pair, so both give the same float."""
        ref = self.reference
        gap = (self.num * ref.denominator - ref.numerator * self.den) / (self.den * ref.denominator)
        return abs(gap) * self.n / self.q ** (self.n / 2)


def prime_sum(kind, field, n, M):
    """sum_{deg P = n} prod_{deg Q <= M} (1 + delta_{P,kind}(1/q; Q)) exactly.

    Reference value pi_q(n)/zeta_q(2); the scales dict reports the three
    error terms q^(n-2M)/n, q^(n/2) M^3/n and q^n/(n M q^(M/2)).  The
    product runs over the pi_q(1..M) primes, so M and n are held to the
    reach of the sieve tables (_tables.check_sieve at max(n, M)) though
    only the degree-n table is built, and residue tables over
    PRIME_SUM_BYTES_CAP are refused; both before any table is built.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    if n < 1 or M < 1:
        raise ValueError("n and M must be >= 1")
    q = field.q
    check_sieve(field, max(n, M))
    keys = [ffpoly.prime_count_exact(q, a) for a in range(1, read_degree(n, M) + 1)]
    _, need = symbol_store(q, n, keys)
    if need > PRIME_SUM_BYTES_CAP:
        raise ValueError(f"prime sum: q={q} at n={n}, M={M} needs about {need} bytes of "
                         f"residue tables, over the cap of {PRIME_SUM_BYTES_CAP}")
    num, den = _prime_sum(kind, field, n, M)
    reference = Fraction(ffpoly.prime_count_exact(q, n)) * (
        1 / lfunc.zeta_q_value(q, 2)
    )
    scales = {
        "zeta_tail": q ** float(n - 2 * M) / n,
        "fluctuation": q ** (n / 2) * M ** 3 / n,
        "product_tail": q ** n / (n * M * q ** (M / 2)),
    }
    return PrimeSumResult(q, n, M, kind, num, den, reference, scales)


@functools.lru_cache(maxsize=4)
def _degree_counts(field, n, M):
    """PolyTables.prime_counts of every monic prime of degree n against the
    degrees 1..M, off a table reaching n (chi_counts).  Shared by the three
    kinds, so read-only."""
    T = poly_tables(field, n)
    counts = T.prime_counts(n, T.prime_codes[n], M)
    counts.flags.writeable = False
    return counts


def _local_terms(kind, d, chi_plain, ad, bd):
    """(base, c1, c2) at a prime Q of degree d and u = a/b, given a^d and
    b^d: c1, c2 are the two characters of the kind at Q (chi_plain is
    (Q/P) before any sign twist), and base = b^(2d) (1 + delta), with
    delta = s u^d - (1 + s) u^(2d) and s = c1 + c2."""
    chi_m = -chi_plain if d % 2 else chi_plain
    c1, c2 = {"plus": (chi_plain, chi_plain), "minus": (chi_m, chi_m),
              "zero": (chi_plain, chi_m)}[kind]
    s = c1 + c2
    return bd * bd + s * ad * bd - (1 + s) * ad * ad, c1, c2


def _prime_sum(kind, field, n, M):
    """The prime sum as the reduced pair (num, den), with no gcd.

    Every product shares the denominator q^E, E = 2 sum_{d<=M} d pi_q(d),
    so the numerators are summed as integers.  The numerator at P is
    prod_k base_k^(c_{P,k}) over the distinct local numerators base_k, so
    the part prod_k base_k^(min_P c_{P,k}) common to every P is multiplied
    once and only the per-P remainders are summed.  With q = p^e and
    v = min(v_p(total), e E), the pair is (total / p^v, p^(e E - v)):
    coprime, since den is a power of p that divides no more of num."""
    q = field.q
    bases = [[_local_terms(kind, d, chi, 1, q ** d)[0] for chi in (-1, 0, 1)]
             for d in range(1, M + 1)]
    counts = []
    for row in _degree_counts(field, n, M).tolist():
        c = collections.Counter()
        for base_d, count_d in zip(bases, row):
            for base, count in zip(base_d, count_d):
                if count:
                    c[base] += count
        counts.append(c)
    common = {base: min(c[base] for c in counts) for base in counts[0]}
    total = _prod(base ** k for base, k in common.items()) * sum(
        _prod(base ** (k - common.get(base, 0)) for base, k in c.items()) for c in counts)
    if total <= 0:
        raise InvariantError(f"prime sum ({kind}, q={q}, n={n}, M={M}): numerator is not positive")
    den_exp = field.e * 2 * sum(d * ffpoly.prime_count_exact(q, d) for d in range(1, M + 1))
    v, num = p_valuation(total, field.p, den_exp)
    return num, field.p ** (den_exp - v)


def p_valuation(n, p, cap):
    """(v, n // p^v) with v = min(v_p(n), cap), for n != 0.

    p^1, p^2, p^4, ... divide out while they go in, then the same powers
    in reverse take the rest, one binary digit of v each: O(log v) big
    divisions, where dividing by p one at a time is quadratic in v."""
    v, powers, pw, k = 0, [], p, 1
    while k <= cap - v:
        quo, rem = divmod(n, pw)
        if rem:
            break
        n, v = quo, v + k
        powers.append((pw, k))
        pw, k = pw * pw, 2 * k
    for pw, k in reversed(powers):
        if k <= cap - v:
            quo, rem = divmod(n, pw)
            if not rem:
                n, v = quo, v + k
    return v, n
