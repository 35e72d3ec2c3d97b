"""Quadratic characters chi_D^{+-} over F_q[X] and their L-polynomials.

For a square-free modulus D the L-polynomial has integer coefficients
c_d = sum of chi_D over monic polynomials of degree d, vanishing for
d >= deg(D).  Completing by the trivial zero (divide by 1-u for the plus
sign, 1+u for the minus sign, present only when deg(D) is even) yields a
degree 2*delta polynomial with the functional-equation symmetry
c_j = q^(j-delta) * c_(2*delta-j), all of whose reciprocal roots have
modulus sqrt(q).  Power sums of those reciprocal roots are the integers
t_n = q^(n/2) * Tr(Theta^n), recovered exactly by Newton's identities and
cross-checkable against the von Mangoldt character sum (the explicit
formula): -t_n = lambda + sum_{deg F = n} Lambda(F) chi(F).  Run the
other way, the two fix every prime sum of chi_P from those of degree up
to (deg P - 1)//2 (`completed_prime_sums`), through the first half of
the power sums of L* (`_functional_rows`).

Every character sum runs through the vectorized residue engine of
:mod:`ffstat._tables` (every odd q): `l_polynomial`, `prime_char_sum` and
`explicit_formula_trace` for one modulus, and `l_suite` for the whole
catalogue of moduli, reporting aggregate check results; only
`char_value`, one symbol, is scalar.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import ffpoly
from ._tables import CharPlan, poly_tables
from .errors import InvariantError

PLUS, MINUS = 1, -1

_SIGN_NAMES = {PLUS: "plus", MINUS: "minus"}


def parse_sign(text):
    for val, name in _SIGN_NAMES.items():
        if text in (name, name[0], {PLUS: "+", MINUS: "-"}[val]):
            return val
    raise ValueError(f"unknown character sign {text!r}")


class QuadChar:
    """Quadratic Dirichlet character modulo a square-free D, sign +1 or -1.

    The minus variant twists by (-1)^deg(F).  A non-monic D is accepted
    and normalized: constants are units, so (F/D) depends only on the
    monic part of D.
    """

    __slots__ = ("modulus", "sign")

    def __init__(self, modulus, sign=PLUS):
        if modulus.is_zero() or modulus.is_constant():
            raise ValueError("modulus must be nonconstant")
        modulus = modulus.to_monic()
        if not ffpoly.is_squarefree(modulus):
            raise ValueError("modulus must be square-free")
        if sign not in (PLUS, MINUS):
            raise ValueError("sign must be +1 or -1")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "sign", sign)

    def __setattr__(self, *a):
        raise AttributeError("QuadChar is immutable")

    @property
    def field(self):
        return self.modulus.field

    def __call__(self, f):
        return char_value(self, f)

    def __repr__(self):
        return f"QuadChar({self.modulus}, {_SIGN_NAMES[self.sign]})"


def char_value(chi, f):
    """chi_D^{sign}(F) in {-1, 0, 1}; 0 iff gcd(F, D) != 1."""
    if f.is_zero():
        raise ValueError("character of the zero polynomial is undefined")
    val = ffpoly.jacobi_symbol(f, chi.modulus)
    if chi.sign == MINUS and val and f.degree % 2 == 1:
        val = -val
    return val


@dataclass(frozen=True)
class LPoly:
    """Integer-coefficient L-polynomial data for one character.

    Raw form: coefficients c_0..c_{deg D - 1} with c_0 = 1.  Completed
    form: degree exactly 2*delta = deg(D) - 1 - lambda, satisfying the
    functional equation coefficient symmetry.
    """

    coeffs: tuple
    modulus_degree: int
    sign: int
    completed: bool
    q: int

    @property
    def lam(self):
        return 1 if self.modulus_degree % 2 == 0 else 0

    @property
    def delta(self):
        d = self.modulus_degree - 1 - self.lam
        if d % 2:
            raise InvariantError(f"odd degree {d} left after removing lambda")
        return d // 2

    @property
    def degree(self):
        n = len(self.coeffs)
        while n and self.coeffs[n - 1] == 0:
            n -= 1
        return n - 1

    def evaluate(self, u):
        """Exact evaluation at a rational point."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * u + c
        return acc


@dataclass(frozen=True)
class FrobeniusData:
    """Exact power sums t_n = q^{n/2} Tr(Theta^n) of the unitarized
    Frobenius class."""

    delta: int
    q: int
    t: tuple  # t[n-1] = t_n, exact ints

    def trace(self, n):
        """Tr(Theta^n) as a float."""
        return self.t[n - 1] / self.q ** (n / 2)


def _modulus_plan(D, max_deg):
    """(T, factors, plan): the tables reaching max_deg >= deg D, the prime
    factors of the monic D as PolyTables.factor lists them, and their
    CharPlan.  ValueError for a D that is not square-free, and for tables
    over SIEVE_BYTES_CAP, before any is built."""
    T = poly_tables(D.field, max_deg)
    factors = T.factor(int(D.degree), D.monic_code())
    if factors is None:
        raise ValueError("modulus must be square-free")
    return T, factors, CharPlan([factors])


def l_polynomial(chi):
    """Raw L-polynomial: coefficient d < deg D is the sum of chi over the
    monic polynomials of degree d, sign^d times one PolyTables.char_sums
    pass of chi_D^+ over their rows.  Its tables reach deg D, so a modulus
    whose sieve passes SIEVE_BYTES_CAP raises ValueError before any is
    built."""
    deg = int(chi.modulus.degree)
    T, _, plan = _modulus_plan(chi.modulus, deg)
    coeffs = [chi.sign ** d * int(T.char_sums(T.monic_coefmat(d), plan)[0]) for d in range(deg)]
    if coeffs[0] != 1:
        raise InvariantError("constant coefficient of L must be 1")
    return LPoly(tuple(coeffs), deg, chi.sign, completed=False, q=chi.field.q)


def _exact(rows, bound):
    """rows as an int64 array when bound, a bound on every value computed
    from them, is below 2^63, else as an object array of Python ints:
    the arithmetic on them is exact either way."""
    return np.asarray(rows, dtype=np.int64 if bound < 1 << 63 else object)


def _largest(rows):
    """max |entry| of an int array (int64 or object), 0 when empty."""
    return int(np.abs(rows).max(initial=0))


def _complete_rows(raw, deg, sign):
    """complete_l of every row of raw, the ascending coefficients of raw
    L-polynomials of modulus degree deg and this sign (an (m, n) int
    array): (lstar, problems), lstar an (m, deg - lambda) array and
    problems[i] None or the message complete_l raises for row i.

    Dividing by 1 - s u (s = sign) is out_i = c_i + s out_(i-1), that is
    out_i = s^i sum_(j <= i) s^j c_j, one cumulative sum; it is exact when
    the full sum closes to zero.  Then the coefficients above 2 delta must
    vanish and the one at 2 delta must not."""
    lam = 1 if deg % 2 == 0 else 0
    c = _exact(raw, max(1, np.shape(raw)[1]) * _largest(raw))
    fail = np.zeros(len(c), dtype=object)
    if lam:
        twist = sign ** np.arange(c.shape[1])
        acc = np.cumsum(c * twist, axis=1)
        fail[(acc[:, -1:] != 0).any(axis=1)] = "non-exact division by trivial-zero factor"
        c = (acc * twist)[:, :-1]
    target = deg - 1 - lam
    exceeds = (c[:, target + 1:] != 0).any(axis=1)
    fail[(fail == 0) & exceeds] = "completed L-polynomial exceeds degree 2*delta"
    c = c[:, :target + 1]
    wrong = c[:, -1] == 0 if c.shape[1] == target + 1 else np.ones(len(c), dtype=bool)
    fail[(fail == 0) & wrong] = "completed L-polynomial has wrong degree"
    return c, [msg or None for msg in fail.tolist()]


def complete_l(lpoly):
    """Divide out the trivial zero: by (1-u)^lambda for the plus sign,
    (1+u)^lambda for the minus sign.  The division must be exact in
    integer arithmetic; a nonzero remainder means an upstream bug.  One
    row of _complete_rows."""
    if lpoly.completed:
        return lpoly
    rows, fail = _complete_rows(np.array([lpoly.coeffs], dtype=object).reshape(1, -1),
                                lpoly.modulus_degree, lpoly.sign)
    if fail[0]:
        raise InvariantError(fail[0])
    return LPoly(tuple(rows[0].tolist()), lpoly.modulus_degree, lpoly.sign, completed=True,
                 q=lpoly.q)


def _functional_equation_rows(rows, q, delta):
    """Whether each row c of rows (ascending coefficients, at least
    2 delta + 1 of them) has c_j q^delta = q^j c_(2 delta - j) for every
    j <= 2 delta: a bool array."""
    c = rows[:, :2 * delta + 1]
    c = _exact(c, _largest(c) * q ** (2 * delta))
    powers = _exact([q ** j for j in range(2 * delta + 1)], q ** (2 * delta))
    return (c * q ** delta == powers * c[:, ::-1]).all(axis=1)


def functional_equation_ok(lstar, q):
    """Exact coefficient symmetry c_j = q^{j-delta} c_{2delta-j}; one row
    of _functional_equation_rows."""
    rows = np.array([lstar.coeffs], dtype=object).reshape(1, -1)
    return bool(_functional_equation_rows(rows, q, lstar.delta)[0])


def frobenius_traces(lstar, n_max):
    """Newton's identities on the completed coefficients.

    With L*(u) = prod(1 - gamma_i u), t_n = sum gamma_i^n satisfies
    t_n = -(sum_{i=1..min(n-1,N)} c_i t_{n-i}) - n*c_n   (c_n = 0, n > N).
    """
    if not lstar.completed:
        raise ValueError("frobenius_traces needs a completed L-polynomial")
    return FrobeniusData(lstar.delta, lstar.q, power_sums(lstar.coeffs, n_max))


def _newton_rows(rows, n_max):
    """Power sums t_1..t_(n_max) of the reciprocal roots of each row c of
    rows (ascending coefficients, c_0 = 1), by Newton's identities: an
    (m, n_max) int array, exact.

    With C_i the largest |c_i|, U_n = sum_(1 <= i <= min(n-1, N)) C_i
    U_(n-i) + n C_n (C_n = 0 for n > N), the recurrence with every term in
    absolute value, bounds |t_n|, each term c_i t_(n-i) and each partial
    sum, by induction.  The rows are int64 while every C_i and U_n is
    below 2^63, else Python ints."""
    N = rows.shape[1] - 1
    C, U = np.abs(rows).max(axis=0, initial=0).tolist(), []
    for n in range(1, n_max + 1):
        U.append(sum(C[i] * U[n - 1 - i] for i in range(1, min(n - 1, N) + 1)) + (n * C[n] if n <= N else 0))
    c = _exact(rows, max([*C, *U]))
    t = np.zeros((len(c), n_max), dtype=c.dtype)
    for n in range(1, n_max + 1):
        k = min(n - 1, N)
        acc = (c[:, 1:k + 1] * t[:, n - 1 - k:n - 1][:, ::-1]).sum(axis=1)
        t[:, n - 1] = -(acc + n * c[:, n]) if n <= N else -acc
    return t


def _functional_rows(t, G, q, n_max):
    """(c, s) for each row of t, whose first G columns are the power sums
    t_1..t_G of a polynomial c of degree 2G with c_0 = 1 and the functional
    equation c_(2G-j) = q^(G-j) c_j: its coefficients as an (m, 2G + 1)
    int array and its power sums t_1..t_(n_max) (_newton_rows).

    c_1..c_G come from Newton's identities run backwards,
    k c_k = -(t_k + sum_(1 <= i < k) c_i t_(k-i)), where each division
    must be exact (InvariantError), and the rest from the functional
    equation.  With T_k the largest |t_k|, V_k = T_k + sum_(i < k) C_i
    T_(k-i) bounds the right side and its partial sums and C_k = V_k // k
    bounds |c_k|, so the rows are int64 while every V_k and q^(G-j) C_j is
    below 2^63, else Python ints."""
    T = np.abs(t[:, :G]).max(axis=0, initial=0).tolist()
    C, V = [1], []
    for k in range(1, G + 1):
        V.append(T[k - 1] + sum(C[i] * T[k - 1 - i] for i in range(1, k)))
        C.append(V[-1] // k)
    t = _exact(t[:, :G], max([*V, *(q ** (G - j) * C[j] for j in range(G + 1))]))
    c = np.zeros((len(t), 2 * G + 1), dtype=t.dtype)
    c[:, 0] = 1
    for k in range(1, G + 1):
        acc = t[:, k - 1] + (c[:, 1:k] * t[:, :k - 1][:, ::-1]).sum(axis=1)
        if (acc % k).any():
            raise InvariantError("Newton inversion not integral")
        c[:, k] = -(acc // k)
    for j in range(G):
        c[:, 2 * G - j] = q ** (G - j) * c[:, j]
    return c, _newton_rows(c, n_max)


def power_sums(c, n_max):
    """Power sums t_1..t_{n_max} of the reciprocal roots of the ascending
    coefficient tuple c (c_0 = 1), by Newton's identities; exact ints.
    One row of _newton_rows."""
    return tuple(_newton_rows(np.array([c], dtype=object).reshape(1, -1), n_max)[0].tolist())


def _rational_gcd(a, b):
    """Euclidean gcd of two rational coefficient lists (scale arbitrary)."""

    def trim(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    a = trim([Fraction(c) for c in a])
    b = trim([Fraction(c) for c in b])
    while b:
        while len(a) >= len(b):
            c = a[-1] / b[-1]
            off = len(a) - len(b)
            for i in range(len(b)):
                a[off + i] -= c * b[i]
            a = trim(a)
            if not a:
                break
        a, b = b, a
    return a


#: the prime modulo which squarefree_part first takes its gcd, 2^31 - 1:
#: a product of two residues is below 2^62
_GCD_PRIME = (1 << 31) - 1


def _coprime_rows(rows):
    """For each row c of rows (an (m, n) int array, int64 or object,
    constant term first): True when P = _GCD_PRIME divides neither the
    leading coefficient of c nor that of c', and the remainder sequence
    of c and c' over F_P, each remainder of degree one less than its
    divisor, ends in a nonzero constant, so that their gcd over F_P is
    one; False otherwise, also where a remainder drops two degrees at
    once.  All rows step together in int64: residues are below 2^31, so
    every product and every difference of two products is below 2^62.
    The remainders are pseudo-remainders, the divisor's leading
    coefficient times the dividend, which keeps them over F_P free of
    inverses and changes no degree."""
    P = _GCD_PRIME
    a = (np.asarray(rows) % P).astype(np.int64)
    b = a[:, 1:] * np.arange(1, a.shape[1]) % P
    ok = (a[:, -1] != 0) & (b[:, -1] != 0) if b.shape[1] else np.zeros(len(a), dtype=bool)
    while b.shape[1] > 1:
        # a has degree L and b degree L - 1: cancel a's X^L against X b,
        # then the X^(L-1) left against b
        top = b[:, -1:]
        r = top * a[:, :-1] % P
        r[:, 1:] = (r[:, 1:] - a[:, -1:] * b[:, :-1]) % P
        r = ((top * r - r[:, -1:] * b) % P)[:, :-1]
        ok &= r[:, -1] != 0
        a, b = b, r
    return ok


def squarefree_part(coeffs):
    """coeffs / gcd(coeffs, coeffs'), exact; same root set, all simple.

    Normalized to constant term 1 (which our L* and zeta-numerator
    polynomials always have, their roots being nonzero).

    Integer coefficients first go through the gcd modulo the prime
    P = 2^31 - 1 (_coprime_rows).  Let c have integer coefficients, and let
    P divide neither the leading coefficient of c nor that of c'.  If the
    rational gcd g of c and c' had degree >= 1, take it primitive in Z[X].
    By Gauss's lemma it divides c and c' in Z[X], so its leading
    coefficient divides that of c, and P does not divide it.  Reduced mod
    P, g then keeps its degree and divides both reductions, so their gcd
    over F_P has degree >= 1.  Hence a gcd mod P that is a nonzero
    constant proves that the rational gcd is 1, and coeffs come back
    unchanged, as the Fraction path returns them in that case.  Every
    other input (a repeated factor, P dividing a leading coefficient, a
    remainder sequence mod P that drops two degrees at once, coefficients
    that are not ints) takes the Fraction path."""
    c = list(coeffs)
    if all(isinstance(x, numbers.Integral) for x in c) and _coprime_rows(
            np.array([c], dtype=object).reshape(1, -1))[0]:
        return tuple(coeffs)
    return _rational_squarefree_part(c, [i * c[i] for i in range(1, len(c))])


def _rational_squarefree_part(c, dc):
    """squarefree_part of the coefficient list c, whose derivative is dc,
    by Euclid's algorithm over Fractions."""
    g = _rational_gcd(c, dc)
    if len(g) <= 1:
        return tuple(c)
    a = [Fraction(x) for x in c]
    out = []
    for i in range(len(a) - 1, len(g) - 2, -1):
        q_ = a[i] / g[-1]
        out.append(q_)
        for j in range(len(g)):
            a[i - len(g) + 1 + j] -= q_ * g[j]
    out.reverse()
    if out[0] == 0:
        raise InvariantError("square-free part lost its constant term")
    return tuple(x / out[0] for x in out)


def _rh_rows(rows, q):
    """max_i | |gamma_i|/sqrt(q) - 1 | for each row of the (m, n) int
    array rows (ascending coefficients), 0.0 for degree <= 0: a float
    array.

    Repeated roots wreck double-precision root finding, so the roots are
    those of the exact square-free part (same root set, simple roots),
    and they come as np.roots finds them: its leading zeros (zero low
    coefficients here) dropped, its trailing ones (zero top coefficients)
    zero roots, and the eigenvalues of the companion matrix of what is
    left, whose first row is -p[1:] / p[0], from one np.linalg.eigvals
    over the stacked matrices of each size, the same LAPACK call per
    matrix.  A row _coprime_rows proves square-free, with nonzero ends,
    is its own square-free part with nothing to drop; the other rows go
    through squarefree_part one at a time."""
    dev = np.zeros(len(rows))
    plain = _coprime_rows(rows) & (rows[:, :1] != 0).all(axis=1)
    p = np.asarray(rows[plain], dtype=float)
    at = np.flatnonzero(plain).tolist()
    groups = {rows.shape[1] - 1: (at, [0] * len(at), list(-p[:, 1:] / p[:, :1]))}
    for i in np.flatnonzero(~plain).tolist():
        c = rows[i].tolist()
        if max((j for j, x in enumerate(c) if x), default=0) <= 0:
            continue
        p = np.array([float(x) for x in squarefree_part(c)])
        nonzero = np.flatnonzero(p)
        if len(nonzero):
            zeros = len(p) - 1 - nonzero[-1]
            p = p[nonzero[0]:nonzero[-1] + 1]
            for part, value in zip(groups.setdefault(len(p) - 1, ([], [], [])), (i, zeros, -p[1:] / p[0])):
                part.append(value)
    scale = math.sqrt(q)
    for size, (at, zeros, first) in groups.items():
        if not at:
            continue
        if size:
            A = np.zeros((len(at), size, size))
            A[:, 0] = first
            A[:, np.arange(1, size), np.arange(size - 1)] = 1.0
            worst = np.max(np.abs(np.abs(np.linalg.eigvals(A)) / scale - 1.0), axis=1)
        else:
            worst = np.zeros(len(at))
        # a zero root reads |0 / sqrt(q) - 1| = 1
        dev[at] = np.where(np.array(zeros) > 0, np.maximum(worst, 1.0), worst)
    return dev


def rh_max_deviation(lstar, q):
    """max_i | |gamma_i|/sqrt(q) - 1 |, zero for delta = 0; one row of
    _rh_rows."""
    return float(_rh_rows(np.array([lstar.coeffs], dtype=object).reshape(1, -1), q)[0])


def prime_char_sum(chi_or_modulus, n):
    """s_n(D) = sum over monic primes P of degree n of chi_D(P) (plus sign),
    one PolyTables.char_sums pass over the primes of degree n; ValueError
    for a D that is not monic and square-free."""
    D = chi_or_modulus.modulus if isinstance(chi_or_modulus, QuadChar) else chi_or_modulus
    T, _, plan = _modulus_plan(D, max(n, int(D.degree)))
    return int(T.char_sums(T.prime_coefmat(n), plan)[0])


def explicit_formula_trace(chi, n):
    """lambda + sum_{deg F = n} Lambda(F) chi(F), an exact integer.

    Grouped over prime powers P^k, deg P = d, k = n / d: Lambda(P^k) = d,
    and chi(P)^k is chi(P) = sign^d (P/D) for odd k, and 1 unless P | D for
    even k, so the sum is d times sign^d s_d(D), one PolyTables.char_sums
    pass over the primes of degree d, or the count of degree-d primes
    prime to D.  Equals -t_n of
    `frobenius_traces` for every valid modulus; the test suite pins this.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    deg = int(chi.modulus.degree)
    T, factors, plan = _modulus_plan(chi.modulus, max(n, deg))
    total = 1 if deg % 2 == 0 else 0
    for d in range(1, n + 1):
        if n % d:
            continue
        if (n // d) % 2:
            total += d * chi.sign ** d * int(T.char_sums(T.prime_coefmat(d), plan)[0])
        else:
            total += d * (ffpoly.prime_count_exact(T.q, d) - sum(a == d for a, _ in factors))
    return total


def completed_prime_sums(sums, d, q, top):
    """s_a = sum of (Q/P) over the monic primes Q of degree a, a = 1..top,
    for monic primes P of degree d, from the first G = (d-1)//2 columns of
    sums (an int array, one row per P, s_1..s_G): an (m, top) int array.

    L(u, chi_P) = (1 - u)^lambda L*(u), lambda = [d even], where L* has
    degree 2G and the functional equation, so t_n(L) = t_n(L*) + lambda and
    L* is fixed by t_1..t_G (_functional_rows).  The explicit formula
    -t_n(L) = sum_(b | n) b e_b, e_b = s_b for n/b odd and pi_q(b) - [b = d]
    for n/b even (explicit_formula_trace), gives t_1..t_G from the s, and
    each s_n past G from t_n(L): the division by n must be exact, and
    |s_n| <= pi_q(n) - [n = d] with pi_q(n) - [n = d] + s_n even, so that
    N+- = (pi_q(n) - [n = d] +- s_n) / 2 lie in 0..pi_q(n); a failure
    raises InvariantError.  The given s are checked the same way, so
    |t_n(L)| <= sum_(b | n) b pi_q(b) = q^n for n <= G and every partial
    sum past G is at most q^top plus the largest |t_n(L)|: the sums are
    int64 below 2^63, else Python ints."""
    G, lam = (d - 1) // 2, 1 - d % 2
    even = [ffpoly.prime_count_exact(q, b) - (b == d) if b else 0 for b in range(top + 1)]

    def rest(s, n):
        return sum(b * (s[:, b - 1] if n // b % 2 else even[b]) for b in range(1, n) if n % b == 0)

    def check(s, n):
        if (np.abs(s[:, n - 1]) > even[n]).any() or ((s[:, n - 1] + even[n]) % 2).any():
            raise InvariantError(f"prime counts of degree {n} outside 0..pi_q({n})")

    s = _exact(sums[:, :G], q ** G + lam)
    t = np.zeros((len(s), G), dtype=s.dtype)
    for n in range(1, G + 1):
        check(s, n)
        t[:, n - 1] = -(n * s[:, n - 1] + rest(s, n)) - lam
    t = _functional_rows(t, G, q, top)[1]
    t = _exact(t, _largest(t) + lam + q ** top)
    out = np.zeros((len(s), top), dtype=t.dtype)
    out[:, :G] = s
    for n in range(G + 1, top + 1):
        num = -(t[:, n - 1] + lam) - rest(out, n)
        if (num % n).any():
            raise InvariantError(f"explicit formula not integral at degree {n}")
        out[:, n - 1] = num // n
        check(out, n)
    return out


def zeta_q_value(q, s):
    """zeta_q(s) = 1/(1 - q^(1-s)) exactly, for integer s >= 2."""
    if s <= 1:
        raise ValueError("zeta_q has a pole at s = 1; need s >= 2")
    return Fraction(q ** (s - 1), q ** (s - 1) - 1)


def l_data(chi, n_max=8):
    """Convenience bundle: raw L, completed L, traces, RH deviation."""
    raw = l_polynomial(chi)
    lstar = complete_l(raw)
    frob = frobenius_traces(lstar, n_max)
    dev = rh_max_deviation(lstar, chi.field.q)
    return raw, lstar, frob, dev


# ---------------------------------------------------------------------------
# Batched catalog verification
# ---------------------------------------------------------------------------


def _check_rows(plus, minus, deg, q, n_max, rh_tol):
    """The checks of l_suite that depend on a modulus only through its raw
    L-polynomial (plus sign) and its minus twist, for the moduli of
    degree deg whose raws are the rows of plus and minus ((m, deg) int
    arrays), in one pass over all rows: completion, the functional
    equation of both signs, the Newton traces of both and the minus
    relation t_n(minus) = (-1)^n t_n(plus), and the RH deviation.
    Returns (lstar, t_plus, dev, problems), lists of one entry per row:
    the completed plus coefficients and traces as int tuples, the
    deviation, and the failure messages without a modulus label.  A
    completion failure (plus first) is the row's one problem and leaves
    its lstar, t_plus and dev None.  Completion leaves L* of degree
    exactly 2 delta = deg - 1 - lambda, so that needs no check of its
    own."""
    lstar, fail = _complete_rows(plus, deg, PLUS)
    lstar_minus, fail_minus = _complete_rows(minus, deg, MINUS)
    kept = [i for i, (a, b) in enumerate(zip(fail, fail_minus)) if not (a or b)]
    lstar, lstar_minus = lstar[kept], lstar_minus[kept]
    delta = (lstar.shape[1] - 1) // 2
    t_plus = _newton_rows(lstar, n_max)
    twisted = _newton_rows(lstar_minus, n_max) * (-1) ** np.arange(1, n_max + 1)
    checks = [(_functional_equation_rows(lstar, q, delta), "functional equation (plus)"),
              (_functional_equation_rows(lstar_minus, q, delta), "functional equation (minus)"),
              ((twisted == t_plus).all(axis=1), "minus traces != (-1)^n plus traces")]
    deviations = _rh_rows(lstar, q).tolist()
    coeffs, traces, dev = [None] * len(plus), [None] * len(plus), [None] * len(plus)
    problems = [[a or b] for a, b in zip(fail, fail_minus)]
    for j, (i, c, t) in enumerate(zip(kept, lstar.tolist(), t_plus.tolist())):
        coeffs[i], traces[i], dev[i] = tuple(c), tuple(t), deviations[j]
        problems[i] = [msg for ok, msg in checks if not ok[j]]
        if dev[i] >= rh_tol:
            problems[i].append(f"RH deviation {dev[i]:.2e}")
    return coeffs, traces, dev, problems


@dataclass
class SuiteReport:
    """Aggregate results of the full-catalog L-function verification."""

    q: int
    max_deg: int
    n_max: int
    moduli: int
    failures: list
    rh_max_dev: float
    prime_sum_bound_max: float  # max of s_n^2 / (degD^2 q^n) over catalog

    def ok(self):
        return not self.failures


def _affine_index(T, degs, codes):
    """Catalogue positions of u^-d D(uX + v), for each entry D of degree d
    of a catalogue given by its degrees and codes, every u in F_q^* and
    every v in F_q: a (2, (q - 1)/2, q, len(codes)) int64 array, the u
    that are squares at [0] and the others at [1], v by its element code.
    InvariantError when an image is missing from the catalogue, so no
    position is ever -1."""
    units = sorted(range(1, T.q), key=lambda u: -T.field.chi2(u))
    index = np.empty((T.q - 1, T.q, len(codes)), dtype=np.int64)
    for d in sorted(set(degs.tolist())):  # np.unique would import numpy.ma
        at = np.flatnonzero(degs == d)
        place = np.full(T.q ** d, -1, dtype=np.int64)
        place[codes[at]] = at
        index[:, :, at] = place[T.affine_codes(d, codes[at], units, range(T.q))]
    if (index < 0).any():
        raise InvariantError("l_suite: an image u^-d D(uX + v) is missing from the catalogue")
    return index.reshape(2, (T.q - 1) // 2, T.q, len(codes))


def _orbit_representatives(T, n, codes):
    """(at, weights): the positions, in these ascending codes of monic
    polynomials of degree n (all of them, or the primes), of one member
    of each orbit of the scalings F -> c^-n F(cX) among the codes with
    X^(n-1) coefficient 0 (those below q^(n-1), a prefix), or among all
    codes where p | n; the least code of each orbit, weighted by the
    orbit size (q - 1)/|Stab|."""
    head = codes if n % T.p == 0 else codes[:int(np.searchsorted(codes, T.q ** (n - 1)))]
    images = T.affine_codes(n, head, range(1, T.q), [0])[:, 0]
    at = np.flatnonzero((images >= head).all(axis=0))
    return at, (T.q - 1) // (images[:, at] == head[at]).sum(axis=0)


def _orbit_sums(T, rows, plan, index, degs):
    """sums[i, D] = sum of chi_D(F) over the monic polynomials F of degree
    n with these ascending codes (all of them, or the primes), for each
    (n, codes) of rows and every D of plan, a catalogue of these degrees
    whose _affine_index is index (l_suite).  One weighted, segmented
    char_sums pass over the rows of the _orbit_representatives of every
    (n, codes), zero-padded to the widest, gives H[i]; the sum at D is

        sum_(u, v) chi_q(u)^(n deg D) H[i, u^-d D(uX + v)] / (q - 1),

    v over F_q where p does not divide n, v = 0 where it does.
    InvariantError when the orbit sizes do not add up to the rows or a
    sum does not divide exactly."""
    reps = [_orbit_representatives(T, n, codes) for n, codes in rows]
    for (n, codes), (_, weights) in zip(rows, reps):
        folds = 1 if n % T.p == 0 else T.q  # the translates of each row
        if folds * int(weights.sum()) != len(codes):
            raise InvariantError(
                f"l_suite: orbit representatives of degree {n} have orbit sizes adding up to "
                f"{folds * int(weights.sum())}, not the {len(codes)} rows at q={T.q}")
    ns = np.repeat([n for n, _ in rows], [len(at) for at, _ in reps])
    mat = T.code_rows(ns, np.concatenate([codes[at] for (_, codes), (at, _) in zip(rows, reps)]))
    H = T.char_sums(mat, plan, np.concatenate([weights for _, weights in reps]),
                    segments=[len(at) for at, _ in reps])
    sums = np.empty((len(rows), len(degs)), dtype=np.int64)
    for i, (n, _) in enumerate(rows):
        square, other = H[i][index if n % T.p else index[:, :, :1]].sum(axis=(1, 2))
        sums[i], rest = np.divmod(square + np.where(n * degs % 2, -other, other), T.q - 1)
        if rest.any():
            raise InvariantError(f"l_suite: a folded sum of degree {n} does not divide by q - 1 = {T.q - 1}")
    return sums


def l_suite(q, max_deg=6, n_max=8, rh_tol=1e-9, collect=None):
    """Verify the whole catalog of square-free monic moduli of degree
    1..max_deg over F_q, for any odd prime power q = p^e, with the
    canonical field of ffpoly.GF: exact completion, degree bookkeeping,
    functional equation, RH root moduli, minus-sign relation, vanishing
    of coefficients at degree >= deg D, and explicit-formula traces
    against Newton traces for n <= n_max.  Returns a SuiteReport.

    The character sums come from two PolyTables.char_sums passes over
    the whole catalogue, with one CharPlan for both: phase 1 over the
    monic rows of every degree d <= max_deg (the raw coefficients),
    phase 2 over the prime rows of every degree n <= n_max (the s_n(D)
    of the explicit formula), each over one row per orbit of the affine
    fold below.  A pass stacks the rows of all its degrees in one
    zero-padded matrix, the explicit leading 1 keeping each row's
    polynomial, with one segment per degree, and returns one row of sums
    per segment (_orbit_sums).  Each pass reads the Legendre symbols of
    every prime factor in stacked legendre_array calls and multiplies
    them out in Gram blocks (see _tables), whose floor-only kernel is
    exact while the bounds of PolyTables.float_type hold (float32 or
    float64); beyond them, for D = max(n_max, max_deg), the tables raise
    ValueError.

    The affine fold.  For u in F_q^* and v in F_q, s: X -> uX + v is a
    ring automorphism of F_q[X] that fixes F_q, and F(uX + v) has leading
    coefficient u^n for F of degree n; write F^s = u^-n F(uX + v) for the
    monic one.  F -> F^s is an action of the affine group that permutes
    the monic polynomials of degree n and the monic primes among them,
    and maps the square-free monic D of each degree onto themselves, so
    the catalogue is closed under it.  Two facts about Jacobi symbols:
    - (s A / s B) = (A / B): s maps F_q[X]/(Q) onto F_q[X]/(s Q), a ring
      isomorphism, and keeps which units are squares.
    - A constant c has (c / B) = chi_q(c)^(deg B) for monic B: at a prime
      Q of degree k, c^((q^k - 1)/2) = (c^((q - 1)/2))^(1 + q + ... +
      q^(k-1)), an exponent of the parity of k.  And (A / cB) = (A / B).
    So for monic R of degree n, (R / D) = (u^n R^s / u^(deg D) D^s), that
    is

        chi_(D^s)(R^s) = chi_q(u)^(n deg D) chi_D(R).

    Let G_n be the affine group where p does not divide n, the scalings
    X -> uX alone where p | n.  Where p does not divide n, the X^(n-1)
    coefficient of F(X + a) is c_(n-1) + n a and n is a unit, so the
    translates of F are q distinct rows and exactly one has X^(n-1)
    coefficient 0 (the codes below q^(n-1)); a scaling maps that
    coefficient to c_(n-1) / u, so the rows of coefficient 0 are closed
    under the scalings, and a map X -> uX + v fixing one of them has
    n v / u = 0, v = 0.  Where p | n the scalings act on every row.  In
    both cases the representatives R are the least codes of the scaling
    orbits of those rows (_orbit_representatives), and R's stabilizer in
    G_n is its stabilizer in F_q^*.  Its weight w(R) = (q - 1)/|Stab R|
    is the size of its scaling orbit, so the weights add up to the rows
    of coefficient 0, or to all rows where p | n; InvariantError
    otherwise.  Each row is R^g for |Stab R| of the g in G_n, so by the
    identity above, with g -> g^-1 a bijection and chi_q(u^-1) = chi_q(u),

        sum_F chi_D(F) = sum_R (1/|Stab R|) sum_(g in G_n) chi_D(R^g)
                       = sum_(g in G_n) chi_q(u_g)^(n deg D) H[D^g] / (q - 1),
        H[E] = sum_R w(R) chi_E(R),

    where H is one PolyTables.char_sums pass over the representatives
    with weights w, exact in integers (_orbit_sums).  The sum over G_n
    is then divided exactly once; a remainder raises InvariantError.  The
    catalogue positions of the D^g come from the index _affine_index
    builds once per call, each image run through the table's kernel
    (PolyTables.affine_codes), and a missing one raises InvariantError.
    Phase 2 folds over the whole catalogue and then keeps the
    records' columns, so a modulus whose completion fails leaves the sums
    of its images intact.

    The checks of phase 1 run once per distinct raw L-polynomial, in one
    batched call per modulus degree (_check_rows), with one frozen LPoly
    shared by every modulus with those coefficients, and the vanishing
    of the coefficients at degree >= deg D, the explicit
    formula of phase 3 and the prime-sum bound are int64 array operations
    over all records; failures come out per modulus in catalogue order,
    and the bound is the exact ratio of the largest |s_n| of each degree
    of D, divided in exact ints.

    `collect`, if given, is called with each record dict (used by tests
    to cross-check samples against the scalar path).
    """
    T = poly_tables(ffpoly.field_of_order(q), max(n_max, max_deg))
    failures = []
    rh_worst = 0.0

    moduli = []  # (deg, code, factors) of every square-free monic D
    for dd in range(1, max_deg + 1):
        _, rows, pdeg, pcode = T.factor_all(dd)
        factors = list(zip(pdeg.tolist(), pcode.tolist()))
        starts = np.flatnonzero(np.diff(rows, prepend=-1)).tolist()
        for code, lo, hi in zip(rows[starts].tolist(), starts, starts[1:] + [len(rows)]):
            moduli.append((dd, code, factors[lo:hi]))
    plan = CharPlan([factors for _, _, factors in moduli])
    degs = np.array([dd for dd, _, _ in moduli], dtype=np.int64)
    index = _affine_index(T, degs, np.array([code for _, code, _ in moduli], dtype=np.int64))

    # phase 1: raw coefficients, one affine-folded char_sums pass over the
    # monic rows of every degree of F and every modulus; the checks of the
    # distinct raw L-polynomials of each modulus degree (a pure function of
    # the coefficients here) run once, in one batch, each raw and L* one
    # shared LPoly
    sums = _orbit_sums(T, [(d, np.arange(q ** d)) for d in range(max_deg + 1)], plan, index, degs)
    nonzero = (sums != 0) & (np.arange(max_deg + 1)[:, None] >= degs)
    flagged = set(np.flatnonzero(nonzero.any(axis=0)).tolist())
    checked = []  # (raw, lstar, t_plus, dev, problems) per distinct raw
    which = np.empty(len(moduli), dtype=np.int64)  # each modulus's entry
    for dd in range(1, max_deg + 1):
        at = np.flatnonzero(degs == dd)
        distinct, inverse = np.unique(sums[:dd, at].T, axis=0, return_inverse=True)
        which[at] = len(checked) + inverse.reshape(-1)
        results = _check_rows(distinct, distinct * (-1) ** np.arange(dd), dd, q, n_max, rh_tol)
        for coeffs, lstar, t_plus, dev, problems in zip(distinct.tolist(), *results):
            raw = LPoly(tuple(coeffs), dd, PLUS, completed=False, q=q)
            if lstar is not None:
                lstar = LPoly(lstar, dd, PLUS, completed=True, q=q)
                rh_worst = max(rh_worst, dev)
            checked.append((raw, lstar, t_plus, dev, problems))
    records, kept = [], []
    for i, (dd, code, factors) in enumerate(moduli):
        raw, lstar, t_plus, dev, problems = checked[which[i]]
        if i in flagged or problems:
            label = f"D deg={dd} code={code}"
            failures.extend(f"{label}: coefficient at degree {e} nonzero"
                            for e in np.flatnonzero(nonzero[:, i]).tolist())
            failures.extend(f"{label}: {msg}" for msg in problems)
        if lstar is not None:
            kept.append(i)
            records.append({"deg": dd, "code": code, "factors": factors, "raw": raw,
                            "lstar": lstar, "t": t_plus, "lam": raw.lam})

    # phase 2: prime character sums s_d(D) for the explicit formula, one
    # affine-folded char_sums pass over the prime rows of every degree and
    # every modulus, of which the records' are kept
    s_table = _orbit_sums(T, [(d, T.prime_codes[d]) for d in range(1, n_max + 1)],
                          plan, index, degs)[:, kept]

    # phase 3: explicit formula vs Newton over every record at once, in
    # int64: |s_d| <= q^d < 2^53 keeps the explicit side below 2^62, and a
    # Newton trace beyond that range is clamped, so it still differs
    rec_deg = degs[kept]
    lam = (rec_deg % 2 == 0).astype(np.int64)
    top = 1 << 62
    newton = np.array([[max(-top, min(top, -t)) for t in t_plus or (0,) * n_max]
                       for _, _, t_plus, _, _ in checked], dtype=np.int64).reshape(-1, n_max)
    newton = newton[which[kept]].T
    omega = np.zeros((n_max, len(records)), dtype=np.int64)  # factors of degree d
    for i, rec in enumerate(records):
        for a, _ in rec["factors"]:
            if a <= n_max:
                omega[a - 1, i] += 1
    explicit = np.empty_like(newton)
    for n in range(1, n_max + 1):
        acc = lam.copy()
        for d in range(1, n + 1):
            if n % d == 0:
                if (n // d) % 2:
                    acc += d * s_table[d - 1]
                else:
                    acc += d * (ffpoly.prime_count_exact(q, d) - omega[d - 1])
        explicit[n - 1] = acc
    for i, n in zip(*np.nonzero((newton != explicit).T)):
        failures.append(f"D deg={records[i]['deg']} code={records[i]['code']}: explicit formula n={n + 1}")

    # the prime-sum size bound s_n^2 / (degD^2 q^n): rounding is monotone,
    # so the largest float is the exact ratio of the largest |s_n| of each
    # degree of D, divided once in exact ints
    bound_worst = 0.0
    for dd in sorted(set(rec_deg.tolist())):  # np.unique would import numpy.ma
        for n, s_max in enumerate(np.abs(s_table[:, rec_deg == dd]).max(axis=1).tolist(), 1):
            bound_worst = max(bound_worst, s_max ** 2 / (dd ** 2 * q ** n))
    for rec, s in zip(records, s_table.T.tolist()):
        rec["s"] = s
        if collect is not None:
            collect(rec)

    return SuiteReport(
        q=q,
        max_deg=max_deg,
        n_max=n_max,
        moduli=len(records),
        failures=failures,
        rh_max_dev=rh_worst,
        prime_sum_bound_max=bound_worst,
    )
