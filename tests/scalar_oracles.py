"""Scalar reference implementations of the batched paths.

Each function here is the plain computation a batched path in src/ffstat
replaces: trial-division and reciprocity over Poly objects with no
residue tables, and finite-field tables built element by element from
digit-vector products over F_p, with no matrices.  They are slow and
independent of _tables and of the exp/log construction, which is what
makes them oracles.

The point engine evaluates polynomials at every point of F_{q^n}, built
as an ffpoly.ExtensionField, in one batched Horner pass: the character
sums over F_{q^n} as they were before the orbit columns of the monic
primes of degree dividing n replaced them.

The member-row scans at the end are the exception: they read chi rows of
the residue tables and of the point engine, but sum them member by member
over the rows of outer_and_family (and, for N_{k1,k2}, over triples tested
by disjoint prime-factor bitmasks), so they check the pair weights that
replace them.  outer_and_family lists every member at once from the
coprimality masks, independent of the unranking in biquad.
"""

import functools
import math
from types import SimpleNamespace

import numpy as np

from ffstat import biquad, ffpoly, lfunc, moments
from ffstat._tables import CharPlan, poly_tables
from ffstat.errors import InvariantError
from ffstat.ffpoly import Poly


class _Infinity:
    """Point at infinity on P^1; a unique sentinel, not a number."""

    def __repr__(self):
        return "INFINITY"


INFINITY = _Infinity()


@functools.lru_cache(maxsize=None)
def prime_list(field, d):
    """Monic primes of degree d via an Eratosthenes-style sieve on codes:
    every product of a lower-degree prime with a monic is crossed out."""
    q = field.q
    if d == 1:
        return tuple(Poly(field, (c, 1)) for c in range(q))
    composite = bytearray(q ** d)
    for a in range(1, d // 2 + 1):
        for p in prime_list(field, a):
            for m in ffpoly.monic_polys(field, d - a):
                composite[(p * m).monic_code()] = 1
    return tuple(Poly.monic_from_code(field, d, code) for code in range(q ** d)
                 if not composite[code])


def xpow_rows(T, qkey, n):
    """The digits of alpha^u (X^j mod Q) for one prime Q of a PolyTables T,
    built on its own: an (n, 2e - 1, k e) array, [j, u] those of
    alpha^u X^j mod Q, from the powers of Q's companion matrix with F.mul
    lists for its last row; PolyTables._xrow_batch builds every prime of
    a degree in one batched pass."""
    k, code = qkey
    F, e, p = T.field, T.e, T.p
    K = k * e
    C = np.eye(K, K, e, dtype=np.int64)
    neg_q = [F.neg(c) for c in ffpoly._decode_digits(code, k, T.q)]
    C[K - e:] = T._element_rows([[F.mul(a, c) for c in neg_q] for a in T._alpha[:e]], e)
    rows = ffpoly._power_rows(np.eye(e, K, dtype=np.int64), C, n * e, p).reshape(n, e, K)
    blocks = [rows]
    for a in T._alpha[e:]:
        M = T._element_rows([F.mul(a, t) for t in T._alpha[:e]], e)
        blocks.append((rows[:, 0].reshape(n, k, e) @ M % p).reshape(n, 1, K))
    return np.concatenate(blocks, axis=1)


def chi_rows(polys, primes):
    """int8 rows chi_P(f) over polys, one per P in primes, by reciprocity
    (the rows of table_chi_rows)."""
    return [np.array([ffpoly.jacobi_symbol(f, P) for f in polys], dtype=np.int8)
            for P in primes]


def chi_plain_rows(P, max_deg):
    """Row d-1 holds (Q/P) over the monic primes Q of degree d, by
    reciprocity over the scalar sieve (eulerprod.chi_plain_rows)."""
    return tuple(np.array([ffpoly.jacobi_symbol(Q, P) for Q in prime_list(P.field, d)],
                          dtype=np.int8)
                 for d in range(1, max_deg + 1))


def coef_rows(T, polys):
    """Digit rows of arbitrary polynomials for the PolyTables T, zero-padded
    to the widest, in the float type T.float_type gives that width."""
    width = max(len(f.coeffs) for f in polys)
    codes = np.zeros((len(polys), width), dtype=np.int64)
    for i, f in enumerate(polys):
        codes[i, : len(f.coeffs)] = f.coeffs
    return T._element_rows(codes, len(polys)).astype(T.float_type(width))


def table_chi_rows(polys, primes):
    """int8 matrix [P, f] = chi_P(f) over polys, one row per P in primes,
    read off the residue tables in one stacked call."""
    T = poly_tables(polys[0].field, max(int(P.degree) for P in primes))
    return T.legendre_array(coef_rows(T, polys), [(int(P.degree), P.monic_code()) for P in primes])


def double_char_sum(field, d, n):
    """(n / q^(d + n/2)) * sum_{deg D = d, sq-free} sum_{deg P = n} chi_D(P),
    and the integer double sum, from one char_sums pass."""
    q = field.q
    T = poly_tables(field, max(d, n))
    facs = (T.factor(d, code) for code in range(q ** d))
    total = int(T.char_sums(T.prime_coefmat(n), CharPlan([fac for fac in facs if fac is not None])).sum())
    return n * total / q ** (d + n / 2), total


def nkk_sum(field, P, d, k1, k2):
    """N_{k1,k2}(d;P): one parity class of moments.nkk_sums_all."""
    return moments.nkk_sums_all(field, P, d)[(k1, k2)]


def series_census(field, d):
    """The four parity classes of N_{k1,k2}(d) for chi = 1: moments'
    parity series with every prime at +1, split by parity as
    nkk_sums_all splits a prime's series (not an oracle: the fast path
    the census tests check)."""
    counts = [(0, 0, ffpoly.prime_count_exact(field.q, a)) for a in range(1, d + 1)]
    return moments._parity_classes(moments.parity_series(np.reshape(counts, (1, d, 3)), d)[0], d)


def triple_series(q, counts, D):
    """int64 S[b, i, j, k]: the sum of chi(f1) chi(f2) over the pairwise
    coprime square-free monic (f1, f2, f3) of degrees (i, j, k), i + j + k
    <= D, chi having counts[b, a - 1] = (N-, N0, N+) monic primes of degree
    a with chi = -1, 0, 1 (no others, so an entry is whole when its degrees
    are at most counts.shape[1]).  A prime divides at most one f, so S =
    prod_{a, s} (1 + s (x1^a + x2^a) + x3^a)^N_s, expanded binomially
    into the whole (D + 1)^3 cube: the oracle of moments.parity_series,
    which keeps only its sums by total degree and parity class.  Exact in
    int64: an entry or partial sum is a signed count of distinct triples,
    at most q^D, and a term weight at most N_s^m <= q^(a m); q^D >= 2^63
    raises InvariantError.  Products past D may wrap; they are cleared."""
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


def double_char_total(field, d, n):
    """sum over square-free monic D of degree d and monic primes P of
    degree n of (P/D): the integer behind double_char_sum."""
    return sum(ffpoly.jacobi_symbol(Pr, D)
               for D in ffpoly.enumerate_polys(field, d, "squarefree-monic")
               for Pr in prime_list(field, n))


def mobius_squarefree(f):
    """(mu(f), is_squarefree(f)) with mu = (-1)^r on a unit times r distinct
    primes and 0 otherwise; constants are units with mu = 1."""
    if f.is_zero():
        raise ValueError("mu of the zero polynomial is undefined")
    if f.is_constant():
        return 1, True
    if not ffpoly.is_squarefree(f):
        return 0, False
    return (-1) ** len(ffpoly.factorize(f)), True


def _poly_powmod(base, n, modulus):
    r = Poly.one(base.field)
    base = base % modulus
    while n:
        if n & 1:
            r = (r * base) % modulus
        base = (base * base) % modulus
        n >>= 1
    return r


def legendre_symbol(f, p, method="euler"):
    """(f/p) for p monic irreducible: 0 if p | f, else +-1 by squareness
    of f mod p.

    method="euler" runs the Euler criterion f^((q^deg p - 1)/2) mod p;
    method="reciprocity" runs the Jacobi-symbol reduction, which must
    agree (both are exercised by the test suite).
    """
    if p.is_constant() or not p.is_monic() or not ffpoly.is_irreducible(p):
        raise ValueError("second argument must be monic irreducible")
    if method == "euler":
        r = f % p
        if r.is_zero():
            return 0
        acc = _poly_powmod(r, (f.field.q ** p.degree - 1) // 2, p)
        if acc == Poly.one(f.field):
            return 1
        if acc == Poly.constant(f.field, f.field.neg(1)):
            return -1
        raise InvariantError("Euler criterion did not land on +-1")
    if method == "reciprocity":
        return ffpoly.jacobi_symbol(f, p)
    raise ValueError(f"unknown method {method!r}")


def eval_poly(ext, f, x):
    """f over the base field of the ExtensionField ext evaluated at the code
    x; adding a base-field coefficient changes only the lowest base-q digit."""
    acc = 0
    for c in reversed(f.coeffs):
        acc = ext.mul(acc, x)
        acc += ext.base.add(acc % ext.q, c) - acc % ext.q
    return acc


def quad_char_eval(f, x, ext=None):
    """chi_2(f(x)) for x in P^1(F_{q^n}).

    x is either INFINITY or an element code of `ext` (an ExtensionField
    over f's field; defaults to the degree-1 extension, i.e. the base
    field itself).  chi_2 is the unique quadratic character of the
    evaluation field; at infinity the convention is chi_2(leading
    coefficient) for even-degree f and 0 for odd degree.
    """
    if f.is_zero():
        raise ValueError("character of the zero polynomial is undefined")
    if ext is None:
        ext = extension_field(f.field, 1)
    if x is INFINITY:
        if f.degree % 2 == 1:
            return 0
        return ext.chi2(ext.embed_base(f.leading))
    return ext.chi2(eval_poly(ext, f, x))


# -- the point engine: every point of F_{q^n} in one batched Horner pass ------------


@functools.lru_cache(maxsize=None)
def extension_field(base, n):
    """Cached F_{q^n} with the canonical (least) modulus."""
    return ffpoly.ExtensionField(base, n)


def add_array(F, a, c):
    """a + c in the FiniteField F for every code in the int array a and one
    element c: a gather from F's q x q addition table, as int64 (plain
    addition mod p when e == 1)."""
    if F.e == 1:
        return (a + c) % F.p
    return F._add_table[a, c].astype(np.int64)


def horner(ext, coefs):
    """Codes of f(x) for every code x of ext, one row per row of coefs: the
    base-field coefficient codes of f, highest degree first.  acc * x is
    a gather from the exp table at log acc + log x, with log 0 pointing
    past the doubled exp table onto a trailing 0 (np.take clips there),
    and adding a base-field coefficient changes only the lowest base-q
    digit of acc."""
    q, order = ext.q, ext.order
    expz = np.append(ext._exp, 0)
    logz = ext._log.copy()
    logz[0] = 2 * (order - 1)
    acc = np.repeat(coefs[:, :1], order, axis=1)
    for c in coefs[:, 1:].T:
        logs = logz[acc]
        logs += logz  # log x, as the columns run over every code x
        np.take(expz, logs, out=acc, mode="clip")
        low = acc % q
        acc += add_array(ext.base, low, c[:, None])
        acc -= low
    return acc


def eval_blocks(ext, polys):
    """Yield (start, values) for consecutive blocks of polys, values[i]
    the codes of polys[start + i] at every x of ext.  Blocks hold about
    ffpoly.BLOCK_BYTES of int64 values; polynomials shorter than the
    longest of their block are left-padded with zero coefficients."""
    step = max(1, ffpoly.BLOCK_BYTES // (8 * ext.order))
    for lo in range(0, len(polys), step):
        block = polys[lo:lo + step]
        width = max(1, max(len(f.coeffs) for f in block))
        coefs = np.zeros((len(block), width), dtype=np.int64)
        for i, f in enumerate(block):
            coefs[i, width - len(f.coeffs):] = f.coeffs[::-1]
        yield lo, horner(ext, coefs)


def point_chi_rows(ext, polys):
    """int8 matrix of chi_2(f(x)), one row per polynomial, indexed by x."""
    chi = np.empty((len(polys), ext.order), dtype=np.int8)
    for lo, values in eval_blocks(ext, polys):
        np.take(ext._chi2, values, out=chi[lo:lo + len(values)], mode="clip")
    return chi


def zero_counts(ext, polys):
    """Number of x in ext with f(x) = 0, for each polynomial f."""
    counts = np.empty(len(polys), dtype=np.int64)
    for lo, values in eval_blocks(ext, polys):
        counts[lo:lo + len(values)] = np.count_nonzero(values == 0, axis=1)
    return counts


def subfield_mask(ext, m):
    """Boolean array marking the image of F_{q^m} in ext (requires m | n)."""
    if ext.n % m != 0:
        raise ValueError("not a subfield degree")
    step = (ext.order - 1) // (ext.q ** m - 1)
    mask = np.zeros(ext.order, dtype=bool)
    mask[0] = True
    mask[1:] = ext._log[1:] % step == 0
    return mask


def generating_mask(ext):
    """Boolean array marking the x of ext in no proper subfield."""
    mask = np.ones(ext.order, dtype=bool)
    for d in range(1, ext.n):
        if ext.n % d == 0:
            mask &= ~subfield_mask(ext, d)
    return mask


def chi_blocks(chi, rows):
    """Yield (lo, v1, v2, v3): the int8 chi rows of f1, f2, f3 gathered
    for the members rows[lo:lo + step], in blocks of about
    ffpoly.BLOCK_BYTES per operand."""
    step = max(1, ffpoly.BLOCK_BYTES // chi.shape[1])
    for lo in range(0, len(rows), step):
        yield (lo, *(chi[r] for r in rows[lo:lo + step].T))


def point_traces(field, n, polys, rows, twists):
    """biquad.member_traces over every point of F_{q^n}: the chi rows of the
    polynomials in use (monic Polys, indexed by rows), summed member by
    member, and a twist c entering as chi_{q^n}(c) on all of P^1."""
    ext = extension_field(field, n)
    used, local = np.unique(rows, return_inverse=True)
    rows = local.reshape(np.shape(rows))
    chi = point_chi_rows(ext, [polys[i] for i in used])
    deg = np.array([int(polys[i].degree) for i in used], dtype=np.int64)
    d1, d2, d3 = (deg[rows[:, k]] for k in range(3))
    s13, s23, s12 = ((da + db + 1) % 2 for da, db in ((d1, d3), (d2, d3), (d1, d2)))
    for lo, v1, v2, v3 in chi_blocks(chi, rows):
        hi = lo + len(v1)
        s13[lo:hi] += (v1 * v3).sum(axis=1, dtype=np.int64)
        s23[lo:hi] += (v2 * v3).sum(axis=1, dtype=np.int64)
        s12[lo:hi] += (v1 * v2).sum(axis=1, dtype=np.int64)
    chi_c = np.array([ext.chi2(ext.embed_base(c)) for c in range(field.q)], dtype=np.int64)
    x1, x2 = chi_c[twists[:, 0]], chi_c[twists[:, 1]]
    return -(x1 * s13 + x2 * s23 + x1 * x2 * s12)


def trial_factors(f):
    """The prime factors of a monic square-free f by trial division against
    the scalar sieve, ascending by degree and code."""
    out = []
    d = 1
    while f.degree >= 1:
        if 2 * d > f.degree:
            out.append(f)
            break
        for p in prime_list(f.field, d):
            if (f % p).is_zero():
                f = f // p
                out.append(p)
        d += 1
    return out


def squarefree_factors(field, d):
    """(polys, factor sets) for the square-free monic polynomials of degree
    d: each set holds the (degree, code) keys of the polynomial's prime
    factors (the factors behind biquad.squarefree_masks)."""
    polys = tuple(ffpoly.enumerate_polys(field, d, "squarefree-monic"))
    factors = [frozenset((int(p.degree), p.monic_code()) for p in trial_factors(f))
               for f in polys]
    return polys, factors


def prime_char_sum(D, n):
    """sum over the monic primes P of degree n of (P/D), over the scalar
    sieve."""
    return sum(ffpoly.jacobi_symbol(P, D) for P in prime_list(D.field, n))


def l_polynomial_coeffs(chi):
    """The raw L-polynomial's coefficients, one char_value per monic
    polynomial of each degree below deg D (lfunc.l_polynomial)."""
    field = chi.field
    return tuple(sum(lfunc.char_value(chi, f) for f in ffpoly.monic_polys(field, d))
                 for d in range(int(chi.modulus.degree)))


def explicit_formula_trace(chi, n):
    """lambda + sum over prime powers P^k of degree n of deg P chi(P)^k,
    one char_value per prime of the scalar sieve
    (lfunc.explicit_formula_trace)."""
    total = 1 if int(chi.modulus.degree) % 2 == 0 else 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += d * sum(lfunc.char_value(chi, P) ** (n // d) for P in prime_list(chi.field, d))
    return total


class PointwiseChi:
    """chi_2(f(x)) over F_{q^n} point by point with the scalar evaluator,
    cached per polynomial; pair sums over P^1 multiply two cached vectors
    and take the point at infinity from quad_char_eval on the product.
    The per-polynomial path that biquad.member_traces replaces."""

    def __init__(self, field, n):
        self.ext = extension_field(field, n)
        self._vec = {}

    def chi(self, f):
        got = self._vec.get(f)
        if got is None:
            ext = self.ext
            got = np.array([ext.chi2(eval_poly(ext, f, x)) for x in ext.elements()],
                           dtype=np.int8)
            self._vec[f] = got
        return got

    def chi_inf_product(self, fa, fb):
        return quad_char_eval(fa * fb, INFINITY, self.ext)

    def pair_sum(self, fa, fb):
        """sum over P^1(F_{q^n}) of chi_2((fa fb)(x)), exact int."""
        fin = int((self.chi(fa) * self.chi(fb)).sum(dtype=np.int64))
        return fin + self.chi_inf_product(fa, fb)

    def triple_T(self, f1, f2, f3):
        """T_n = -(S13 + S23 + S12) for the member (f1, f2, f3)."""
        return -(self.pair_sum(f1, f3) + self.pair_sum(f2, f3) + self.pair_sum(f1, f2))


@functools.lru_cache(maxsize=None)
def pointwise_chi(field, n):
    return PointwiseChi(field, n)


# -- finite fields from scalar digit-vector products ----------------------------


def _decode(code, length, base):
    digits = []
    for _ in range(length):
        code, r = divmod(code, base)
        digits.append(r)
    return tuple(digits)


def _trim(v):
    n = len(v)
    while n and v[n - 1] == 0:
        n -= 1
    return tuple(v[:n])


def vmul_mod(a, b, modulus, p):
    """(a*b) mod modulus over F_p; modulus monic, all ascending tuples."""
    if not a or not b:
        return ()
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    k = len(modulus) - 1
    for i in range(len(prod) - 1, k - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(k):
                prod[i - k + j] = (prod[i - k + j] - c * modulus[j]) % p
    return _trim(prod)


def _has_remainder(a, b, p):
    """True if the monic b does not divide a over F_p."""
    rem = list(a)
    k = len(b) - 1
    while len(rem) - 1 >= k:
        c = rem[-1]
        if c:
            for j in range(k + 1):
                rem[len(rem) - 1 - k + j] = (rem[len(rem) - 1 - k + j] - c * b[j]) % p
        rem.pop()
        while rem and rem[-1] == 0 and len(rem) - 1 >= k:
            rem.pop()
    return any(rem)


def _digits_irreducible(v, p, smaller_primes):
    deg = len(v) - 1
    if deg == 1:
        return True
    if deg <= 3:
        # no roots <=> irreducible for degree 2, 3
        for x in range(p):
            acc = 0
            for c in reversed(v):
                acc = (acc * x + c) % p
            if acc == 0:
                return False
        return True
    return all(_has_remainder(v, f, p)
               for d in range(1, deg // 2 + 1) for f in smaller_primes[d])


@functools.lru_cache(maxsize=None)
def least_irreducible_mod_p(p, e):
    """Lexicographically least monic irreducible of degree e over F_p, by
    brute force: below degree 4 a root test, above it trial division by
    every lower-degree monic irreducible, generated the same way."""
    smaller = {}
    for d in range(1, e):
        smaller[d] = [v for v in (_decode(code, d, p) + (1,) for code in range(p ** d))
                      if _digits_irreducible(v, p, smaller)]
    return next(v for v in (_decode(code, e, p) + (1,) for code in range(p ** e))
                if _digits_irreducible(v, p, smaller))


@functools.lru_cache(maxsize=None)
def field_tables(p, e, modulus=None):
    """F_{p^e} = F_p[alpha]/(modulus) as q x q add and mul tables and q-entry
    neg and inv lists over the base-p digit codes, one digit product per
    pair and the inverse by search; modulus defaults to the least
    irreducible of degree e."""
    modulus = least_irreducible_mod_p(p, e) if modulus is None else modulus
    q = p ** e
    vecs = [_decode(c, e, p) for c in range(q)]
    ppow = [p ** i for i in range(e)]

    def encode(v):
        return sum(c * w for c, w in zip(v, ppow))

    mul = [[encode(vmul_mod(_trim(va), _trim(vb), modulus, p)) for vb in vecs] for va in vecs]
    add = [[encode((x + y) % p for x, y in zip(va, vb)) for vb in vecs] for va in vecs]
    neg = [encode(-x % p for x in v) for v in vecs]
    inv = [0] + [next(b for b in range(1, q) if mul[a][b] == 1) for a in range(1, q)]
    return SimpleNamespace(q=q, modulus=modulus, add=add, neg=neg, mul=mul, inv=inv)


def extension_exp_log(F, n, modulus):
    """(generator, exp, log) of F_{q^n} = F[T]/(modulus) over a field_tables
    field F, codes base-q digit vectors: the least g >= 2 whose power
    (Q-1)/r is not 1 for any prime r | Q-1, by scalar powering, then the
    chain g^0, g^1, ..., g^(Q-2) by one digit product per element."""
    q, Q = F.q, F.q ** n

    def mul(a, b):
        da, db = _trim(_decode(a, n, q)), _trim(_decode(b, n, q))
        if not da or not db:
            return 0
        prod = [0] * (len(da) + len(db) - 1)
        for i, ai in enumerate(da):
            for j, bj in enumerate(db):
                prod[i + j] = F.add[prod[i + j]][F.mul[ai][bj]]
        for i in range(len(prod) - 1, n - 1, -1):
            c = prod[i]
            prod[i] = 0
            for j in range(n):
                prod[i - n + j] = F.add[prod[i - n + j]][F.neg[F.mul[c][modulus[j]]]]
        return sum(c * q ** i for i, c in enumerate(prod[:n]))

    def power(a, k):
        r = 1
        while k:
            if k & 1:
                r = mul(r, a)
            a = mul(a, a)
            k >>= 1
        return r

    prime_divs = [r for r in range(2, Q) if (Q - 1) % r == 0
                  and all(r % s for s in range(2, int(r ** 0.5) + 1))]
    g = next(c for c in range(2, Q) if all(power(c, (Q - 1) // r) != 1 for r in prime_divs))
    exp, log, acc = [], [-1] * Q, 1
    for j in range(Q - 1):
        exp.append(acc)
        log[acc] = j
        acc = mul(acc, g)
    return g, exp, log


# -- member-row scans: the family sums before the pair weights ------------------


@functools.lru_cache(maxsize=None)
def outer_and_family(field, g):
    """The monic family as (polys, rows): the square-free monics of every
    degree the kept patterns use, concatenated by degree, and one row of
    indices (f1, f2, f3) into them per member, in enumeration order.  A
    pattern's rows are the True entries, in C order, of the outer AND of
    its three coprime_masks."""
    polys, start, blocks = [], {}, [np.zeros((0, 3), dtype=np.int64)]
    for d in biquad.family_degrees(g):
        start[d] = len(polys)
        polys.extend(Poly.monic_from_code(field, d, c)
                     for c in biquad.squarefree_factors(field, d).codes.tolist())
    for d1, d2, d3 in biquad.admissible_patterns(g)[0]:
        members = (biquad.coprime_mask(field, d1, d2)[:, :, None]
                   & biquad.coprime_mask(field, d1, d3)[:, None, :]
                   & biquad.coprime_mask(field, d2, d3)[None, :, :])
        blocks.append(np.argwhere(members) + [start[d1], start[d2], start[d3]])
    return SimpleNamespace(polys=tuple(polys), rows=np.concatenate(blocks))


def _member_sum(fam, chi):
    """sum over members of chi(f1) chi(f2) for chi given per polynomial."""
    return int((chi[fam.rows[:, 0]] * chi[fam.rows[:, 1]]).sum(dtype=np.int64))


def row_scan_totals(field, g, n):
    """moments._family_totals by gathering the three int8 chi rows of every
    member over the points of F_{q^n}, block by block."""
    fam = outer_and_family(field, g)
    ext = extension_field(field, n)
    chi = point_chi_rows(ext, fam.polys)
    deg = np.array([f.degree for f in fam.polys], dtype=np.int64)
    d1, d2, d3 = (deg[fam.rows[:, k]] for k in range(3))
    inf12 = int(np.count_nonzero((d1 + d2) % 2 == 0))
    inf_rest = int(np.count_nonzero((d1 + d3) % 2 == 0) + np.count_nonzero((d2 + d3) % 2 == 0))
    even = n % 2 == 0
    gen_mask = generating_mask(ext)
    fin_rest = fin12 = gen_tot = 0
    for _, v1, v2, v3 in chi_blocks(chi, fam.rows):
        fin_rest += int(((v1 + v2) * v3).sum(dtype=np.int64))
        v12 = v1 * v2
        fin12 += int(v12.sum(dtype=np.int64))
        if even:
            gen_tot += int(v12[:, gen_mask].sum(dtype=np.int64))
    s12_tot = fin12 + inf12
    s_all = fin_rest + inf_rest + s12_tot
    if not even:
        return s_all, s12_tot, 0, 0, 0
    half = extension_field(field, n // 2)
    zeros = zero_counts(half, fam.polys)
    zeros_half = int(zeros[fam.rows[:, 0]].sum() + zeros[fam.rows[:, 1]].sum())
    size = len(fam.rows)
    roots_tot = zeros_half + int(((d1 + d2) % 2).sum()) - size
    bil_tot = fin12 - (size * field.q ** (n // 2) - zeros_half)
    return s_all, s12_tot, roots_tot, bil_tot, gen_tot


def row_scan_prime_form(field, g, n):
    """The generating part of moments._family_totals over n: one member
    sum of chi_P(f1 f2) per degree-n prime P."""
    fam = outer_and_family(field, g)
    return sum(_member_sum(fam, row)
               for row in table_chi_rows(fam.polys, ffpoly.primes(field, n)))


def row_scan_fixed_prime_sum(field, g, P):
    """moments.fixed_prime_family_sum as one member sum."""
    fam = outer_and_family(field, g)
    return _member_sum(fam, table_chi_rows(fam.polys, (P,))[0])


def _factor_masks(field, d):
    """One int per square-free monic of degree d, with bit c set for each
    prime column c dividing it."""
    sf = biquad.squarefree_factors(field, d)
    masks = [0] * len(sf.codes)
    for i, c in zip(sf.poly.tolist(), sf.prime_col.tolist()):
        masks[i] |= 1 << c
    return [Poly.monic_from_code(field, d, c) for c in sf.codes.tolist()], masks


def mask_loop_nkk_sums_all(field, P, d, chi_of=None):
    """moments.nkk_sums_all by a loop over coprime (f1, f2), each adding
    chi(f1) chi(f2) times the number of degree-c masks disjoint from theirs."""
    sf = [_factor_masks(field, e) for e in range(d, -1, -1)][::-1]
    masks = [m for _, m in sf]
    if chi_of is None:
        chis = [table_chi_rows(polys, (P,))[0].tolist() for polys, _ in sf]
    else:
        chis = [[chi_of(f) for f in polys] for polys, _ in sf]
    out = {(a, b): 0 for a in (0, 1) for b in (0, 1)}
    for a in range(d + 1):
        row1 = [(m, x) for m, x in zip(masks[a], chis[a]) if x]
        for b in range(d - a + 1):
            c = d - a - b
            row2 = [(m, x) for m, x in zip(masks[b], chis[b]) if x]
            masks3 = masks[c]
            total = 0
            for m1, x1 in row1:
                for m2, x2 in row2:
                    if m1 & m2:
                        continue
                    m12 = m1 | m2
                    total += x1 * x2 * sum(1 for m3 in masks3 if not m12 & m3)
            out[((a + c) % 2, (b + c) % 2)] += total
    return out


def p_valuation_by_division(n, p, cap):
    """eulerprod.p_valuation by dividing out p one factor at a time."""
    v = 0
    while v < cap and n % p == 0:
        n, v = n // p, v + 1
    return v, n


def complete_coeffs(coeffs, deg, sign):
    """The coefficients of lfunc.complete_l of the raw L-polynomial of a
    modulus of degree deg with this sign and these coefficients, by the
    division loop it ran one polynomial at a time; InvariantError as it
    raised it."""
    lam = 1 if deg % 2 == 0 else 0
    coeffs = list(coeffs)
    for _ in range(lam):
        # out_i = c_i + s out_(i-1); the final carry must close to zero
        s, out, prev = sign, [], 0
        for c in coeffs[:-1]:
            prev = c + s * prev
            out.append(prev)
        if coeffs and coeffs[-1] + s * prev != 0:
            raise InvariantError("non-exact division by trivial-zero factor")
        coeffs = out
    target = deg - 1 - lam
    while len(coeffs) > target + 1:
        if coeffs[-1] != 0:
            raise InvariantError("completed L-polynomial exceeds degree 2*delta")
        coeffs.pop()
    if len(coeffs) != target + 1 or coeffs[-1] == 0:
        raise InvariantError("completed L-polynomial has wrong degree")
    return tuple(coeffs)


def functional_equation_ok(c, q):
    """c_j q^delta = q^j c_(2 delta - j) for the 2 delta + 1 coefficients c."""
    d = (len(c) - 1) // 2
    return all(c[j] * q ** d == q ** j * c[2 * d - j] for j in range(2 * d + 1))


def power_sums(c, n_max):
    """t_1..t_(n_max) by Newton's identities, one term at a time."""
    N, t = len(c) - 1, []
    for n in range(1, n_max + 1):
        acc = sum(c[i] * t[n - i - 1] for i in range(1, min(n - 1, N) + 1))
        t.append(-(acc + (n * c[n] if n <= N else 0)))
    return tuple(t)


def rh_max_deviation(c, q):
    """max | |gamma|/sqrt(q) - 1 | over the np.roots of the square-free
    part of c, one polynomial at a time; 0.0 for degree <= 0."""
    if max((i for i, x in enumerate(c) if x), default=0) <= 0:
        return 0.0
    roots = np.roots([float(x) for x in lfunc.squarefree_part(c)])
    if len(roots) == 0:
        return 0.0
    return float(np.max(np.abs(np.abs(roots) / np.sqrt(q) - 1.0)))


def check_raw(raw, raw_minus, deg, q, n_max, rh_tol):
    """The checks lfunc.l_suite runs on one raw L-polynomial (plus sign,
    modulus degree deg) and its minus twist, as it ran them one polynomial
    at a time: (lstar, t_plus, dev, problems), problems being failure
    messages without a modulus label; a completion failure leaves lstar,
    t_plus and dev None."""
    try:
        lstar = complete_coeffs(raw, deg, 1)
        lstar_minus = complete_coeffs(raw_minus, deg, -1)
    except InvariantError as exc:
        return None, None, None, [str(exc)]
    problems = []
    if max((i for i, x in enumerate(lstar) if x), default=-1) != deg - 1 - (deg % 2 == 0):
        problems.append("deg L* != deg D - 1 - lambda")
    if not functional_equation_ok(lstar, q):
        problems.append("functional equation (plus)")
    if not functional_equation_ok(lstar_minus, q):
        problems.append("functional equation (minus)")
    t_plus = power_sums(lstar, n_max)
    t_minus = power_sums(lstar_minus, n_max)
    if any(t_minus[i] != (-1) ** (i + 1) * t_plus[i] for i in range(n_max)):
        problems.append("minus traces != (-1)^n plus traces")
    dev = rh_max_deviation(lstar, q)
    if dev >= rh_tol:
        problems.append(f"RH deviation {dev:.2e}")
    return lstar, t_plus, dev, problems
