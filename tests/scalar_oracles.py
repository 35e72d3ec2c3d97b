"""Scalar reference implementations of the batched paths.

Each function here is the plain computation a batched path in src/ffstat
replaces: trial-division and reciprocity over Poly objects with no
residue tables, and finite-field tables built element by element from
digit-vector products over F_p, with no matrices.  They are slow and
independent of _tables and of the exp/log construction, which is what
makes them oracles.

The member-row scans at the end are the exception: they read the same chi
rows as the fast paths, but sum them member by member over the rows of
outer_and_family (and, for N_{k1,k2}, over triples tested by disjoint
prime-factor bitmasks), so they check the pair weights that replace them.
outer_and_family lists every member at once from the coprimality masks,
independent of the unranking in biquad.
"""

import functools
from types import SimpleNamespace

import numpy as np

from ffstat import biquad, ffpoly, lfunc, moments
from ffstat.ffpoly import Poly


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
    (the rows of moments._chi_rows)."""
    return [np.array([ffpoly.jacobi_symbol(f, P) for f in polys], dtype=np.int8)
            for P in primes]


def chi_plain_rows(P, max_deg):
    """Row d-1 holds (Q/P) over the monic primes Q of degree d, by
    reciprocity over the scalar sieve (eulerprod.chi_plain_rows)."""
    return tuple(np.array([ffpoly.jacobi_symbol(Q, P) for Q in prime_list(P.field, d)],
                          dtype=np.int8)
                 for d in range(1, max_deg + 1))


def double_char_total(field, d, n):
    """sum over square-free monic D of degree d and monic primes P of
    degree n of (P/D): the integer behind moments.double_char_sum."""
    return sum(ffpoly.jacobi_symbol(Pr, D)
               for D in ffpoly.enumerate_polys(field, d, "squarefree-monic")
               for Pr in prime_list(field, n))


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
        self.ext = ffpoly.extension_field(field, n)
        self._vec = {}

    def chi(self, f):
        got = self._vec.get(f)
        if got is None:
            ext = self.ext
            got = np.array([ext.chi2(ext.eval_poly(f, x)) for x in ext.elements()],
                           dtype=np.int8)
            self._vec[f] = got
        return got

    def chi_inf_product(self, fa, fb):
        return ffpoly.quad_char_eval(fa * fb, ffpoly.INFINITY, self.ext)

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
        polys.extend(biquad.squarefree_factors(field, d).polys)
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
    member, block by block."""
    fam = outer_and_family(field, g)
    ext = ffpoly.extension_field(field, n)
    chi = ext.chi_rows(fam.polys)
    deg = np.array([f.degree for f in fam.polys], dtype=np.int64)
    d1, d2, d3 = (deg[fam.rows[:, k]] for k in range(3))
    inf12 = int(np.count_nonzero((d1 + d2) % 2 == 0))
    inf_rest = int(np.count_nonzero((d1 + d3) % 2 == 0) + np.count_nonzero((d2 + d3) % 2 == 0))
    even = n % 2 == 0
    if even:
        gen_mask = np.ones(ext.order, dtype=bool)
        for d in range(1, n):
            if n % d == 0:
                gen_mask &= ~ext.subfield_mask(d)
    fin_rest = fin12 = gen_tot = 0
    for _, v1, v2, v3 in biquad.chi_blocks(chi, fam.rows):
        fin_rest += int(((v1 + v2) * v3).sum(dtype=np.int64))
        v12 = v1 * v2
        fin12 += int(v12.sum(dtype=np.int64))
        if even:
            gen_tot += int(v12[:, gen_mask].sum(dtype=np.int64))
    s12_tot = fin12 + inf12
    s_all = fin_rest + inf_rest + s12_tot
    if not even:
        return s_all, s12_tot, 0, 0, 0
    half = ffpoly.extension_field(field, n // 2)
    zeros = half.zero_counts(fam.polys)
    zeros_half = int(zeros[fam.rows[:, 0]].sum() + zeros[fam.rows[:, 1]].sum())
    size = len(fam.rows)
    roots_tot = zeros_half + int(((d1 + d2) % 2).sum()) - size
    bil_tot = fin12 - (size * field.q ** (n // 2) - zeros_half)
    return s_all, s12_tot, roots_tot, bil_tot, gen_tot


def row_scan_prime_form(field, g, n):
    """moments._bilinear_prime_form as one member sum per degree-n prime."""
    fam = outer_and_family(field, g)
    return sum(_member_sum(fam, row)
               for row in moments._chi_rows(fam.polys, ffpoly.primes(field, n)))


def row_scan_fixed_prime_sum(field, g, P):
    """moments.fixed_prime_family_sum as one member sum."""
    fam = outer_and_family(field, g)
    return _member_sum(fam, moments._chi_rows(fam.polys, (P,))[0])


def _factor_masks(field, d):
    """One int per square-free monic of degree d, with bit c set for each
    prime column c dividing it."""
    sf = biquad.squarefree_factors(field, d)
    masks = [0] * len(sf.polys)
    for i, c in zip(sf.poly.tolist(), sf.prime_col.tolist()):
        masks[i] |= 1 << c
    return sf.polys, masks


def mask_loop_nkk_sums_all(field, P, d, chi_of=None):
    """moments.nkk_sums_all by a loop over coprime (f1, f2), each adding
    chi(f1) chi(f2) times the number of degree-c masks disjoint from theirs."""
    sf = [_factor_masks(field, e) for e in range(d, -1, -1)][::-1]
    masks = [m for _, m in sf]
    if chi_of is None:
        chis = [moments._chi_rows(polys, (P,))[0].tolist() for polys, _ in sf]
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
