"""Vectorized residue/character tables over F_q[X] for every odd q = p^e.

Internal engine behind the batched L-function computations.  Monic
polynomials of degree d are integer codes in range(q^d) (lower
coefficients as base-q digits, leading 1 implicit), matching the
enumeration order in :mod:`ffstat.ffpoly`.  An element of F_q is the
code of its base-p digit vector over the field generator alpha, so the
base-p digits of a polynomial's code are its F_p coordinates: digit
e*j + t is the alpha^t part of the X^j coefficient, and a row of e*width
digits holds width coefficients.  For prime q (e = 1) digits and
coefficients coincide.

The kernel.  Reduction modulo a fixed monic Q of degree k is F_q-linear,
hence F_p-linear on these digit rows: row (j, t) of its matrix R holds
the K = k e digits of alpha^t (X^j mod Q), and a row c maps to the digit
sums x_t = sum_j c_j R[j, t], whose residues mod p are the digits of the
residue.  The kernel reads no x_t itself.  Each block of rows is copied
once, transposed, below a constant 1 row, and one matmul against the
matrix [b | o ; R / p | code] (`_kernel_matrix`) gives

    z_t = x_t / p + 1/(2p)   and   y = sum_j c_j code_j + o,

since the row met by the 1 holds the bias b = 1/(2p) in the digit
columns and an offset o in the code column, whose other entries are the
codes sum_t p^t R[j, t] of the X^j mod Q, so sum_j c_j code_j =
sum_t p^t x_t.  Then the residue code plus o is

    y - sum_t p^(t+1) floor(z_t) = o + sum_t p^t (x_t mod p),

so a block is five passes: the matmul, one floor in place, one small
combining matmul, the int64 cast and the caller's read of the codes
(`_stacked_codes`).  Residue codes keep their range, since q^k = p^(ek).
The offset is 0 for plain residues; `chiq` and `legendre_array` put a
prime's place in the quadratic residue store there, so a code is the
index of its symbol.  The same kernel runs in float32 or float64,
whichever its rows are in.  The sieve runs through it too, with the
matrix of multiplication by a prime in place of R, and so does
`affine_codes`, with the matrix of X^j -> u^-d (uX + v)^j, so the module
has one reduction step.

Exactness.  Let a row hold J digit entries in 0..p-1 and R entries in
0..p-1, so x_t <= x_max = J (p-1)^2, let the offsets be below
o_max + 1, and let u be the unit roundoff (2^-24 in float32, 2^-53 in
float64).
- The code column: every product c_j code_j, the offset and every
  partial sum of y are integers at most y <= J (p-1) q^k + o_max, so y
  is exact while J (p-1) q^k + o_max < 2^24 (float32) or 2^53 (float64).
- The floors: each entry of R / p and the bias are within u of
  R[j, t] / p and 1/(2p) relative to them, and a dot product of J + 1
  non-negative terms in any order (FMA or not) is within
  gamma_(J+1) = (J + 1) u / (1 - (J + 1) u) of its sum, so the computed
  z_t lies within about (J + 2) (x_max + 1/2) u / p of
  (2 x_t + 1) / (2p).  That value is at least 1/(2p) from every integer,
  so the floor is floor(x_t / p) while (J + 2) (2 x_max + 1) u < 1, which
  (J + 2) x_max < 2^22 (float32) or 2^51 (float64) implies with room for
  the terms in u^2 left out.
- The combination: each p^(t+1) floor(x_t / p) is at most
  y - o = sum_t p^t x_t, and every partial sum of the signed sum lies in
  [-(y - o), y], so it is exact under the code bound.

`PolyTables.float_type` checks both bounds for o_max = 0, with the caps
of `_EXACT`.  The code bound needs no margin, since nothing in it
rounds.  Entries above p-1 (chiq's squares, below k e (p-1)^2) scale
x_max and the code bound by the same factor, and q^k is taken at
k = max_deg unless the caller names a degree.  The table's own digit
rows (monic and prime rows up to max_deg) are float32 when float_type
admits rows of max_deg + 1 coefficients, else float64, and callers that
build their own rows ask `code_rows` for them; float32 rows at a width
float_type does not admit raise InvariantError.  The quadratic residue
table of a prime Q reduces the squares of every residue; the squares do
not depend on Q, so they are built once per degree, in the float type
their own bound gives.

Stacked kernel.  `legendre_array` takes a list of primes and returns one
int8 matrix of symbols.  The primes of each run of one degree reduce
together: the alpha^t X^j mod Q rows of all of them are built in one
batched F_p power pass over their stacked companion matrices
(`_xrow_batch`, once per prime), their kernel matrices are laid side by
side, prime by prime, and blocks of about ffpoly.BLOCK_BYTES / 32 rows
reduce against groups of as many primes as keep the float digit sums
near 4 BLOCK_BYTES, inside the cache, into scratch buffers the table
keeps, so no block allocates.  Laying matrices side by side changes no
entry's arithmetic.  The quadratic residue tables of one degree live in
one int8 store, built the same stacked way (the squares against the
kernel matrices of the missing primes), and `chiq` keeps the rows of
each run of primes consecutive, so the offset of a prime is its
distance from the first prime of its group, (i mod group) q^k, and each
group's symbols are read off the store with one flat take from the
group's first row.  The offsets are thus below o_max + 1 = group q^k,
and the code bound becomes

    J (p-1) q^k + (group - 1) q^k < 2^24 (float32) or 2^53 (float64),

which `PolyTables._group` enforces at run time: it takes fewer primes per
group where the bound asks for it, and raises InvariantError where not
even one fits.  Offsets counted from the whole store, up to its number
of rows times q^k, would pass 2^24 at q = 7, k = 5 already.  `char_sums`
sums characters chi_D = prod_{Q | D} (F/Q) over a matrix of rows for a
whole list of D, each row counted with an integer weight (1 unless the
caller gives weights): a weighted row sum of the Legendre matrix for
prime D, and for D = D' Q with omega >= 2 an entry of a float32 Gram
block between the rows of the D' (products of Legendre rows, times the
weights) and those of the Q of one degree.  A Gram entry is a sum of as
many products in {-w, ..., w} as the chunk has rows, w the largest
weight, so chunk width times w stays at most 2^24, where float32 is
exact; a wider chunk raises InvariantError.

Symbols between two sets of primes, (Q/P) for key primes Q and primes P
of one degree d, go through `prime_symbols` alone, which picks whose
residue tables to read: the P's, q^d entries each, when all pi_q(d) of
them are no more entries than the keys' own, else the keys', with the
reciprocity sign (-1)^((q-1)/2 deg Q d).  `prime_counts` counts the
values -1, 0, 1 per degree of Q, which is all the prime sums read, and
reads symbols only for the keys up to degree (d-1)//2 + 1 (`read_degree`):
L(u, chi_P) has degree d - 1 and a functional equation, so the counts
below (d-1)//2 + 1 fix it and, through the explicit formula, the counts
of every higher degree (lfunc.completed_prime_sums); the degree read last
is read and completed both, and the two must agree.  So a table reaching
d serves counts up to any degree, and `check_sieve` is the size test that
commands whose exact products reach further ask for first.

The sieve records, for each composite code, its smallest prime factor
(least degree, then least code) together with its cofactor, so factoring
needs no division; `factor_all` factors every code of one degree at once
off these tables.  It writes each composite exactly once, by that
factor.  Going up the cofactor degrees m, the q^m cofactors are taken
in ascending order of the key (deg, code) of their own smallest prime
factor (a prime is its own key).  A prime P of degree
a <= min(m, max_deg - m) then multiplies exactly the suffix of cofactors
whose key is at least (a, P): every factor of such a product is at least
P, and every composite of degree a + m with smallest factor P comes out
of it once.  The scatter into the table of degree a + m thus has
distinct indices.  No sort is needed: the products of P make up the
class of key (a, P) at degree a + m, of known size, so each pass writes
its codes straight into their place in that degree's order, its classes
before those of larger a that earlier passes wrote, and the primes of
the degree go last.  The products go through the kernel with the
matrix of multiplication by the prime, truncated below X^(a+m), in
place of R.  The matrices of all primes of degree a come from one
batched build, are laid side by side as in `legendre_array`, and reduce
in stacked passes per (a, m), one per kernel group of primes, each over
the cofactor rows from its group's first suffix on; each prime keeps
the codes of its own suffix.  The
cofactor rows of m are built once, straight in the kernel's float type.
At every degree the sieve checks that it found pi_q(d) primes and wrote
q^d - pi_q(d) codes, so no composite was written twice.

Everything here is cross-checked against scalar oracles by the test
suite.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import ffpoly
from .errors import InvariantError


#: the most bytes of spf tables one PolyTables may hold; the sieve's
#: temporaries take about 2.4 times as much again (PolyTables(GF(3), 12):
#: 6.4 MB of spf, a tracemalloc peak of 20 MiB in all, ru_maxrss 20 MiB
#: above its value before the build), and about 4 times at the cap
#: (GF(3), 13), where the widest cofactor rows are float64
SIEVE_BYTES_CAP = 1 << 25

#: float type -> (cap on (J + 2) x_max, cap on the code sums): the
#: kernel is exact below both (module docstring); float32 first
_EXACT = {np.float32: (2 ** 22, 2 ** 24), np.float64: (2 ** 51, 2 ** 53)}


def _sum_bounds(p, e, width, entry, k):
    """((J + 2) x_max, y_max) for rows of width coefficients over F_(p^e),
    J = e*width digit entries in 0..entry (p-1 when None), reduced modulo
    primes of degree k: x_max = J entry (p-1) the largest digit sum and
    y_max = J entry q^k the largest code sum."""
    J, entry = e * width, p - 1 if entry is None else entry
    x_max = J * entry * (p - 1)
    return (J + 2) * x_max, J * entry * p ** (e * k)


def check_sieve(field, max_deg):
    """ValueError when the spf tables of a PolyTables(field, max_deg), 8 q^d
    bytes for each degree d, would pass SIEVE_BYTES_CAP.  The constructor
    asks first, and so do the commands whose exact products run over the
    primes up to a degree past the tables they build."""
    spf_bytes = 8 * sum(field.q ** d for d in range(1, max_deg + 1))
    if spf_bytes > SIEVE_BYTES_CAP:
        raise ValueError(
            f"PolyTables: q={field.q} with max_deg={max_deg} needs {spf_bytes} "
            f"bytes of sieve tables, over the cap of {SIEVE_BYTES_CAP}")


def read_degree(d, max_deg):
    """The top degree of the key primes whose symbols prime_counts reads
    for primes P of degree d: (d-1)//2 + 1, the half of L(u, chi_P) that
    fixes the rest and one degree to check it by, or max_deg if lower."""
    return min(max_deg, (d - 1) // 2 + 1)


def symbol_store(q, d, key_counts):
    """(side, bytes) of the residue tables prime_symbols reads for the
    monic primes P of degree d against key_counts[a - 1] keys of degree a:
    ("P", pi_q(d) q^d) unless the keys' own, the sum of q^(deg Q), are
    fewer, then ("keys", that sum); so no table passes the keys' top
    degree."""
    keys = sum(count * q ** a for a, count in enumerate(key_counts, 1))
    mine = ffpoly.prime_count_exact(q, d) * q ** d
    return ("P", mine) if mine <= keys else ("keys", keys)


def _value_counts(symbols):
    """The multiplicities of -1, 0 and 1 along the last axis of an array of
    symbols, as a (..., 3) array: one count per row, where np.unique
    would sort each row on its own."""
    return np.stack([(symbols == v).sum(axis=-1) for v in (-1, 0, 1)], axis=-1)


def unique_rows(a):
    """(distinct, inverse, counts) of the subarrays of a along axis 0, in
    the lexicographic order np.unique(a, axis=0, return_inverse=True,
    return_counts=True) gives, from one np.lexsort over the columns."""
    a = np.asarray(a)
    flat = a.reshape(len(a), math.prod(a.shape[1:]))
    order = np.lexsort(flat.T[::-1]) if flat.shape[1] else np.arange(len(a))  # rows of no entries are equal
    ranked = flat[order]
    new = np.ones(len(a), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    inverse = np.empty(len(a), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    starts = np.flatnonzero(new)
    return ranked[starts].reshape(len(starts), *a.shape[1:]), inverse, np.diff(starts, append=len(a))


def _block_rows():
    """Rows per kernel block: about ffpoly.BLOCK_BYTES / 32 (2048 at 64 KiB)."""
    return max(1, ffpoly.BLOCK_BYTES // 32)


class PolyTables:
    """Sieve tables for monic polynomials over a finite field F_q.

    Provides per-degree prime code arrays, smallest-prime-factor codes
    for factorization, and cached coefficient matrices for batched
    reduction.  A table whose spf arrays would exceed SIEVE_BYTES_CAP is
    refused with a ValueError before anything is allocated.
    """

    def __init__(self, field, max_deg):
        check_sieve(field, max_deg)
        self.field = field
        self.p, self.e, self.q = field.p, field.e, field.q
        self.max_deg = max_deg
        # the largest matmul entries the kernel meets are chiq's: squares of
        # residues of degree < k <= max_deg, taken over F_p[alpha, X], have
        # (2k-1)(2e-1) <= 2e(2k-1) digit entries up to k e (p-1)^2; a field
        # beyond float64 there is refused before anything is built
        self._square_type(max_deg)
        self.dtype = self.float_type(max_deg + 1)
        self._ppow = np.array([self.p ** i for i in range(self.e * max_deg)], dtype=np.int64)
        # alpha^0..alpha^(2e-2) as element codes (alpha has code p), and the
        # matrices of multiplication by them: row s of _alpha_mul[u] holds
        # the digits of alpha^u alpha^s, so a digit row times it is alpha^u
        # times that element
        self._alpha = [1]
        for _ in range(2 * self.e - 2):
            self._alpha.append(field.mul(self._alpha[-1], self.p))
        self._alpha_mul = np.array([
            self._element_rows([field.mul(a, t) for t in self._alpha[:self.e]], self.e)
            for a in self._alpha])
        self._scratch = {}
        # (K + 1, float type) -> the weights -p^(t+1), 1 that turn the floors
        # and the code sum into a residue code
        self._combine = {}
        self._sieve()
        self._square_cache = {}
        self._coefmat_cache = {}
        self._chiq_tabs = {}  # degree -> (int8 table store, rows used)
        self._chiq_row = {}  # qkey -> its row in the store of its degree
        self._xrow_cache = {}
        self._stack_cache = {}

    # -- digit rows -----------------------------------------------------

    def _monic_rows(self, codes, d, dtype):
        """Digit rows of the monic polynomials of degree d (an int, or an
        int array of one degree per code) with these codes, zero above
        their explicit leading 1 up to the largest degree, built straight
        in dtype one digit column at a time, column-major, as the kernel
        reads their transpose.  A code of degree d is below q^d = p^(d e),
        so the digits of code + q^d are its own and the leading 1 at d e."""
        d = np.asarray(d)
        cols = np.empty(((int(d.max(initial=0)) + 1) * self.e, len(codes)), dtype=dtype)
        rem = codes + self.q ** d
        for j in range(len(cols)):
            rem, cols[j] = np.divmod(rem, self.p)
        return cols.T

    def _element_rows(self, codes, nrows):
        """The base-p digits of an int array of element codes, e per entry
        in order, laid out as nrows rows."""
        return ffpoly._digit_rows(np.ravel(codes), self.e, self.p).reshape(nrows, -1)

    # -- sieve ----------------------------------------------------------

    def _mul_matrices(self, a, codes, m):
        """Digit matrices of multiplication by the monic primes of degree a
        with these codes, in one batched pass: an (len(codes), (m + 1) e,
        (a + m) e) int64 array whose row (i, t) of matrix b holds the digits
        of alpha^t X^i times prime b, for i <= m, truncated to the
        coefficients below X^(a + m)."""
        e, p, n = self.e, self.p, len(codes)
        # [b, j, s]: digit s of coefficient j of prime b, the leading 1 last
        coef = np.zeros((n, a + 1, e), dtype=np.int64)
        coef[:, :a] = ffpoly._digit_rows(codes, a * e, p).reshape(n, a, e)
        coef[:, a, 0] = 1
        # [b, t, e j + s]: digit s of alpha^t c_j
        blocks = (coef[:, None] @ self._alpha_mul[:e] % p).reshape(n, e, -1)
        mat = np.zeros((n, m + 1, e, (a + m + 1) * e), dtype=np.int64)
        for i in range(m + 1):
            mat[:, i, :, i * e:(i + a + 1) * e] = blocks
        return mat.reshape(n, (m + 1) * e, -1)[:, :, :(a + m) * e]

    def _sieve(self):
        """spf[d][code] = a q^max_deg + pcode q^(d-a) + cofactor code, for
        the smallest-degree prime factor (a, pcode) of least code, and 0
        for a prime: each composite written once, by that factor, in
        stacked kernel passes per prime degree a and cofactor degree m, one
        per kernel group of primes (module docstring)."""
        q, e, D = self.q, self.e, self.max_deg
        pack = q ** D
        self.spf = {d: np.zeros(q ** d, dtype=np.int64) for d in range(1, D + 1)}
        self.prime_codes = {}
        composites = {d: q ** d - ffpoly.prime_count_exact(q, d) for d in range(1, D + 1)}
        written = dict.fromkeys(range(1, D + 1), 0)
        # order[d]: the codes of degree d < D in ascending order of the key
        # (deg, code) of their smallest prime factor, a prime being its own
        # key; the composites come class by class, each pass placing its
        # classes before those of larger a that earlier passes placed
        order = {d: np.empty(q ** d, dtype=np.int64) for d in range(1, D)}
        begins = {}  # (d, a) -> where the class of each degree-a prime begins in order[d]
        muls = {}  # a -> _mul_matrices of the degree-a primes, for m up to D - a
        for m in range(1, D + 1):
            # every composite of degree m has a cofactor of lower degree
            self._sieve_degree(m, written[m], composites[m])
            if m == D:
                break
            ordered = order.pop(m)
            ordered[composites[m]:] = self.prime_codes[m]
            top = min(m, D - m)
            rows = self._monic_rows(ordered, m, self.float_type(m + 1, k=m + top))
            for a in range(1, top + 1):
                d, pcodes = a + m, self.prime_codes[a]
                if a not in muls:
                    muls[a] = self._mul_matrices(a, pcodes, D - a)
                # the prime P multiplies the suffix of cofactors whose key is
                # at least (a, P), so P is the smallest factor of each product;
                # no composite of degree m has a smallest factor of degree
                # above m / 2, so past 2a > m the suffixes hold primes alone
                if 2 * a <= m:
                    starts = begins.pop((m, a))
                elif a < m:
                    starts = np.full(len(pcodes), composites[m])
                else:
                    starts = composites[m] + np.arange(len(pcodes))
                sizes = q ** m - starts
                written[d] += int(sizes.sum())
                if written[d] > composites[d]:
                    # the places in order[d] below would run out of range
                    raise InvariantError(
                        f"sieve: {written[d]} codes written at degree {d} at q={q}, more than its "
                        f"{composites[d]} composites")
                begins[d, a] = composites[d] - written[d] + np.cumsum(sizes) - sizes
                # the suffixes shrink as P grows; each group of primes runs on
                # its first prime's suffix, and prime b's product with the
                # cofactor at position x of ordered goes to order[d][at[b] + x]
                at = begins[d, a] - starts
                heads = a * pack + pcodes * q ** m
                S = self._kernel_matrix(muls[a][:, :(m + 1) * e, :d * e], rows.dtype)
                group = self._group(d, len(pcodes), rows.dtype, q ** m - starts[0], m + 1)
                K1, spf_d = d * e + 1, self.spf[d]
                for g in range(0, len(pcodes), group):
                    first = int(starts[g])
                    for i, r, codes in self._stacked_codes(rows[first:], d, S[:, g * K1:(g + group) * K1], group):
                        x, n = first + r, codes.shape[1]
                        for j, lo in enumerate(np.maximum(starts[g + i:g + i + len(codes)] - x, 0).tolist()):
                            b = g + i + j
                            spf_d[codes[j, lo:]] = heads[b] + ordered[x + lo:x + n]
                            if d < D:
                                order[d][at[b] + x + lo:at[b] + x + n] = codes[j, lo:]
            del ordered, rows

    def _sieve_degree(self, d, written, composites):
        """Read the primes of degree d off a finished spf[d], checking that
        the q^d - pi_q(d) composites were written once each and that the
        rest, pi_q(d) codes, are prime."""
        if written != composites:
            raise InvariantError(
                f"sieve: {written} codes written at degree {d} at q={self.q}, not the "
                f"{composites} composites once each")
        primes = self.prime_codes[d] = np.flatnonzero(self.spf[d] == 0)
        if len(primes) != self.q ** d - composites:
            raise InvariantError(
                f"sieve: {len(primes)} primes of degree {d} at q={self.q}, not pi = {self.q ** d - composites}")

    def factor_all(self, d):
        """Every monic of degree d >= 1 factored at once off the spf
        tables: (squarefree, rows, deg, code), squarefree a bool array over
        the q^d codes and (deg[i], code[i]) a prime factor of the code
        rows[i], for the square-free codes alone, by ascending code and,
        within one code, in ascending (degree, code) order, as factor
        lists them.

        At level k = d, d-1, ..., 1 the codes whose cofactor has degree k
        give up its smallest prime factor (the whole cofactor when it is
        prime), so a repeated factor comes out twice in a row."""
        q, pack = self.q, self.q ** self.max_deg
        deg = np.full(q ** d, d, dtype=np.int64)
        code = np.arange(q ** d, dtype=np.int64)
        found = []
        for k in range(d, 0, -1):
            rows = np.flatnonzero(deg == k)
            cur = code[rows]
            packed = self.spf[k][cur]
            a, rest = np.divmod(packed, pack)
            prime = packed == 0
            a[prime] = k
            pcode, cof = np.divmod(rest, q ** (k - a))
            pcode[prime] = cur[prime]
            deg[rows], code[rows] = k - a, cof
            found.append((rows, a, pcode))
        rows, pdeg, pcode = (np.concatenate(x) for x in zip(*found))
        order = np.argsort(rows, kind="stable")
        rows, pdeg, pcode = rows[order], pdeg[order], pcode[order]
        repeated = (rows[1:] == rows[:-1]) & (pdeg[1:] == pdeg[:-1]) & (pcode[1:] == pcode[:-1])
        squarefree = np.ones(q ** d, dtype=bool)
        squarefree[rows[1:][repeated]] = False
        keep = squarefree[rows]
        return squarefree, rows[keep], pdeg[keep], pcode[keep]

    def factor(self, deg, code):
        """Factor a monic square-free polynomial into [(deg, code), ...].

        Returns None when a repeated factor is found (not square-free).
        """
        pack = self.q ** self.max_deg
        out = []
        while deg > 1:
            packed = int(self.spf[deg][code])
            if packed == 0:
                break
            a, rest = divmod(packed, pack)
            pcode, code = divmod(rest, self.q ** (deg - a))
            out.append((a, pcode))
            deg -= a
        if deg > 0:
            out.append((deg, code))
        if len(set(out)) < len(out):
            return None
        return out

    # -- batched reduction ----------------------------------------------

    def float_type(self, width, entry=None, k=None):
        """The float type in which the kernel is exact on rows of `width`
        coefficients, that is J = e*width digit entries in 0..entry
        (default p-1), reduced modulo primes of degree k (default max_deg):
        float32 while (J + 2) x_max < 2^22 and y_max < 2^24, else float64
        while they stay below 2^51 and 2^53 (_sum_bounds, _EXACT and the
        module docstring); beyond that a ValueError."""
        floors, y_max = _sum_bounds(self.p, self.e, width, entry, self.max_deg if k is None else k)
        for dtype, (floor_cap, code_cap) in _EXACT.items():
            if floors < floor_cap and y_max < code_cap:
                return dtype
        raise ValueError(
            f"PolyTables: q={self.p ** self.e} with max_deg={self.max_deg} is beyond exact "
            f"float64 residue reduction ((J + 2) x_max = {floors}, "
            f"code sums up to {y_max})")

    def _group(self, k, m, dtype, nrows, width, entry=None):
        """How many of m stacked primes of degree k one kernel block takes
        on nrows rows: as many as keep its digit sums near
        4 ffpoly.BLOCK_BYTES at min(nrows, _block_rows()) rows, and few
        enough that the chiq store offsets the code sums carry, below
        group q^k, keep them exact in dtype on rows of width coefficients
        (entries in 0..entry): y_max + (group - 1) q^k < 2^24 (float32) or
        2^53 (float64).  InvariantError when even one prime is beyond that
        or beyond the floor bound, so the bound is checked, not assumed."""
        dtype = np.dtype(dtype)
        floors, y_max = _sum_bounds(self.p, self.e, width, entry, k)
        floor_cap, code_cap = _EXACT[dtype.type]
        room = code_cap - 1 - y_max
        if floors >= floor_cap or room < 0:
            raise InvariantError(
                f"kernel: rows of width {width} modulo degree {k} are beyond exact "
                f"{dtype.name} reduction at q={self.q}")
        block_rows = max(1, min(nrows, _block_rows()))
        cached = 4 * ffpoly.BLOCK_BYTES // (k * self.e * block_rows * dtype.itemsize)
        return max(1, min(m, cached, 1 + room // self.q ** k))

    def code_rows(self, d, codes):
        """Digit rows of the monic polynomials of degree d (an int, or one
        degree per code) with these codes, zero-padded to the largest
        degree, in the float type float_type gives rows of max(d) + 1
        coefficients."""
        d = np.asarray(d)
        return self._monic_rows(np.asarray(codes, dtype=np.int64), d, self.float_type(int(d.max(initial=0)) + 1))

    def monic_coefmat(self, d):
        """(q^d x (d+1)e) digit rows of all monic of degree d, in the
        table's float type and column-major, so that the kernel reads
        its transpose as one contiguous block."""
        key = ("monic", d)
        if key not in self._coefmat_cache:
            self._coefmat_cache[key] = self._monic_rows(np.arange(self.q ** d), d, self.dtype)
        return self._coefmat_cache[key]

    def prime_coefmat(self, d):
        """The rows of monic_coefmat(d) that are prime, in the same layout."""
        key = ("prime", d)
        if key not in self._coefmat_cache:
            self._coefmat_cache[key] = self._monic_rows(self.prime_codes[d], d, self.dtype)
        return self._coefmat_cache[key]

    def _xrow_batch(self, k, codes, n):
        """Digits of alpha^u (X^j mod Q) for the primes Q of degree k with
        these codes, in one batched F_p power pass over their companion
        matrices: an (len(codes), n, 2e - 1, k e) int64 array, entry
        [i, j, u] the digits of alpha^u X^j mod Q_i (u < 2e - 1, since the
        squares in chiq reach alpha^(2e-2))."""
        e, p, K = self.e, self.p, k * self.e
        m = len(codes)
        # the digits of -Q's lower coefficients: -c has digits -d mod p
        neg = -ffpoly._digit_rows(codes, K, p) % p
        # C, multiplication by X mod Q: row (i, t) holds the digits of
        # alpha^t X^(i+1) mod Q, a unit row below the top coefficient, and
        # alpha^t times -Q's lower coefficients at it
        C = np.zeros((m, K, K), dtype=np.int64)
        C[:, np.arange(K - e), np.arange(e, K)] = 1
        C[:, K - e:] = (neg.reshape(m, 1, k, e) @ self._alpha_mul[:e] % p).reshape(m, e, K)
        # rows (j, t): the unit rows alpha^t times C^j
        start = np.zeros((m, e, K), dtype=np.int64)
        start[:, :, :e] = np.eye(e, dtype=np.int64)
        rows = ffpoly._power_rows(start, C, n * e, p).reshape(m, n, e, K)
        # alpha^u for u >= e, from the digits of X^j mod Q
        high = rows[:, :, 0].reshape(m, n, 1, k, e) @ self._alpha_mul[e:] % p
        return np.concatenate([rows, high.reshape(m, n, e - 1, K)], axis=2)

    def _xrows(self, keys, n):
        """(len(keys), n, 2e - 1, k e) digits of alpha^u (X^j mod Q) for the
        primes of one degree k given by keys, as _xrow_batch lays them out.
        The primes not built yet, or built narrower than n, are built in
        one batch, wide enough for the table's own rows (max_deg + 1
        coefficients) and chiq's 2k - 1 squares, so one build serves a
        prime; only callers of wider rows rebuild."""
        k = keys[0][0]
        cache = self._xrow_cache
        missing = [key for key in dict.fromkeys(keys) if len(cache.get(key, ())) < n]
        if missing:
            built = self._xrow_batch(k, [code for _, code in missing], max(n, 2 * k - 1, self.max_deg + 1))
            cache.update(zip(missing, built))
        return np.stack([cache[key][:n] for key in keys])

    def _kernel_matrix(self, digits, dtype, offsets=0):
        """The kernel's matrix for the F_p-linear maps whose (rows, K) digit
        matrices are stacked in digits, (m, rows, K): a (1 + rows, m (K + 1))
        array in dtype.  Row 0 meets the kernel's constant 1 row: it holds
        the bias 1/(2p) (rounded once, in dtype) in the digit columns
        i (K + 1) + t and offsets[i] in the code column i (K + 1) + K.  Row
        1 + j holds in column i (K + 1) + t digit t of row j of map i divided
        by p (rounded once, in dtype) and in column i (K + 1) + K its code
        sum_t p^t digit t."""
        m, rows, K = digits.shape
        S = np.empty((1 + rows, m, K + 1), dtype=dtype)
        S[0, :, :K] = 0.5 / self.p
        S[0, :, K] = offsets
        S[1:, :, :K] = digits.transpose(1, 0, 2)
        S[1:, :, :K] /= self.p
        S[1:, :, K] = (digits @ self._ppow[:K]).T
        return S.reshape(1 + rows, -1)

    def _check_rows(self, coefmat, caller):
        """The width, in coefficients, of coefmat's rows; InvariantError
        when they are float32 at a width float_type does not admit."""
        width = -(-coefmat.shape[1] // self.e)
        if coefmat.dtype == np.float32 and self.float_type(width) is not np.float32:
            raise InvariantError(
                f"{caller}: float32 rows of width {width} are not exact "
                f"at q={self.q} with max_deg={self.max_deg}")
        return width

    def reduce_codes(self, coefmat, qkey):
        """Residue codes modulo the prime Q given by qkey=(deg, code).

        Runs in coefmat's float type.  Its rows may hold any integers
        (they are reduced mod p first); float32 rows must be at a width
        float_type admits."""
        width = self._check_rows(coefmat, "reduce_codes")
        k, ncols = qkey[0], coefmat.shape[1]
        X = self._xrows([qkey], width)[:, :, :self.e].reshape(1, width * self.e, -1)
        S = self._kernel_matrix(X[:, :ncols], coefmat.dtype)
        out = np.empty(len(coefmat), dtype=np.int64)
        for _, r, codes in self._stacked_codes(np.mod(coefmat, self.p), k, S, 1):
            out[r:r + codes.shape[1]] = codes[0]
        return out

    def _scratch_buffers(self, dtype, npadded, nsums, ncodes):
        """The kernel's block buffers: padded rows, digit sums and float
        codes in dtype and int64 codes, kept by the table and grown to the
        largest block seen, so that no block allocates."""
        bufs = self._scratch.get(dtype)
        if bufs is None or bufs[0].size < npadded or bufs[1].size < nsums or bufs[2].size < ncodes:
            if bufs is not None:
                npadded, nsums, ncodes = (max(npadded, bufs[0].size), max(nsums, bufs[1].size),
                                          max(ncodes, bufs[2].size))
            bufs = self._scratch[dtype] = (np.empty(npadded, dtype), np.empty(nsums, dtype),
                                           np.empty(ncodes, dtype), np.empty(ncodes, np.int64))
        return bufs

    def _stacked_codes(self, mat, k, S, group):
        """The kernel: residue codes of mat's rows modulo the m primes of
        degree k whose _kernel_matrix is S (row 0 and at least mat's
        columns of rows below it, m (k e + 1) columns, in mat's float
        type), each plus the offset in its row 0, in cache blocks of
        _block_rows() rows against `group` primes.  Each row block is
        copied once, transposed, below a constant 1 row that meets S's
        row 0, so that one matmul gives the biased digit sums and the
        offset code sums; a block is then the matmul, one floor, the
        combining matmul and the int64 cast.  Yields (i, r, codes),
        codes[a, b] the residue of row r + b modulo prime i + a plus that
        prime's offset: an int64 view of the table's scratch buffer,
        which the next block overwrites, so no two of these generators
        may run at once."""
        K1 = k * self.e + 1
        ncols, m, dtype = mat.shape[1], S.shape[1] // K1, mat.dtype
        step = _block_rows()
        nrows = min(step, len(mat))
        padded, sums, fcodes, icodes = self._scratch_buffers(
            dtype, (1 + ncols) * nrows, group * K1 * nrows, group * nrows)
        weights = self._combine.get((K1, dtype))
        if weights is None:
            weights = self._combine[K1, dtype] = np.append(-self.p * self._ppow[:K1 - 1], 1).astype(dtype)
        for r in range(0, len(mat), step):
            n = min(step, len(mat) - r)
            rows = padded[:(1 + ncols) * n].reshape(1 + ncols, n)
            rows[0] = 1
            rows[1:] = mat[r:r + n].T
            for i in range(0, m, group):
                block = S[:1 + ncols, i * K1:(i + group) * K1]
                mb = block.shape[1] // K1
                z = sums[:mb * K1 * n].reshape(mb * K1, n)
                np.matmul(block.T, rows, out=z)  # BLAS reads block's transpose in place
                np.floor(z, out=z)
                np.matmul(weights, z.reshape(mb, K1, n), out=fcodes[:mb * n].reshape(mb, n))
                codes = icodes[:mb * n].reshape(mb, n)
                np.copyto(codes, fcodes[:mb * n].reshape(mb, n), casting="unsafe")
                yield i, r, codes

    def _stacked(self, keys, width, dtype, group):
        """The kernel matrices of the primes keys of one degree k side by
        side in dtype, at least width coefficients of rows, row 0 holding
        each prime's chiq store offset from the first prime of its block
        of `group`, (i mod group) q^k.  Cached per tuple of keys and float
        type, since l_suite asks for the same primes at each row degree;
        the first build covers the table's own rows (max_deg + 1 wide), and
        a call with another group rewrites the offsets in place."""
        k = keys[0][0]
        cached = self._stack_cache.get((keys, dtype))
        if cached is None or cached[0] < width:
            width = max(width, self.max_deg + 1)
            X = self._xrows(keys, width)[:, :, :self.e]
            S = self._kernel_matrix(X.reshape(len(keys), width * self.e, -1), dtype)
            cached = self._stack_cache[keys, dtype] = [width, 1, S]
        if cached[1] != group:
            K1 = k * self.e + 1
            cached[2][0, K1 - 1::K1] = np.arange(len(keys)) % group * self.q ** k
            cached[1] = group
        return cached[2]

    # -- quadratic residue tables ----------------------------------------

    def _square_rows(self, k):
        """(width, entry) of the squares of the residues of degree < k:
        rows of 2k - 1 coefficients of 2e - 1 alpha powers, at most 2e(2k-1)
        digit entries, counted as 2(2k - 1) coefficients, up to
        k e (p-1)^2."""
        return 2 * (2 * k - 1), k * self.e * (self.p - 1) ** 2

    def _square_type(self, k):
        """The float type of the squares of the residues of degree < k,
        reduced modulo primes of degree k."""
        return self.float_type(*self._square_rows(k), k)

    def _squares(self, k):
        """The squares of the (q^k + 1)/2 residues r of degree < k whose
        code is at most that of -r, taken over F_p[alpha, X]: r and -r
        have one square, and -r negates each base-p digit of r, so these
        are 0 and the codes whose top nonzero digit is at most (p-1)/2,
        the ranges [p^j, (p+1)/2 p^j).  Row r holds at (m, u) the
        coefficient of alpha^u X^m, u < 2e - 1, in the square of r's
        digit polynomial (digit e*i + s times digit e*j + t lands on
        alpha^(s+t) X^(i+j))."""
        p, e, nu, K = self.p, self.e, len(self._alpha), k * self.e
        dtype = self._square_type(k)
        codes = np.concatenate([[0]] + [np.arange(p ** j, (p + 1) // 2 * p ** j) for j in range(K)])
        digits = ffpoly._digit_rows(codes, K, p).astype(dtype)
        sq = np.zeros((len(digits), (2 * k - 1) * nu), dtype=dtype)
        for a in range(K):
            # digit a times digits b >= a, weight 2 off the diagonal
            (i, s), (j, t) = divmod(a, e), np.divmod(np.arange(a, K), e)
            cols = (i + j) * nu + s + t
            place = np.zeros((K - a, sq.shape[1]), dtype=dtype)
            place[np.arange(K - a), cols] = 2
            place[0, cols[0]] = 1  # digit a squared
            sq += (digits[:, a:a + 1] * digits[:, a:]) @ place
        return sq

    def chiq(self, qkeys):
        """Quadratic residue tables of primes Q of one degree k, given by
        qkeys=[(k, code), ...]: (tab, rows), tab an int8 array whose row
        rows[i] holds (r/Q_i) in {-1, 0, 1} at each residue code r mod Q_i,
        and rows one ascending run, rows[0] + arange(len(qkeys)), so that
        a stacked kernel block reads its symbols at offsets from its first
        row.

        tab is the degree's table store, shared by every call.  The
        missing tables are built together at its end: the squares of all
        residues, reduced against the kernel matrices of their primes,
        each code sum carrying the prime's offset from the first row of its
        block.  When qkeys meets tables of earlier calls out of that order,
        the store is rewritten with the rows of qkeys first."""
        k = qkeys[0][0]
        n = self.q ** k
        tab, used = self._chiq_tabs.get(k, (None, 0))
        new = [key for key in dict.fromkeys(qkeys) if key not in self._chiq_row]
        if new:
            if tab is None or used + len(new) > len(tab):
                grown = np.empty((max(used + len(new), 2 * used), n), dtype=np.int8)
                if tab is not None:
                    grown[:used] = tab[:used]
                tab = grown
            squares = self._square_cache.get(k)
            if squares is None:
                squares = self._square_cache[k] = self._squares(k)
            block = tab[used:used + len(new)]
            block.fill(-1)
            X = self._xrows(new, 2 * k - 1)
            group = self._group(k, len(new), squares.dtype, len(squares), *self._square_rows(k))
            offsets = np.arange(len(new)) % group * n
            S = self._kernel_matrix(X.reshape(len(new), -1, k * self.e), squares.dtype, offsets)
            flat = block.reshape(-1)
            for i, _, codes in self._stacked_codes(squares, k, S, group):
                flat[i * n:][codes] = 1
            block[:, 0] = 0
            for key in new:
                self._chiq_row[key] = used
                used += 1
            self._chiq_tabs[k] = tab, used
        rows = [self._chiq_row[key] for key in qkeys]
        if rows != list(range(rows[0], rows[0] + len(rows))):
            run = set(qkeys)
            order = list(qkeys) + [key for key in self._chiq_row if key[0] == k and key not in run]
            tab = tab[[self._chiq_row[key] for key in order]]
            self._chiq_row.update((key, row) for row, key in enumerate(order))
            self._chiq_tabs[k] = tab, len(tab)
            rows = list(range(len(qkeys)))
        return tab, np.array(rows, dtype=np.int64)

    def legendre_array(self, coefmat, qkeys):
        """(F/Q) for every prime Q given by qkeys=[(deg, code), ...], int
        pairs, and every row F of coefmat: an int8 (len(qkeys), rows)
        matrix.

        The primes of each run of one degree reduce together
        (_stacked_codes), so callers list them by degree.  Their chiq rows
        are one run, and each block's codes carry their offsets from the
        block's first row, so each symbol is read off the store with one
        flat take from that row.  The rows hold digits in 0..p-1, as
        code_rows and the coefmats build them; float32 rows must be at a
        width float_type admits."""
        width = self._check_rows(coefmat, "legendre_array")
        out = np.empty((len(qkeys), len(coefmat)), dtype=np.int8)
        start = 0
        for k, run in itertools.groupby(qkeys, key=lambda key: key[0]):
            keys = tuple(run)
            tab, rows = self.chiq(keys)
            group = self._group(k, len(keys), coefmat.dtype, len(coefmat), width)
            S = self._stacked(keys, width, coefmat.dtype, group)
            flat, n = tab.reshape(-1), self.q ** k
            for i, r, codes in self._stacked_codes(coefmat, k, S, group):
                at = out[start + i:start + i + len(codes), r:r + codes.shape[1]]
                flat[(rows[0] + i) * n:].take(codes, out=at, mode="wrap")
            start += len(keys)
        return out

    # -- symbols between primes -------------------------------------------

    def prime_symbols(self, d, codes, keys):
        """(Q/P) for the key primes Q of keys = (deg, code), two int arrays
        in ascending order of degree, and the monic primes P of degree d
        with these codes: an int8 (len(deg), len(codes)) matrix.  A key
        equal to a P gives 0.

        symbol_store picks the side, from the number of keys of each
        degree: the keys' rows read the residue tables of the P, or the
        row of each P reads the keys' tables and reciprocity, (Q/P) =
        (-1)^((q-1)/2 deg Q d) (P/Q), turns them round."""
        q, top, (deg, code) = self.q, self.max_deg, keys
        at = np.searchsorted(deg, np.arange(top + 2)).tolist()  # the first key of each degree
        if symbol_store(q, d, np.diff(at[1:]).tolist())[0] == "P":
            rows = self.code_rows(deg, code)
            return self.legendre_array(rows, [(d, c) for c in np.asarray(codes).tolist()]).T
        L = self.legendre_array(self.code_rows(d, codes), list(zip(deg.tolist(), code.tolist())))
        if (q - 1) // 2 * d % 2:
            for a in range(1, top + 1, 2):
                L[at[a]:at[a + 1]] *= -1
        return L

    def prime_counts(self, d, codes, max_deg):
        """The number of monic primes Q of each degree 1..max_deg with
        (Q/P) = -1, 0, 1, for the monic primes P of degree d with these
        codes: a (len(codes), max_deg, 3) array, int32 while pi_q(max_deg)
        < 2^31, else int64.

        Only keys up to read_degree(d, max_deg) are read, off prime_symbols
        in blocks of about 64 ffpoly.BLOCK_BYTES of symbols, so the table
        need reach no further than d.  Past it the counts of each block
        come from those below (d-1)//2 + 1 through the functional equation
        of L(u, chi_P) (lfunc.completed_prime_sums), and those of the
        degree read last must equal the completed ones (InvariantError)."""
        from .lfunc import completed_prime_sums  # lfunc imports this module

        q, read = self.q, read_degree(d, max_deg)
        primes = [self.prime_codes[a] for a in range(1, read + 1)]
        sizes = [len(c) for c in primes]
        keys = np.repeat(np.arange(1, read + 1), sizes), np.concatenate([np.zeros(0, np.int64), *primes])
        bounds = np.cumsum([0] + sizes)
        step = max(1, 64 * ffpoly.BLOCK_BYTES // max(1, len(keys[0])))
        dtype = np.int32 if ffpoly.prime_count_exact(q, max_deg) < 1 << 31 else np.int64
        out = np.empty((len(codes), max_deg, 3), dtype=dtype)
        above = np.arange(read + 1, max_deg + 1)
        even = np.array([ffpoly.prime_count_exact(q, a) for a in above.tolist()], dtype=dtype) - (above == d)
        for lo in range(0, len(codes), step):
            L = self.prime_symbols(d, codes[lo:lo + step], keys)
            block = out[lo:lo + step]
            for a in range(read):
                block[:, a] = _value_counts(L[bounds[a]:bounds[a + 1]].T)
            if read < max_deg:
                s = completed_prime_sums(block[:, :read - 1, 2] - block[:, :read - 1, 0], d, q, max_deg)
                if (s[:, read - 1] != block[:, read - 1, 2] - block[:, read - 1, 0]).any():
                    raise InvariantError(f"prime counts of degree {read} against P of degree {d}: "
                                         "the symbols read and the functional equation disagree")
                block[:, read:, 0] = (even - s[:, read:]) // 2
                block[:, read:, 1] = above == d
                block[:, read:, 2] = (even + s[:, read:]) // 2
        return out

    # -- character sums ---------------------------------------------------

    def char_sums(self, coefmat, plan, weights=None, segments=None):
        """sum over the rows F of coefmat of chi_D(F) = prod_{Q | D} (F/Q),
        for each square-free D of plan (a CharPlan; a D of no factor
        entry, D = 1, counts the rows), as an int64 array; with
        weights, an int array of one non-negative weight per row, the sum
        of weight times chi_D(F).  With segments, row counts that add up
        to the rows of coefmat, the sums of each run of that many rows, in
        order: a (len(segments), plan.size) array, of which the call
        without segments is the one row.

        The rows go in chunks, each read as one int8 legendre_array matrix
        L over every prime factor.  A prime D sums its row of L times the
        weights.  A D with omega >= 2 factors splits as D' Q (see
        CharPlan).  The rows of the distinct D' are products of rows of L,
        built once per chunk for all D' of one factor count at once, times
        the weights, and the sums are entries of float32 Gram blocks per
        degree of Q, between their columns in a segment and those of the
        rows of L, in pieces of a quarter chunk of columns.  Every partial
        sum is an integer of size at most chunk width times the largest
        weight (1 without weights), exact in float32 while that is at most
        2^24; chunks hold about 64 ffpoly.BLOCK_BYTES of int8 rows of L and
        of the D', and the float32 operands of a piece at most as many."""
        if weights is None:
            weights = np.broadcast_to(np.int64(1), len(coefmat))
        bounds = np.cumsum([0, *([len(coefmat)] if segments is None else segments)])
        if bounds[-1] != len(coefmat):
            raise ValueError(f"char_sums: segments of {bounds[-1]} rows for a matrix of {len(coefmat)}")
        chunk = max(1, 64 * ffpoly.BLOCK_BYTES // max(1, len(plan.qkeys) + plan.heads))
        piece = max(1, chunk // 4)  # Gram columns: float32 operands of at most a chunk's bytes
        top = int(weights.max(initial=1))
        if min(chunk, len(coefmat)) * top > 1 << 24:
            raise InvariantError(
                f"char_sums: a chunk of {chunk} rows of weight up to {top} is beyond exact float32 Gram blocks")
        sums = np.zeros((len(bounds) - 1, plan.size), dtype=np.int64)
        running = np.concatenate([[0], np.cumsum(weights)])
        sums[:, plan.unit] = (running[bounds[1:]] - running[bounds[:-1]])[:, None]
        for r in range(0, len(coefmat) if plan.qkeys else 0, chunk):
            L = self.legendre_array(coefmat[r:r + chunk], plan.qkeys)
            w = weights[r:r + chunk].astype(np.float32)
            head_rows = np.empty((plan.heads, L.shape[1]), dtype=np.float32)
            for c, rows in plan.by_count.items():
                prod = L[rows[:, 1]]
                for j in range(2, c + 1):
                    prod *= L[rows[:, j]]
                head_rows[rows[:, 0]] = prod * w
            # the segments that meet this chunk, as column ranges of L
            stop = r + L.shape[1]
            for s in range(int(np.searchsorted(bounds, r, side="right")) - 1, int(np.searchsorted(bounds, stop))):
                lo, hi = max(bounds[s], r) - r, min(bounds[s + 1], stop) - r
                sums[s, plan.p_at] += np.einsum("ij,j->i", L[:, lo:hi], w[lo:hi]).astype(np.int64)[plan.p_col]
                for a in range(lo, hi, piece):
                    b = min(a + piece, hi)
                    for at, hsel, hpos, csel, cpos in plan.grams:
                        G = head_rows[hsel, a:b] @ L[csel, a:b].astype(np.float32).T
                        sums[s, at] += G[hpos, cpos].astype(np.int64)
        return sums[0] if segments is None else sums

    # -- affine maps -----------------------------------------------------

    def _times(self, codes):
        """(len(codes), e, e) digit matrices of multiplication by the
        elements with these codes: row t holds the digits of alpha^t x."""
        digits = ffpoly._digit_rows(codes, self.e, self.p)
        return (digits.reshape(-1, 1, 1, self.e) @ self._alpha_mul[:self.e] % self.p).reshape(-1, self.e, self.e)

    def affine_codes(self, d, codes, scales, shifts):
        """The codes of u^-d F(uX + v) for the monic F of degree d <= max_deg
        with these codes, u over the nonzero element codes `scales` and v
        over the element codes `shifts`: a (len(scales), len(shifts),
        len(codes)) int64 array.  The one monic of degree 0 is fixed.

        F -> u^-d F(uX + v) is F_q-linear, hence F_p-linear on digit rows:
        row (j, t) of its matrix holds the digits of alpha^t u^-d (uX + v)^j
        below X^d.  Those of every (u, v) come from one batched F_p power
        pass over the matrices of multiplication by uX + v, from the start
        rows alpha^t u^-d, as _xrow_batch builds the X^j mod Q.  The codes
        come out of the kernel with offset 0, as the sieve's products do, so
        u^-d (uX + v)^d, monic, keeps the leading 1 implicit."""
        e, p = self.e, self.p
        scales, shifts = np.asarray(scales, dtype=np.int64), np.asarray(shifts, dtype=np.int64)
        nu, nv = len(scales), len(shifts)
        if d == 0:
            return np.zeros((nu, nv, len(codes)), dtype=np.int64)
        W = (d + 1) * e
        # multiplication by uX + v on the digit rows of degree <= d: row
        # (i, t) goes to alpha^t u at i + 1 (dropped at i = d, which no
        # (uX + v)^j with j <= d meets) and alpha^t v at i
        at = np.arange(d + 1)
        step = np.zeros((nu, nv, d + 1, d + 1, e, e), dtype=np.int64)
        step[:, :, at, at] = self._times(shifts)[None, :, None]
        step[:, :, at[:-1], at[1:]] = self._times(scales)[:, None, None]
        step = step.transpose(0, 1, 2, 4, 3, 5).reshape(nu * nv, W, W)
        start = np.zeros((nu, nv, e, W), dtype=np.int64)
        start[..., :e] = self._times([self.field.pow(int(u), -d) for u in scales])[:, None]
        maps = ffpoly._power_rows(start.reshape(nu * nv, e, W), step, W, p)[:, :, :d * e]
        mat = self._monic_rows(np.asarray(codes, dtype=np.int64), d, self.float_type(d + 1, k=d))
        S = self._kernel_matrix(maps, mat.dtype)
        out = np.empty((nu * nv, len(mat)), dtype=np.int64)
        for i, r, got in self._stacked_codes(mat, d, S, self._group(d, nu * nv, mat.dtype, len(mat), d + 1)):
            out[i:i + len(got), r:r + got.shape[1]] = got
        return out.reshape(nu, nv, -1)


class CharPlan:
    """The factorization bookkeeping of PolyTables.char_sums for `size`
    square-free D, whose prime factors are the entries (pdeg[j], pcode[j])
    of D owner[j], owners ascending (ValueError otherwise), each D's in the
    order PolyTables.factor lists them (none for D = 1).  It does not
    depend on the rows, so one plan serves every char_sums call over them.

    A D with omega >= 2 factors splits as D' Q, Q its last factor (the one
    of largest degree in the order factor gives; any order is exact, and
    this one shares the most D' between the D).  The plan holds the
    sorted prime keys (qkeys, (deg, code) int pairs), the D = 1 entries
    (unit), the prime D with their key columns (p_at, p_col), the distinct
    D' (heads of them, numbered in the lexicographic order of their key
    columns) grouped by factor count as rows [head index, key columns...]
    (by_count), and per degree of Q the Gram block's entries: the D at,
    the D' and Q selected, and each D's position in the block (grams)."""

    __slots__ = ("size", "qkeys", "unit", "p_at", "p_col", "heads", "by_count", "grams")

    def __init__(self, size, owner, pdeg, pcode):
        owner, pdeg, pcode = (np.asarray(x, dtype=np.int64) for x in (owner, pdeg, pcode))
        if (np.diff(owner) < 0).any():
            raise ValueError("CharPlan: the factors of each D must be consecutive, owners ascending")
        self.size = size
        base = int(pcode.max(initial=0)) + 1  # packs (deg, code) in key order
        keys, col = np.unique(pdeg * base + pcode, return_inverse=True)
        self.qkeys = list(zip((keys // base).tolist(), (keys % base).tolist()))
        omega = np.bincount(owner, minlength=size)
        first = np.cumsum(omega) - omega  # each D's first entry
        self.unit = np.flatnonzero(omega == 0)
        self.p_at = np.flatnonzero(omega == 1)
        self.p_col = col[first[self.p_at]]
        many = np.flatnonzero(omega >= 2)
        # the heads: every key column of a D but the last, padded with -1
        pos = np.arange(len(owner)) - first[owner]
        in_head = pos < omega[owner] - 1
        padded = np.full((size, int(omega.max(initial=1)) - 1), -1, dtype=np.int64)
        padded[owner[in_head], pos[in_head]] = col[in_head]
        distinct, head, _ = unique_rows(padded[many])
        self.heads = len(distinct)
        count = (distinct >= 0).sum(axis=1)
        self.by_count = {c: np.column_stack([np.flatnonzero(count == c), distinct[count == c, :c]])
                         for c in set(count.tolist())}
        last = first[many] + omega[many] - 1
        self.grams = []
        for a in set(pdeg[last].tolist()):  # np.unique would import numpy.ma
            sel = pdeg[last] == a
            hsel, hpos = np.unique(head[sel], return_inverse=True)
            csel, cpos = np.unique(col[last[sel]], return_inverse=True)
            self.grams.append((many[sel], hsel, hpos, csel, cpos))


#: the table of highest max_deg built so far, per field
_largest = {}


def poly_tables(field, max_deg):
    """A cached table for the field reaching degree max_deg.

    Sieve rows, factorizations and residue symbols of one degree do not
    depend on max_deg, so the largest table built so far is returned
    when it reaches max_deg; otherwise a new one is built and kept.
    Tables are keyed by the field, whose modulus fixes the element codes.
    """
    T = _largest.get(field)
    if T is None or T.max_deg < max_deg:
        T = _largest[field] = PolyTables(field, max_deg)
    return T
