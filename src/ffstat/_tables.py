"""Vectorized residue/character tables over F_q[X] for prime q.

Internal engine behind the batched L-function computations.  Monic
polynomials of degree d are integer codes in range(q^d) (lower
coefficients as base-q digits, leading 1 implicit), matching the
enumeration order in :mod:`ffstat.ffpoly`.

Reduction modulo a fixed monic Q is GF(q)-linear in the coefficient
vector, so a batch reduces with one matmul against the matrix of X^j
mod Q rows, then subtracts q * floor((x + 1/2) / q) from each entry and
combines the residue digits with one more matmul.  There is one kernel,
and it runs in its input's float type: float64 rows reduce in float64,
float32 rows in float32.

Exactness.  Every matmul entry x is a sum of products of non-negative
integers, so it and each partial sum are exact while they stay below
2^24 (float32) or 2^53 (float64).  For an integer x < 2^22 in float32,
x + 1/2 is exact and fl((x + 1/2) * fl(1/q)) lies within
(x + 1/2)/q * (2^-23 + 2^-48) < (1/2)/q of (x + 1/2)/q, which is itself
at least (1/2)/q from the nearest integer, so the floor is exact;
float64 gives the same below 2^51.  The digit combination is exact
while residue codes, below q^deg Q, stay below 2^24 (float32) or 2^53
(float64).

`PolyTables.float_type` checks these bounds in one place, with 2^21 for
float32 to keep a factor-2 margin.  Each table builds its own matrices
(coefficient rows, X^j mod Q rows, the squares behind `chiq`) in
float32 when every matmul entry they can produce stays below 2^21 and
q^max_deg < 2^24, and in float64 otherwise; the largest such entry is
chiq's, below 4 max_deg^2 (q-1)^3.  Callers that build their own rows
ask `float_type` for the type of their width.  Quadratic residue tables
per prime come from squaring every residue in one batch.

Everything here is cross-checked against the scalar paths in ffpoly by
the test suite.
"""

from __future__ import annotations

import numpy as np

from . import ffpoly
from .errors import InvariantError


class PolyTables:
    """Sieve tables for monic polynomials over a prime field F_q.

    Provides per-degree prime code arrays, smallest-prime-factor codes
    for factorization, and cached coefficient matrices for batched
    reduction.
    """

    def __init__(self, q, max_deg):
        if not ffpoly._is_prime_int(q):
            raise ValueError("PolyTables requires prime q")
        self.q = q
        self.max_deg = max_deg
        # the largest matmul entry reduce_codes meets is chiq's: 2k-1
        # square coefficients up to k(q-1)^2 against X^j mod Q entries up
        # to q-1, for Q of degree k <= max_deg
        self.dtype = self.float_type(2 * max_deg, 2 * max_deg * (q - 1) ** 2)
        self.field = ffpoly.GF(q)
        self._qpow = np.array([q ** i for i in range(max_deg + 2)], dtype=np.int64)
        # residue digit weights q^0..q^(max_deg-1), exact in self.dtype
        self._qpow_f = self._qpow[:max_deg].astype(self.dtype)
        self._sieve()
        self._digit_cache = {}
        self._coefmat_cache = {}
        self._chiq_cache = {}
        self._xrow_cache = {}

    # -- sieve ----------------------------------------------------------

    def _digits(self, codes, length):
        """Base-q digit matrix (len(codes) x length), int64."""
        out = np.empty((len(codes), length), dtype=np.int64)
        rem = np.asarray(codes, dtype=np.int64)
        for i in range(length):
            rem, out[:, i] = np.divmod(rem, self.q)
        return out

    def _sieve(self):
        q, D = self.q, self.max_deg
        # spf[d][code] = packed (deg, code) of a smallest-degree prime factor
        self.spf = {d: np.zeros(q ** d, dtype=np.int64) for d in range(1, D + 1)}
        self.prime_codes = {1: np.arange(q, dtype=np.int64)}
        pack = q ** D
        for d in range(2, D + 1):
            spf_d = self.spf[d]
            for a in range(1, d // 2 + 1):
                mdeg = d - a
                mult_digits = self._digits(np.arange(q ** mdeg), mdeg)
                mult_full = np.hstack(
                    [mult_digits, np.ones((q ** mdeg, 1), dtype=np.int64)]
                )
                for pcode in self.prime_codes[a]:
                    pco = self._prime_coeffs(a, int(pcode))
                    prod = np.zeros((q ** mdeg, d + 1), dtype=np.int64)
                    for j, pj in enumerate(pco):
                        if pj:
                            prod[:, j : j + mdeg + 1] += pj * mult_full
                    prod %= q
                    codes = prod[:, :d] @ self._qpow[:d]
                    packed = a * pack + int(pcode)
                    cur = spf_d[codes]
                    spf_d[codes] = np.where(cur == 0, packed, cur)
            self.prime_codes[d] = np.nonzero(spf_d == 0)[0].astype(np.int64)

    def _prime_coeffs(self, deg, code):
        digits = []
        for _ in range(deg):
            code, r = divmod(code, self.q)
            digits.append(r)
        return tuple(digits) + (1,)

    def factor(self, deg, code):
        """Factor a monic square-free polynomial into [(deg, code), ...].

        Returns None when a repeated factor is found (not square-free).
        """
        q = self.q
        pack = q ** self.max_deg
        out = []
        while deg > 0:
            packed = int(self.spf[deg][code]) if deg > 1 else 0
            if deg == 1 or packed == 0:
                out.append((deg, code))
                break
            a, pcode = divmod(packed, pack)
            out.append((a, pcode))
            pco = self._prime_coeffs(a, pcode)
            fco = list(self._prime_coeffs(deg, code))
            # synthetic division fco / pco
            quot = [0] * (deg - a + 1)
            for i in range(deg, a - 1, -1):
                c = fco[i] % q
                quot[i - a] = c
                if c:
                    for j in range(a + 1):
                        fco[i - a + j] = (fco[i - a + j] - c * pco[j]) % q
            if any(fco[:a]):
                raise InvariantError("spf does not divide")
            deg -= a
            code = sum(c * q ** i for i, c in enumerate(quot[:deg]))
        seen = set()
        for fac in out:
            if fac in seen:
                return None
            seen.add(fac)
        return out

    # -- batched reduction ----------------------------------------------

    def float_type(self, width, entry=None):
        """The float type in which reduce_codes is exact on rows of `width`
        entries in 0..entry (default q-1): float32 while every matmul entry
        stays below 2^21 and residue codes below 2^24, else float64 while
        they stay below 2^51 and 2^53 (see the module docstring)."""
        q = self.q
        top = width * (q - 1 if entry is None else entry) * (q - 1)
        codes = q ** self.max_deg
        if top < 2 ** 21 and codes < 2 ** 24:
            return np.float32
        if top < 2 ** 51 and codes < 2 ** 53:
            return np.float64
        raise ValueError(
            f"PolyTables: q={q} with max_deg={self.max_deg} is beyond exact "
            f"float64 residue reduction (matmul entries up to {top}, "
            f"residue codes up to {codes})")

    def monic_coefmat(self, d):
        """(q^d x (d+1)) coefficient matrix of all monic of degree d, in
        the table's float type and column-major, so that reduce_codes reads
        its transpose as one contiguous block."""
        key = ("monic", d)
        if key not in self._coefmat_cache:
            digits = self._digits(np.arange(self.q ** d), d)
            full = np.hstack([digits, np.ones((self.q ** d, 1), dtype=np.int64)])
            self._coefmat_cache[key] = full.astype(self.dtype, order="F")
        return self._coefmat_cache[key]

    def prime_coefmat(self, d):
        """The rows of monic_coefmat(d) that are prime, in the same layout."""
        key = ("prime", d)
        if key not in self._coefmat_cache:
            codes = self.prime_codes[d]
            digits = self._digits(codes, d)
            full = np.hstack([digits, np.ones((len(codes), 1), dtype=np.int64)])
            self._coefmat_cache[key] = full.astype(self.dtype, order="F")
        return self._coefmat_cache[key]

    def _xpow_rows(self, qkey, nrows):
        """Matrix whose row j holds the coefficients of X^j mod Q."""
        k, code = qkey
        cached = self._xrow_cache.get(qkey)
        if cached is None or cached.shape[0] < nrows:
            pco = self._prime_coeffs(k, code)
            rows = np.zeros((max(nrows, k), k), dtype=self.dtype)
            cur = [0] * k
            cur[0] = 1
            for j in range(rows.shape[0]):
                rows[j] = cur
                top = cur[k - 1]
                cur = [0] + cur[:-1]
                if top:
                    for i in range(k):
                        cur[i] = (cur[i] - top * pco[i]) % self.q
            self._xrow_cache[qkey] = rows
            cached = rows
        return cached[:nrows]

    def reduce_codes(self, coefmat, qkey):
        """Residue codes modulo the prime Q given by qkey=(deg, code).

        Runs in coefmat's float type.  float64 rows may hold any integers
        whose matmul entries stay below 2^51; float32 rows hold entries in
        0..q-1 at a width float_type admits in float32, or are the table's
        own chiq squares."""
        k = qkey[0]
        width = coefmat.shape[1]
        R = self._xpow_rows(qkey, width)
        qpow = self._qpow_f[:k]
        if coefmat.dtype == np.float32 and self.float_type(width) is not np.float32:
            raise InvariantError(
                f"reduce_codes: float32 rows of width {width} are not exact "
                f"at q={self.q} with max_deg={self.max_deg}")
        if coefmat.dtype != R.dtype:
            R = R.astype(coefmat.dtype)
            qpow = qpow.astype(coefmat.dtype)
        q = self.q
        res = R.T @ coefmat.T  # (k, rows); BLAS reads both transposes in place
        # res -= q * floor((res + 1/2) / q), with one temporary
        quot = res + 0.5
        quot *= 1.0 / q
        np.floor(quot, out=quot)
        quot *= q
        res -= quot
        return (qpow @ res).astype(np.int64)

    # -- quadratic residue tables ----------------------------------------

    def chiq(self, qkey):
        """int8 table over residue codes mod prime Q: (r/Q) in {-1, 0, 1}."""
        tab = self._chiq_cache.get(qkey)
        if tab is not None:
            return tab
        k, code = qkey
        q = self.q
        n = q ** k
        digits = self._digit_cache.get(k)
        if digits is None:
            digits = self._digits(np.arange(n), k).astype(self.dtype)
            self._digit_cache[k] = digits
        # batch squares of all residues
        sq = np.zeros((n, 2 * k - 1), dtype=self.dtype)
        for i in range(k):
            sq[:, 2 * i] += digits[:, i] * digits[:, i]
            for j in range(i + 1, k):
                sq[:, i + j] += 2.0 * digits[:, i] * digits[:, j]
        sq_codes = self.reduce_codes(sq, qkey)
        tab = np.full(n, -1, dtype=np.int8)
        tab[sq_codes] = 1
        tab[0] = 0
        self._chiq_cache[qkey] = tab
        return tab

    def legendre_array(self, coefmat, qkey):
        """(F/Q) for every row F of coefmat, as int8."""
        return self.chiq(qkey)[self.reduce_codes(coefmat, qkey)]

    def prime_char_sums(self, factorizations, n):
        """sum over the monic primes P of degree n of chi_D(P), for each
        square-free D given by its factorization [(deg, code), ...]:
        chi_D(P) is the product of (P/Q) over the prime factors Q of D
        (1 for D = 1, whose factorization is empty)."""
        pmat = self.prime_coefmat(n)
        legp = {}
        sums = []
        for fac in factorizations:
            arr = None
            for qkey in fac:
                leg = legp.get(qkey)
                if leg is None:
                    leg = legp[qkey] = self.legendre_array(pmat, qkey)
                arr = leg if arr is None else arr * leg
            sums.append(len(pmat) if arr is None else int(arr.sum(dtype=np.int64)))
        return sums


#: the table of highest max_deg built so far, per q
_largest = {}


def poly_tables(q, max_deg):
    """A cached table for q reaching degree max_deg.

    Sieve rows, factorizations and residue symbols of one degree do not
    depend on max_deg, so the largest table built so far is returned
    when it reaches max_deg; otherwise a new one is built and kept.
    """
    T = _largest.get(q)
    if T is None or T.max_deg < max_deg:
        T = _largest[q] = PolyTables(q, max_deg)
    return T
