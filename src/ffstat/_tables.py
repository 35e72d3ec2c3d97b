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

Reduction modulo a fixed monic Q is F_q-linear, hence F_p-linear on these
digit rows, so a batch reduces with one matmul against the block matrix
whose row (j, t) holds the digits of alpha^t (X^j mod Q), then subtracts
p * floor((x + 1/2) / p) from each entry and combines the residue digits
with one more matmul.  Residue codes keep their range, since
q^k = p^(ek).  There is one kernel, and it runs in its input's float
type: float64 rows reduce in float64, float32 rows in float32.

Exactness.  Every matmul entry x is a sum of products of non-negative
integers, so it and each partial sum are exact while they stay below
2^24 (float32) or 2^53 (float64).  For an integer x < 2^22 in float32,
x + 1/2 is exact and fl((x + 1/2) * fl(1/p)) lies within
(x + 1/2)/p * (2^-23 + 2^-48) < (1/2)/p of (x + 1/2)/p, which is itself
at least (1/2)/p from the nearest integer, so the floor is exact;
float64 gives the same below 2^51.  The digit combination is exact
while residue codes, below q^deg Q, stay below 2^24 (float32) or 2^53
(float64).

`PolyTables.float_type` checks these bounds in one place, with 2^21 for
float32 to keep a factor-2 margin: rows of width coefficients are e*width
digit entries, each times a matrix entry of at most p-1.  Each table
builds its own matrices (digit rows, alpha^t X^j mod Q rows, the squares
behind `chiq`) in float32 when every matmul entry they can produce stays
below 2^21 and q^max_deg < 2^24, and in float64 otherwise; the largest
such entry is chiq's, below 4 max_deg^2 e^2 (p-1)^3.  Callers that build
their own rows ask `coef_rows` for them.  The quadratic residue table of
a prime Q reduces the squares of every residue; the squares do not
depend on Q, so they are built once per degree.

Stacked kernel.  `legendre_array` takes a list of primes and returns one
int8 matrix of symbols.  The primes of each degree k reduce together:
the cached alpha^t X^j mod Q rows of a block of them are concatenated
into one matrix, and blocks of about ffpoly.BLOCK_BYTES / 32 rows reduce
against it with one matmul and the floor pass above, the block of primes
sized so that the float result stays near 4 BLOCK_BYTES, inside the
cache.  Concatenation changes no entry's arithmetic, so the bounds above
hold as they are.  The quadratic residue tables of one degree live in one
int8 store, built the same stacked way (the squares against the stacked
rows of the missing primes), and each symbol is read off it with one flat
take.  `char_sums` sums characters chi_D = prod_{Q | D} (F/Q) over a
matrix of rows for a whole list of D: a row sum of the Legendre matrix
for prime D, and for D = D' Q with omega >= 2 an entry of a float32 Gram
block between the int8 rows of the D' (products of Legendre rows) and
those of the Q of one degree.  A Gram entry is a sum of as many products
in {-1, 0, 1} as the chunk has rows, so chunks stay at most 2^24 rows
wide, where float32 is exact; a wider chunk raises InvariantError.

The sieve multiplies each prime by every monic of the complementary
degree with the same kind of matmul (the block matrix of multiplication
by the prime, in float64, whose entries stay far below chiq's) and
records, for each composite code, a smallest-degree prime factor of
least code together with its cofactor, so factoring needs no division.

Everything here is cross-checked against scalar oracles by the test
suite.
"""

from __future__ import annotations

import numpy as np

from . import ffpoly
from .errors import InvariantError


#: the most bytes of spf tables one PolyTables may hold; the sieve's
#: temporaries take about 14 times as much again (PolyTables(GF(3), 12):
#: 6.4 MB of spf, 90 MiB above the interpreter's own peak)
SIEVE_BYTES_CAP = 1 << 25


class PolyTables:
    """Sieve tables for monic polynomials over a finite field F_q.

    Provides per-degree prime code arrays, smallest-prime-factor codes
    for factorization, and cached coefficient matrices for batched
    reduction.  A table whose spf arrays would exceed SIEVE_BYTES_CAP is
    refused with a ValueError before anything is allocated.
    """

    def __init__(self, field, max_deg):
        spf_bytes = 8 * sum(field.q ** d for d in range(1, max_deg + 1))
        if spf_bytes > SIEVE_BYTES_CAP:
            raise ValueError(
                f"PolyTables: q={field.q} with max_deg={max_deg} needs {spf_bytes} "
                f"bytes of sieve tables, over the cap of {SIEVE_BYTES_CAP}")
        self.field = field
        self.p, self.e, self.q = field.p, field.e, field.q
        self.max_deg = max_deg
        # the largest matmul entry the reductions meet is chiq's: squares of
        # residues of degree < k <= max_deg, taken over F_p[alpha, X], have
        # (2k-1)(2e-1) digit entries up to k e (p-1)^2
        self.dtype = self.float_type(2 * max_deg, 2 * max_deg * self.e * (self.p - 1) ** 2)
        self._ppow = np.array([self.p ** i for i in range(self.e * max_deg)], dtype=np.int64)
        # residue digit weights p^0..p^(e max_deg - 1), exact in self.dtype
        self._ppow_f = self._ppow.astype(self.dtype)
        # alpha^0..alpha^(2e-2) as element codes (alpha has code p)
        self._alpha = [1]
        for _ in range(2 * self.e - 2):
            self._alpha.append(field.mul(self._alpha[-1], self.p))
        self._sieve()
        self._square_cache = {}
        self._coefmat_cache = {}
        self._chiq_tabs = {}  # degree -> (int8 table store, rows used)
        self._chiq_row = {}  # qkey -> its row in the store of its degree
        self._xrow_cache = {}
        self._stack_cache = {}

    # -- digit rows -----------------------------------------------------

    def _monic_rows(self, codes, d):
        """Digit rows of the monic polynomials of degree d with these codes."""
        e = self.e
        rows = np.zeros((len(codes), (d + 1) * e), dtype=np.int64)
        rows[:, : d * e] = ffpoly._digit_rows(codes, d * e, self.p)
        rows[:, d * e] = 1
        return rows

    def _element_rows(self, codes, nrows):
        """The base-p digits of an int array of element codes, e per entry
        in order, laid out as nrows rows."""
        return ffpoly._digit_rows(np.ravel(codes), self.e, self.p).reshape(nrows, -1)

    # -- sieve ----------------------------------------------------------

    def _mul_matrix(self, pcoeffs, m, d):
        """Block matrix of multiplication by the polynomial with element
        codes pcoeffs: row (i, t) holds the digits of alpha^t X^i times it,
        for i <= m, truncated to the coefficients below X^d."""
        F, e = self.field, self.e
        codes = [[F.mul(c, a) for c in pcoeffs] for a in self._alpha[:e]]
        blocks = self._element_rows(codes, e)  # [t, e j + s]: digit s of alpha^t c_j
        mat = np.zeros(((m + 1) * e, (d + 1) * e), dtype=np.float64)
        for i in range(m + 1):
            mat[i * e:(i + 1) * e, i * e:(i + len(pcoeffs)) * e] = blocks
        return mat[:, : d * e]

    def _sieve(self):
        q, D, e = self.q, self.max_deg, self.e
        # spf[d][code] = a * q^D + pcode * q^(d-a) + cofactor code, for the
        # smallest-degree prime factor (a, pcode) of least code; 0 if prime
        self.spf = {d: np.zeros(q ** d, dtype=np.int64) for d in range(1, D + 1)}
        self.prime_codes = {1: np.arange(q, dtype=np.int64)}
        pack = q ** D
        for d in range(2, D + 1):
            spf_d = self.spf[d]
            # the last write wins, so primes go in descending order
            ppow = self._ppow[: d * e].astype(np.float64)
            for a in range(d // 2, 0, -1):
                m = d - a
                cofactors = np.arange(q ** m, dtype=np.int64)
                mult = self._monic_rows(cofactors, m).astype(np.float64)
                for pcode in self.prime_codes[a][::-1].tolist():
                    pco = ffpoly._decode_digits(pcode, a, q) + (1,)
                    prod = mult @ self._mul_matrix(pco, m, d)
                    prod -= self.p * np.floor((prod + 0.5) * (1.0 / self.p))
                    codes = (prod @ ppow).astype(np.int64)
                    spf_d[codes] = a * pack + pcode * q ** m + cofactors
            self.prime_codes[d] = np.nonzero(spf_d == 0)[0].astype(np.int64)

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

    def float_type(self, width, entry=None):
        """The float type in which reduce_codes is exact on rows of `width`
        coefficients, that is e*width digit entries in 0..entry (default
        p-1): float32 while every matmul entry stays below 2^21 and residue
        codes below 2^24, else float64 while they stay below 2^51 and 2^53
        (see the module docstring)."""
        p, e = self.p, self.e
        top = e * width * (p - 1 if entry is None else entry) * (p - 1)
        codes = p ** (e * self.max_deg)
        if top < 2 ** 21 and codes < 2 ** 24:
            return np.float32
        if top < 2 ** 51 and codes < 2 ** 53:
            return np.float64
        raise ValueError(
            f"PolyTables: q={p ** e} with max_deg={self.max_deg} is beyond exact "
            f"float64 residue reduction (matmul entries up to {top}, "
            f"residue codes up to {codes})")

    def coef_rows(self, polys):
        """Digit rows of arbitrary polynomials, zero-padded to the widest,
        in the float type float_type gives that width."""
        width = max(len(f.coeffs) for f in polys)
        codes = np.zeros((len(polys), width), dtype=np.int64)
        for i, f in enumerate(polys):
            codes[i, : len(f.coeffs)] = f.coeffs
        return self._element_rows(codes, len(polys)).astype(self.float_type(width))

    def monic_coefmat(self, d):
        """(q^d x (d+1)e) digit rows of all monic of degree d, in the
        table's float type and column-major, so that the kernel reads
        its transpose as one contiguous block."""
        key = ("monic", d)
        if key not in self._coefmat_cache:
            rows = self._monic_rows(np.arange(self.q ** d), d)
            self._coefmat_cache[key] = rows.astype(self.dtype, order="F")
        return self._coefmat_cache[key]

    def prime_coefmat(self, d):
        """The rows of monic_coefmat(d) that are prime, in the same layout."""
        key = ("prime", d)
        if key not in self._coefmat_cache:
            rows = self._monic_rows(self.prime_codes[d], d)
            self._coefmat_cache[key] = rows.astype(self.dtype, order="F")
        return self._coefmat_cache[key]

    def _xpow_rows(self, qkey, nrows):
        """Array whose entry [j, u] holds the digits of alpha^u (X^j mod Q),
        for u < 2e - 1 (the squares in chiq reach alpha^(2e-2)).

        The first build covers every width the table's own rows need (the
        monic and prime rows up to max_deg, chiq's 2k - 1 squares), so one
        build serves Q; only wider coef_rows callers rebuild."""
        k, code = qkey
        cached = self._xrow_cache.get(qkey)
        if cached is None or cached.shape[0] < nrows:
            F, e, p = self.field, self.e, self.p
            n, K = max(nrows, 2 * k - 1, self.max_deg + 1), k * e
            # C, multiplication by X mod Q: row (i, t) holds the digits of
            # alpha^t X^(i+1) mod Q, a unit row below the top coefficient
            C = np.eye(K, K, e, dtype=np.int64)
            neg_q = [F.neg(c) for c in ffpoly._decode_digits(code, k, self.q)]
            C[K - e:] = self._element_rows([[F.mul(a, c) for c in neg_q] for a in self._alpha[:e]], e)
            # rows (j, t): the unit rows alpha^t times C^j
            rows = ffpoly._power_rows(np.eye(e, K, dtype=np.int64), C, n * e, p).reshape(n, e, K)
            blocks = [rows]
            for a in self._alpha[e:]:
                # alpha^u for u >= e: digit row t of M holds alpha^u alpha^t
                M = self._element_rows([F.mul(a, t) for t in self._alpha[:e]], e)
                blocks.append((rows[:, 0].reshape(n, k, e) @ M % p).reshape(n, 1, K))
            cached = self._xrow_cache[qkey] = np.concatenate(blocks, axis=1).astype(self.dtype)
        return cached[:nrows]

    def _check_rows(self, coefmat, caller):
        """The width, in coefficients, of coefmat's rows; InvariantError
        when they are float32 at a width float_type does not admit."""
        width = -(-coefmat.shape[1] // self.e)
        if coefmat.dtype == np.float32 and self.float_type(width) is not np.float32:
            raise InvariantError(
                f"{caller}: float32 rows of width {width} are not exact "
                f"at q={self.q} with max_deg={self.max_deg}")
        return width

    def _qkey_rows(self, qkey, width):
        """(width e x k e) rows of alpha^t X^j mod Q digits, t < e: the
        matrix that maps a digit row of width coefficients to Q's residue
        digits."""
        return self._xpow_rows(qkey, width)[:, : self.e].reshape(width * self.e, -1)

    def reduce_codes(self, coefmat, qkey):
        """Residue codes modulo the prime Q given by qkey=(deg, code).

        Runs in coefmat's float type.  float64 rows may hold any integers
        whose matmul entries stay below 2^51; float32 rows hold entries in
        0..p-1 at a width float_type admits in float32."""
        width = self._check_rows(coefmat, "reduce_codes")
        R = self._qkey_rows(qkey, width)[: coefmat.shape[1]]
        return self._reduce(coefmat, R, qkey[0])[0]

    def _reduce(self, mat, R, k):
        """The kernel: residue codes of the rows of mat against the stacked
        rows R of alpha^t X^j mod Q digits of m primes Q of degree k, column
        t m + i holding digit t of the i-th Q; an (m, rows) int64 array."""
        ppow = self._ppow_f[: k * self.e]
        if mat.dtype != R.dtype:
            R = R.astype(mat.dtype)
            ppow = ppow.astype(mat.dtype)
        p = self.p
        res = R.T @ mat.T  # (k e m, rows); BLAS reads both transposes in place
        # res -= p * floor((res + 1/2) / p), with one temporary
        quot = res + 0.5
        quot *= 1.0 / p
        np.floor(quot, out=quot)
        quot *= p
        res -= quot
        rows = res.shape[1]
        return (ppow @ res.reshape(k * self.e, -1)).astype(np.int64).reshape(-1, rows)

    def _stacked(self, keys, width):
        """(R, offsets) for the primes keys of one degree: their _qkey_rows
        stacked as one (len(keys), width e, k e) array, at least width
        coefficients wide, and the flat offset of each prime's row in the
        degree's chiq store, as a column.  Cached per tuple of keys, since
        l_suite asks for the same primes at each row degree; the first
        build covers the table's own rows (max_deg + 1 wide)."""
        cached = self._stack_cache.get(keys)
        if cached is None or cached[0] < width:
            tab, rows = self.chiq(keys)
            width = max(width, self.max_deg + 1)
            R = np.array([self._qkey_rows(key, width) for key in keys])
            cached = self._stack_cache[keys] = width, R, rows[:, None] * tab.shape[1]
        return cached[1:]

    def _stacked_codes(self, mat, k, R):
        """Residue codes of mat's rows modulo the primes of degree k whose
        rows for _reduce are stacked in R (one prime per first index, at
        least mat's columns of rows each), in cache blocks: about
        ffpoly.BLOCK_BYTES / 32 rows (2048 at 64 KiB) against as many
        primes as keep the float result near 4 BLOCK_BYTES.  Yields (i, r, codes), codes[a, b] the
        residue of row r + b modulo prime i + a."""
        ncols, m, K = mat.shape[1], R.shape[0], R.shape[2]
        step = max(1, ffpoly.BLOCK_BYTES // 32)
        qstep = max(1, 4 * ffpoly.BLOCK_BYTES // (K * min(step, len(mat)) * mat.dtype.itemsize))
        for i in range(0, m, qstep):
            # the block's columns digit-major, as _reduce reads them
            block = R[i:i + qstep, :ncols].transpose(1, 2, 0).reshape(ncols, -1)
            for r in range(0, len(mat), step):
                yield i, r, self._reduce(mat[r:r + step], block, k)

    # -- quadratic residue tables ----------------------------------------

    def _squares(self, k):
        """The squares of all q^k residues of degree < k, taken over
        F_p[alpha, X]: row r holds at (m, u) the coefficient of
        alpha^u X^m, u < 2e - 1, in the square of r's digit polynomial
        (digit e*i + s times digit e*j + t lands on alpha^(s+t) X^(i+j))."""
        e, nu, K = self.e, len(self._alpha), k * self.e
        digits = ffpoly._digit_rows(np.arange(self.q ** k), K, self.p).astype(self.dtype)
        sq = np.zeros((len(digits), (2 * k - 1) * nu), dtype=self.dtype)
        for a in range(K):
            # digit a times digits b >= a, weight 2 off the diagonal
            (i, s), (j, t) = divmod(a, e), np.divmod(np.arange(a, K), e)
            cols = (i + j) * nu + s + t
            place = np.zeros((K - a, sq.shape[1]), dtype=self.dtype)
            place[np.arange(K - a), cols] = 2
            place[0, cols[0]] = 1  # digit a squared
            sq += (digits[:, a:a + 1] * digits[:, a:]) @ place
        return sq

    def chiq(self, qkeys):
        """Quadratic residue tables of primes Q of one degree k, given by
        qkeys=[(k, code), ...]: (tab, rows), tab an int8 array whose row
        rows[i] holds (r/Q_i) in {-1, 0, 1} at each residue code r mod Q_i.

        tab is the degree's table store, shared by every call.  The
        missing tables are built together: the squares of all residues,
        reduced against the stacked rows of their primes."""
        k = qkeys[0][0]
        tab, used = self._chiq_tabs.get(k, (None, 0))
        new = [key for key in dict.fromkeys(qkeys) if key not in self._chiq_row]
        if new:
            n, K = self.q ** k, k * self.e
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
            R = np.array([self._xpow_rows(key, 2 * k - 1).reshape(-1, K) for key in new])
            for i, r, codes in self._stacked_codes(squares, k, R):
                block[np.arange(i, i + len(codes))[:, None], codes] = 1
            block[:, 0] = 0
            for key in new:
                self._chiq_row[key] = used
                used += 1
            self._chiq_tabs[k] = tab, used
        return tab, np.array([self._chiq_row[key] for key in qkeys], dtype=np.int64)

    def legendre_array(self, coefmat, qkeys):
        """(F/Q) for every prime Q given by qkeys=[(deg, code), ...] and
        every row F of coefmat: an int8 (len(qkeys), rows) matrix.

        The primes of each degree reduce together (_stacked_codes) and
        each symbol is read off the stacked chiq tables with one flat
        take.  float32 rows must be at a width float_type admits."""
        width = self._check_rows(coefmat, "legendre_array")
        qkeys = [(int(k), int(code)) for k, code in qkeys]
        groups = {}
        for i, (k, _) in enumerate(qkeys):
            groups.setdefault(k, []).append(i)
        # rows of out by degree, put back in qkeys order at the end
        out = np.empty((len(qkeys), len(coefmat)), dtype=np.int8)
        start = 0
        for k, idx in groups.items():
            keys = tuple(qkeys[i] for i in idx)
            R, offsets = self._stacked(keys, width)
            tab = self._chiq_tabs[k][0]
            for i, r, codes in self._stacked_codes(coefmat, k, R):
                codes += offsets[i:i + len(codes)]
                out[start + i:start + i + len(codes), r:r + codes.shape[1]] = tab.take(codes)
            start += len(keys)
        order = [i for idx in groups.values() for i in idx]
        if order != sorted(order):
            out[order] = out.copy()
        return out

    # -- character sums ---------------------------------------------------

    def char_sums(self, coefmat, factorizations):
        """sum over the rows F of coefmat of chi_D(F) = prod_{Q | D} (F/Q),
        for each square-free D given by its factorization, a list of
        (deg, code) tuples as factor gives it (the empty one, D = 1, counts
        the rows), as an int64 array.

        The rows go in chunks, each read as one legendre_array matrix L
        over every prime factor.  A prime D sums its row of L.  A D with
        omega >= 2 factors splits as D' Q, Q its last factor (the one of
        largest degree in the order factor gives; any order is exact, and
        this one shares the most D' between the D).  The int8 rows of the
        distinct D' are products of rows of L, built for all D' of one
        factor count at once, and the sums are entries of one float32 Gram
        block per degree of Q.  A Gram entry is a sum of chunk-width
        products in {-1, 0, 1}, exact in float32 while the chunk width is
        at most 2^24; chunks hold about 64 ffpoly.BLOCK_BYTES of int8 rows
        of L and of the D'."""
        qkeys = sorted({key for fac in factorizations for key in fac})
        col = {key: i for i, key in enumerate(qkeys)}
        sums = np.zeros(len(factorizations), dtype=np.int64)
        single, heads, by_last = [], {}, {}
        for i, fac in enumerate(factorizations):
            if len(fac) >= 2:
                h = heads.setdefault(tuple(fac[:-1]), len(heads))
                by_last.setdefault(fac[-1][0], []).append((i, h, col[fac[-1]]))
            elif fac:
                single.append((i, col[fac[0]]))
            else:
                sums[i] = len(coefmat)
        p_at, p_col = np.array(single, dtype=np.int64).reshape(-1, 2).T
        by_count = {}
        for head, h in heads.items():
            by_count.setdefault(len(head), []).append([h] + [col[key] for key in head])
        by_count = {c: np.array(rows, dtype=np.int64) for c, rows in by_count.items()}
        grams = []
        for trip in by_last.values():
            at, h, c = np.array(trip, dtype=np.int64).T
            hsel, hpos = np.unique(h, return_inverse=True)
            csel, cpos = np.unique(c, return_inverse=True)
            grams.append((at, hsel, hpos, csel, cpos))
        chunk = max(1, 64 * ffpoly.BLOCK_BYTES // max(1, len(qkeys) + len(heads)))
        if min(chunk, len(coefmat)) > 1 << 24:
            raise InvariantError(f"char_sums: a chunk of {chunk} rows is beyond exact float32 Gram blocks")
        for r in range(0, len(coefmat) if qkeys else 0, chunk):
            L = self.legendre_array(coefmat[r:r + chunk], qkeys)
            sums[p_at] += L.sum(axis=1, dtype=np.int32)[p_col]
            head_rows = np.empty((len(heads), L.shape[1]), dtype=np.int8)
            for c, rows in by_count.items():
                prod = L[rows[:, 1]]
                for j in range(2, c + 1):
                    prod *= L[rows[:, j]]
                head_rows[rows[:, 0]] = prod
            for at, hsel, hpos, csel, cpos in grams:
                G = head_rows[hsel].astype(np.float32) @ L[csel].astype(np.float32).T
                sums[at] += G[hpos, cpos].astype(np.int64)
        return sums


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
