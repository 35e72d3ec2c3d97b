"""Exact arithmetic over F_q and F_q[X] at desk scale.

Fields have odd prime-power order q = p^e.  Field elements are plain ints
in range(q); for e > 1 the int encodes the base-p digit vector of a
polynomial residue, so F_p embeds as the codes 0..p-1.  Polynomials are
immutable ascending coefficient tuples over a fixed field.

Everything in this module is integer-exact: counting uses Python ints and
no operation introduces floats.  Enumeration streams are deterministic
(descending-degree lexicographic order, equivalently ascending integer
code) and support index-range slicing so consumers can partition them.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import InvariantError


#: degree of the zero polynomial
NEG_INFINITY = float("-inf")

#: bytes of each block temporary in the batched passes: 2^16 int8 symbols
#: of the orbit columns in a member scan, and the kernel and Gram blocks
#: of the residue tables, sized from it
BLOCK_BYTES = 1 << 16

#: the most bytes an ExtensionField may take, estimated as 32 n e q^n
#: (tracemalloc peaks: 45 MiB at F_{3^11}, 196 MiB at F_{3^12} and F_{9^6})
EXTENSION_BYTES_CAP = 1 << 26


def _is_prime_int(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _factor_int(n):
    """Prime factorization of a small positive int as a dict {p: a}."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# ---------------------------------------------------------------------------
# Digit rows over F_p.  A field element's code is its vector of base-p
# digits; multiplication by a fixed element is F_p-linear on these rows.
# ---------------------------------------------------------------------------


def _vtrim(v):
    n = len(v)
    while n and v[n - 1] == 0:
        n -= 1
    return tuple(v[:n])


def _decode_digits(code, length, base):
    digits = []
    for _ in range(length):
        code, r = divmod(code, base)
        digits.append(r)
    return tuple(digits)


def _digit_rows(codes, length, p):
    """Base-p digit matrix (len(codes) x length) of an int array, int64."""
    out = np.empty((len(codes), length), dtype=np.int64)
    rem = np.asarray(codes, dtype=np.int64)
    for i in range(length):
        rem, out[:, i] = np.divmod(rem, p)
    return out


def _power_rows(start, step, count, p):
    """The first `count` rows of start, start @ step, start @ step^2, ...
    over F_p, each block of start's rows in turn: the rows so far times
    step^L give the next L rows, then step^L is squared.  Leading axes of
    start and step are a batch: one power pass serves every matrix."""
    rows, power = start, step
    while rows.shape[-2] < count:
        rows = np.concatenate([rows, rows @ power % p], axis=-2)
        power = power @ power % p
    return rows[..., :count, :]


# ---------------------------------------------------------------------------
# Finite fields
# ---------------------------------------------------------------------------


class FiniteField:
    """The field F_q with q = p^e, p an odd prime.

    Elements are ints in range(q).  For e == 1 arithmetic is plain modular
    arithmetic.  For e > 1 the field is ExtensionField(GF(p), e, modulus),
    modulus the least monic irreducible of degree e over F_p unless given,
    so the int encodes the base-p digits of a residue modulo it: mul and
    inv read that extension's exp/log tables, and add and neg read q x q
    and q tables built from the digits (q <= 2048 keeps them small).
    """

    def __init__(self, p, e=1, modulus=None):
        if not _is_prime_int(p):
            raise ValueError(f"characteristic {p} is not prime")
        if p == 2:
            raise ValueError("only odd characteristic is supported")
        if e < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.e = e
        self.q = p ** e
        self._squares = None
        if e == 1:
            self.modulus_coeffs = None
            return
        if self.q > 2048:
            raise ValueError(f"q = {self.q} exceeds desk scale for table-based fields")
        if modulus is not None:
            modulus = Poly(GF(p), tuple(int(c) % p for c in modulus))
        ext = ExtensionField(GF(p), e, modulus)
        self.modulus_coeffs = ext.modulus.coeffs
        self._exp = ext._exp.tolist()
        self._log = ext._log.tolist()
        digits = _digit_rows(np.arange(self.q), e, p)
        ppow = p ** np.arange(e, dtype=np.int64)
        # codes lie below q <= 2048, so int16 holds every entry, and the
        # two q x q arrays are the table and one digit's sums
        self._add_table = np.zeros((self.q, self.q), dtype=np.int16)
        column = np.empty_like(self._add_table)
        for i in range(e):
            digit = digits[:, i].astype(np.int16)
            np.add.outer(digit, digit, out=column)
            column %= p
            column *= p ** i
            self._add_table += column
        self._neg_table = ((-digits % p) @ ppow).tolist()

    # -- element arithmetic on int codes --

    def add(self, a, b):
        if self.e == 1:
            return (a + b) % self.p
        return self._add_table.item(a, b)

    def neg(self, a):
        if self.e == 1:
            return (-a) % self.p
        return self._neg_table[a]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.e == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp[self.q - 1 - self._log[a]]

    def pow(self, a, n):
        if n < 0:
            return self.pow(self.inv(a), -n)
        r, base = 1, a
        while n:
            if n & 1:
                r = self.mul(r, base)
            base = self.mul(base, base)
            n >>= 1
        return r

    def elements(self):
        return range(self.q)

    def units(self):
        return range(1, self.q)

    def chi2(self, a):
        """The quadratic character of F_q: 0 at 0, +1 on squares, -1 otherwise."""
        if a == 0:
            return 0
        if self._squares is None:
            self._squares = frozenset(self.mul(x, x) for x in self.units())
        return 1 if a in self._squares else -1

    def __eq__(self, other):
        return (
            isinstance(other, FiniteField)
            and (self.p, self.e, self.modulus_coeffs)
            == (other.p, other.e, other.modulus_coeffs)
        )

    def __hash__(self):
        return hash((self.p, self.e, self.modulus_coeffs))

    def __repr__(self):
        if self.e == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.e})"


@functools.lru_cache(maxsize=None)
def GF(p, e=1):
    """Cached constructor for F_{p^e} with the canonical modulus."""
    return FiniteField(p, e)


def field_of_order(q):
    """GF(p, e) for q = p^e; ValueError unless q is an odd prime power."""
    fac = _factor_int(q)
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    (p, e), = fac.items()
    if p == 2:
        raise ValueError(f"{q} must be an odd prime power >= 3")
    return GF(p, e)


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------


class Poly:
    """Immutable dense polynomial over a FiniteField.

    `coeffs` is the ascending tuple (c_0, c_1, ...) with no trailing zeros;
    the zero polynomial has coeffs == () and degree -inf.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", _vtrim(tuple(coeffs)))

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    # -- constructors --

    @classmethod
    def from_coeffs(cls, field, coeffs):
        cs = tuple(int(c) for c in coeffs)
        for c in cs:
            if not 0 <= c < field.q:
                raise ValueError(f"coefficient {c} out of range for q={field.q}")
        return cls(field, cs)

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def x(cls, field):
        return cls(field, (0, 1))

    @classmethod
    def constant(cls, field, c):
        return cls(field, (c % field.q,))

    @classmethod
    def monic_from_code(cls, field, degree, code):
        """The monic polynomial of `degree` whose lower coefficients are the
        base-q digits of `code` (constant term least significant)."""
        return cls(field, _decode_digits(code, degree, field.q) + (1,))

    # -- basic structure --

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY

    def is_zero(self):
        return not self.coeffs

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def is_constant(self):
        return len(self.coeffs) <= 1

    @property
    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def monic_code(self):
        """Integer code of a monic polynomial (degree implied by caller)."""
        if not self.is_monic():
            raise ValueError("monic_code requires a monic polynomial")
        q = self.field.q
        return sum(c * q ** i for i, c in enumerate(self.coeffs[:-1]))

    # -- arithmetic --

    def _check(self, other):
        if self.field != other.field:
            raise ValueError("polynomials over different fields")

    def __add__(self, other):
        self._check(other)
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = F.add(out[i], c)
        return Poly(F, out)

    def __neg__(self):
        F = self.field
        return Poly(F, tuple(F.neg(c) for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        F = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(F)
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] = F.add(out[i + j], F.mul(ai, bj))
        return Poly(F, out)

    def scale(self, c):
        F = self.field
        c %= F.q
        return Poly(F, tuple(F.mul(c, x) for x in self.coeffs))

    def __pow__(self, n):
        r = Poly.one(self.field)
        base = self
        while n:
            if n & 1:
                r = r * base
            base = base * base
            n >>= 1
        return r

    def __divmod__(self, other):
        self._check(other)
        F = self.field
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        a = list(self.coeffs)
        b = other.coeffs
        db = len(b) - 1
        inv_lead = F.inv(b[-1])
        quot = [0] * max(len(a) - db, 0)
        for i in range(len(a) - 1, db - 1, -1):
            c = F.mul(a[i], inv_lead)
            if c:
                quot[i - db] = c
                for j in range(db + 1):
                    a[i - db + j] = F.sub(a[i - db + j], F.mul(c, b[j]))
        return Poly(F, quot), Poly(F, a[:db])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def derivative(self):
        F = self.field
        return Poly(
            F,
            tuple(F.mul(i % F.p, c) for i, c in enumerate(self.coeffs) if i)
            if len(self.coeffs) > 1
            else (),
        )

    def to_monic(self):
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.leading))

    def evaluate(self, x):
        """Horner evaluation at an element of the base field."""
        F = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, x), c)
        return acc

    # -- comparisons / hashing / printing --

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field.p, self.field.e, self.coeffs))

    def __str__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(("" if c == 1 else str(c)) + "X")
            else:
                terms.append(("" if c == 1 else str(c)) + f"X^{i}")
        return "+".join(terms)

    def __repr__(self):
        return f"Poly({self.field!r}, {self})"


def poly_gcd(a, b):
    """Monic gcd;  gcd(0, 0) is the zero polynomial."""
    while not b.is_zero():
        a, b = b, a % b
    return a.to_monic()


# ---------------------------------------------------------------------------
# Predicates: square-free / Mobius / irreducibility
# ---------------------------------------------------------------------------


def is_squarefree(f):
    """True iff f is square-free (units count as square-free)."""
    if f.is_zero():
        raise ValueError("square-freeness of the zero polynomial is undefined")
    if f.is_constant():
        return True
    g = poly_gcd(f, f.derivative())
    return g.is_constant()


def factorize(f):
    """Full factorization by trial division: list of (prime, multiplicity).

    Fine at desk scale (degrees <= 10 or so); the unit factor is dropped.
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    f = f.to_monic()
    _prefetch_primes(f.field, f.degree // 2)
    out = []
    d = 1
    while f.degree >= 1:
        if 2 * d > f.degree:
            out.append((f, 1))
            break
        for p in primes(f.field, d):
            if (f % p).is_zero():
                mult = 0
                while (f % p).is_zero():
                    f = f // p
                    mult += 1
                out.append((p, mult))
        d += 1
    return out


def is_irreducible(f):
    """Primality in F_q[X] by trial division against sieved primes."""
    deg = f.degree
    if f.is_zero() or f.is_constant():
        raise ValueError("irreducibility is defined for nonconstant polynomials")
    if deg == 1:
        return True
    g = f.to_monic()
    _prefetch_primes(f.field, deg // 2)
    for d in range(1, deg // 2 + 1):
        for p in primes(f.field, d):
            if (g % p).is_zero():
                return False
    return True


def _least_irreducible(field, n):
    """The monic irreducible of degree n over field of least code."""
    monics = (Poly.monic_from_code(field, n, code) for code in range(field.q ** n))
    return next(f for f in monics if is_irreducible(f))


# ---------------------------------------------------------------------------
# Enumeration and counting
# ---------------------------------------------------------------------------


def monic_polys(field, d):
    """All monic polynomials of degree d, ascending code order."""
    return [Poly.monic_from_code(field, d, code) for code in range(field.q ** d)]


@functools.lru_cache(maxsize=None)
def primes(field, d):
    """Monic prime polynomials of degree d, ascending code order, read off
    the sieve of the residue tables (every monic linear is prime)."""
    if d < 1:
        raise ValueError(f"primes have degree >= 1, got {d}")
    if d == 1:
        codes = range(field.q)
    else:
        from ._tables import poly_tables

        codes = poly_tables(field, d).prime_codes[d].tolist()
    return tuple(Poly.monic_from_code(field, d, code) for code in codes)


def _prefetch_primes(field, d):
    """Sieve up to degree d at once before a caller asks for the primes of
    degrees 1..d in ascending order, so that the tables are not rebuilt
    once per degree."""
    if d > 1:
        primes(field, d)


def squarefree_monics(field, d):
    return [f for f in monic_polys(field, d) if is_squarefree(f)]


def enumerate_polys(field, d, kind, start=0, stop=None):
    """Ordered stream of degree-d polynomials of the given kind.

    kind is one of "monic", "prime", "squarefree-monic".  The order is
    ascending integer code (descending-degree lexicographic on printed
    coefficients), and [start:stop) slices the stream by index so callers
    can partition work deterministically.
    """
    if kind == "monic":
        if d < 0:
            raise ValueError("degree must be >= 0")
        rng = range(field.q ** d)[start:stop]
        return [Poly.monic_from_code(field, d, code) for code in rng]
    if kind == "prime":
        if d < 1:
            raise ValueError("prime enumeration needs degree >= 1")
        return list(primes(field, d)[start:stop])
    if kind == "squarefree-monic":
        if d < 0:
            raise ValueError("degree must be >= 0")
        return _squarefree_cache(field, d)[start:stop]
    raise ValueError(f"unknown enumeration kind {kind!r}")


@functools.lru_cache(maxsize=None)
def _squarefree_cache(field, d):
    return squarefree_monics(field, d)


def prime_count_exact(q, n):
    """pi_q(n) by the divisor-sum formula (1/n) sum_{d|n} mu(d) q^{n/d}."""
    if n < 1:
        raise ValueError("prime counts need n >= 1")
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            mu = _mobius_int(d)
            if mu:
                total += mu * q ** (n // d)
    if total % n:
        raise InvariantError(f"divisor sum for pi_{q}({n}) is not divisible by {n}")
    return total // n


def _mobius_int(n):
    fac = _factor_int(n)
    if any(a > 1 for a in fac.values()):
        return 0
    return (-1) ** len(fac)


def squarefree_count(q, d):
    """Number of square-free monic polynomials of degree d."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    if d <= 1:
        return q ** d
    return q ** d - q ** (d - 1)


# ---------------------------------------------------------------------------
# Quadratic residue symbols
# ---------------------------------------------------------------------------


def _chi_q_unit(field, c):
    """Quadratic character of F_q at a unit c (interpreted in the base field)."""
    return field.chi2(c % field.q)


def jacobi_symbol(f, m):
    """Jacobi symbol (f/m) for monic m, via quadratic reciprocity.

    Multiplicative in both arguments; for monic coprime A, B it satisfies
    (A/B)(B/A) = (-1)^((q-1)/2 * deg A * deg B), and a constant c has
    (c/m) = chi_q(c)^deg(m).  Returns 0 when gcd(f, m) != 1.
    """
    if m.is_zero() or not m.is_monic():
        raise ValueError("modulus must be monic and nonzero")
    field = f.field
    flip_parity = (field.q - 1) // 2  # exponent parity driver
    sign = 1
    a, b = f, m
    while True:
        if b.is_constant():
            return sign
        a = a % b
        if a.is_zero():
            return 0
        c = a.leading
        a = a.to_monic()
        if c != 1:
            s = _chi_q_unit(field, c)
            if s == -1 and b.degree % 2 == 1:
                sign = -sign
        if a.is_constant():
            return sign
        if (flip_parity * a.degree * b.degree) % 2 == 1:
            sign = -sign
        a, b = b, a


# ---------------------------------------------------------------------------
# Extension fields F_{q^n} with discrete-log tables
# ---------------------------------------------------------------------------


class ExtensionField:
    """F_{q^n} built as base[T]/(modulus), modulus the least monic
    irreducible of degree n over the base.

    Element codes are base-q digit vectors packed into ints in range(q^n);
    the base field embeds as the codes 0..q-1.  With q = p^e the base-p
    digits of a code are its K = n e coordinates over F_p, and
    multiplication by an element g is the K x K matrix M_g over F_p on
    these digit rows.  The exp table g^0, g^1, ... is the row of 1 times
    the powers of M_g, stacked by doubling, for the least code g >= 2 of
    full multiplicative order.  Multiplication, powering and the quadratic
    character run off these exp/log tables, so chi_2 is a log parity
    lookup.  FiniteField(p, e) for e > 1 is built on ExtensionField(GF(p), e).
    A field whose tables would exceed EXTENSION_BYTES_CAP is refused with a
    ValueError before anything is allocated.
    """

    def __init__(self, base, n, modulus=None):
        if n < 1:
            raise ValueError("extension degree must be >= 1")
        table_bytes = 32 * n * base.e * base.q ** n
        if table_bytes > EXTENSION_BYTES_CAP:
            raise ValueError(
                f"ExtensionField: q={base.q} with n={n} needs about {table_bytes} "
                f"bytes of tables, over the cap of {EXTENSION_BYTES_CAP}")
        self.base = base
        self.n = n
        self.q = base.q
        self.order = base.q ** n
        if modulus is None:
            modulus = _least_irreducible(base, n)
        else:
            if modulus.degree != n or not modulus.is_monic():
                raise ValueError("modulus must be monic of degree n")
            if n > 1 and not is_irreducible(modulus):
                raise ValueError("modulus is not irreducible")
        self.modulus = modulus
        self._build_tables()

    # -- raw code arithmetic (digit vectors over the base field) --

    def _decode(self, code):
        return _decode_digits(code, self.n, self.q)

    def _encode(self, digits):
        return sum(c * self.q ** i for i, c in enumerate(digits))

    def _mul_matrix(self, g):
        """M_g: row e*i + t holds the F_p digits of alpha^t X^i g mod the
        modulus, where alpha^t X^i is the element of code p^(e*i + t)."""
        F, K = self.base, self.n * self.base.e
        g_poly = Poly(F, self._decode(g))
        products = [Poly(F, self._decode(F.p ** r)) * g_poly % self.modulus for r in range(K)]
        return _digit_rows([self._encode(f.coeffs) for f in products], K, F.p)

    def _build_tables(self):
        p, Q = self.base.p, self.order
        K = self.n * self.base.e
        ppow = p ** np.arange(K, dtype=np.int64)
        one = _digit_rows([1], K, p)
        # g has full order iff 1 appears once among g^0..g^(Q-2); for n > 1
        # the codes below q are the base field, whose orders divide q - 1
        for g in range(2 if self.n == 1 else self.q, Q):
            exp = _power_rows(one, self._mul_matrix(g), Q - 1, p) @ ppow
            if np.count_nonzero(exp == 1) == 1:
                break
        else:
            raise InvariantError(f"no generator of the units of {self!r}")
        log = np.full(Q, -1, dtype=np.int64)
        log[exp] = np.arange(Q - 1)
        if log[0] != -1 or np.any(log[1:] < 0):
            raise InvariantError("generator powers do not cover the units")
        self.generator = g
        # doubled, so that a sum of two logs indexes it with no reduction
        self._exp = np.concatenate([exp, exp])
        self._log = log
        # chi2 by log parity: squares are even powers of the generator
        chi = np.where(log % 2 == 0, 1, -1).astype(np.int8)
        chi[0] = 0
        self._chi2 = chi

    # -- public ops --

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return int(self._exp[self._log[a] + self._log[b]])

    def pow(self, a, n):
        if a == 0:
            if n == 0:
                return 1
            return 0
        return int(self._exp[(self._log[a] * n) % (self.order - 1)])

    def chi2(self, a):
        return int(self._chi2[a])

    def embed_base(self, c):
        return c % self.q

    def elements(self):
        return range(self.order)

    def __repr__(self):
        return f"ExtensionField({self.base!r}, n={self.n})"
