"""Biquadratic curve families over F_q and their Frobenius data.

A family member is a triple (f1, f2, f3) of square-free, pairwise coprime
polynomials (f3 monic; all three monic in the "monic" variant) whose
degree pattern satisfies the genus-length condition L(d1, d2, d3) = g+3,
excluding the degenerate degree multisets {g+3,0,0} and {g+2,0,0} that
collapse to hyperelliptic curves (only reachable when g is odd).

Point counts are defined by the quadratic character sum over P^1(F_{q^n}):

    N_n = sum_x (1 + chi2(f1*f3(x)) + chi2(f2*f3(x)) + chi2(f1*f2(x)))

where chi2 at infinity is chi2(leading coefficient) for even degree and 0
for odd.  T_n = q^n+1-N_n is the integer q^{n/2} Tr(Theta_C^n), and the
zeta numerator P_C(u) of degree 2g is recovered from T_1..T_g by Newton's
identities plus the functional equation, with an independent T_{g+1}
consistency check.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import ffpoly
from ._tables import poly_tables
from .errors import InvariantError
from .lfunc import power_sums, squarefree_part

MONIC, FULL = "monic", "full"


def genus_length(d1, d2, d3):
    """L(d1,d2,d3): total degree, plus 1 unless d1+d3 and d2+d3 are both even."""
    bump = 0 if (d1 + d3) % 2 == 0 and (d2 + d3) % 2 == 0 else 1
    return d1 + d2 + d3 + bump


def admissible_patterns(g):
    """(kept, excluded) ordered degree triples with L = g+3.

    Candidates are exhausted over d1+d2+d3 <= g+3 rather than listed in
    closed form; `excluded` holds the ones rejected by the degenerate
    multiset rule.
    """
    target = g + 3
    kept, excluded = [], []
    for total in range(target + 1):
        for d1 in range(total + 1):
            for d2 in range(total - d1 + 1):
                d3 = total - d1 - d2
                if genus_length(d1, d2, d3) != target:
                    continue
                if sorted((d1, d2, d3)) in ([0, 0, g + 3], [0, 0, g + 2]):
                    excluded.append((d1, d2, d3))
                else:
                    kept.append((d1, d2, d3))
    return kept, excluded


@dataclass(frozen=True)
class CurveTriple:
    """One family member; validates the defining conditions on construction."""

    f1: ffpoly.Poly
    f2: ffpoly.Poly
    f3: ffpoly.Poly
    variant: str = MONIC

    def __post_init__(self):
        f1, f2, f3 = self.f1, self.f2, self.f3
        if self.variant not in (MONIC, FULL):
            raise ValueError(f"unknown variant {self.variant!r}")
        for f in (f1, f2, f3):
            if f.is_zero() or not ffpoly.is_squarefree(f):
                raise ValueError("family members must be nonzero and square-free")
        if not f3.is_monic():
            raise ValueError("f3 must be monic")
        if self.variant == MONIC and not (f1.is_monic() and f2.is_monic()):
            raise ValueError("monic variant requires monic f1, f2")
        for a, b in ((f1, f2), (f1, f3), (f2, f3)):
            if not ffpoly.poly_gcd(a, b).is_constant():
                raise ValueError("family members must be pairwise coprime")
        g = self.genus
        degs = sorted(int(f.degree) for f in (f1, f2, f3))
        if degs in ([0, 0, g + 3], [0, 0, g + 2]):
            raise ValueError("degenerate degree multiset (hyperelliptic)")

    @property
    def field(self):
        return self.f1.field

    @property
    def genus(self):
        return genus_length(*(int(f.degree) for f in (self.f1, self.f2, self.f3))) - 3

    def pair_products(self):
        """(f1*f3, f2*f3, f1*f2), the three quadratic twists of the cover."""
        return self.f1 * self.f3, self.f2 * self.f3, self.f1 * self.f2


@dataclass(frozen=True)
class CurveData:
    """Exact point counts and traces; P_C present once reconstructed."""

    N: tuple
    T: tuple
    pc: Optional[tuple] = None

    def n_from_pc(self, q, n):
        """q^n + 1 - (power sum of P_C reciprocal roots), exact."""
        if self.pc is None:
            raise ValueError("no zeta numerator attached")
        return q ** n + 1 - (power_sums(self.pc, n)[-1] if n else 0)


# ---------------------------------------------------------------------------
# Family enumeration
# ---------------------------------------------------------------------------


class MonicFamily(NamedTuple):
    """The monic family as index rows.

    `polys` holds the square-free monic polynomials of every degree the
    kept patterns use, concatenated by degree; row i of the (N, 3) int64
    array `rows` indexes (f1, f2, f3) of member i.
    """

    polys: tuple
    rows: np.ndarray


@functools.lru_cache(maxsize=None)
def _prime_bits(field):
    """Bit position of every prime factor met so far, keyed (degree, code);
    shared so that masks from separate calls can be compared."""
    return {}


#: the most codes q^d that squarefree_masks scans: a mask has a bit per
#: prime met so far, so masks grow about 5x per degree (17 MiB at 3^10, 86 MiB at 3^11)
SQUAREFREE_CODES_CAP = 3 ** 10


def check_squarefree_degree(field, d):
    """ValueError when squarefree_masks(field, d) would pass SQUAREFREE_CODES_CAP."""
    if field.q ** d > SQUAREFREE_CODES_CAP:
        raise ValueError(f"square-free masks: q={field.q} with degree {d} is over the cap "
                         f"of {SQUAREFREE_CODES_CAP} codes")


@functools.lru_cache(maxsize=None)
def squarefree_masks(field, d):
    """(polys, masks) for the square-free monic polynomials of degree d.

    polys follow the enumeration order of ffpoly.enumerate_polys; masks[i]
    has one bit per distinct prime factor of polys[i], so two square-free
    polynomials are coprime exactly when their masks are disjoint.  The
    factors come from the sieve tables.  A degree over the cap of
    check_squarefree_degree is refused before anything is built.
    """
    check_squarefree_degree(field, d)
    bits = _prime_bits(field)

    def mask(factors):
        m = 0
        for key in factors:
            m |= 1 << bits.setdefault(key, len(bits))
        return m

    if d == 0:
        return (ffpoly.Poly.one(field),), (0,)
    polys, masks = [], []
    T = poly_tables(field, d)
    for code in range(field.q ** d):
        fac = T.factor(d, code)
        if fac is not None:
            polys.append(ffpoly.Poly.monic_from_code(field, d, code))
            masks.append(mask(fac))
    return tuple(polys), tuple(masks)


@functools.lru_cache(maxsize=None)
def monic_family(field, g):
    """All monic-variant members for genus g, deterministic order.

    Members run over the kept patterns in order, then f1, f2, f3 in
    square-free enumeration order, so indices are stable.  Coprimality
    is decided by disjoint prime-factor masks (squarefree_masks).
    """
    kept, _ = admissible_patterns(g)
    degrees = sorted({d for pat in kept for d in pat})
    # top degree first: its sieve table then serves every lower degree
    by_degree = {d: squarefree_masks(field, d) for d in reversed(degrees)}
    polys, masks, span = [], [], {}
    for d in degrees:
        sf, sf_masks = by_degree[d]
        span[d] = range(len(polys), len(polys) + len(sf))
        polys.extend(sf)
        masks.extend(sf_masks)
    rows = []
    for d1, d2, d3 in kept:
        for i1 in span[d1]:
            m1 = masks[i1]
            for i2 in span[d2]:
                m2 = masks[i2]
                if m1 & m2:
                    continue
                m12 = m1 | m2
                rows.extend((i1, i2, i3) for i3 in span[d3] if not m12 & masks[i3])
    rows = np.array(rows, dtype=np.int64).reshape(-1, 3)
    rows.flags.writeable = False  # shared by every caller through the cache
    return MonicFamily(tuple(polys), rows)


def family_size(field, g, variant=MONIC):
    """Exact member count; the full variant is (q-1)^2 times the monic one."""
    n = len(monic_family(field, g).rows)
    if variant == FULL:
        return (field.q - 1) ** 2 * n
    if variant == MONIC:
        return n
    raise ValueError(f"unknown variant {variant!r}")


def member_rows(field, g, variant, index):
    """(rows, twists) for a sequence of member indices: rows into
    monic_family(field, g).polys and the codes (c1, c2) scaling f1, f2."""
    u = 1 if variant == MONIC else field.q - 1
    tidx, rest = np.divmod(index, u * u)
    return monic_family(field, g).rows[tidx], np.stack(np.divmod(rest, u), axis=1) + 1


def _members(field, g, variant, index):
    """Validated CurveTriples for a sequence of member indices, decoded
    4096 at a time."""
    polys = monic_family(field, g).polys
    for lo in range(0, len(index), 4096):
        rows, twists = member_rows(field, g, variant, index[lo:lo + 4096])
        for (i1, i2, i3), (c1, c2) in zip(rows.tolist(), twists.tolist()):
            yield CurveTriple(polys[i1].scale(c1), polys[i2].scale(c2), polys[i3], variant)


def family_member(field, g, variant, index):
    """Random access into the deterministic enumeration order."""
    return next(_members(field, g, variant, [index]))


def enumerate_family(field, g, variant=MONIC, start=0, stop=None):
    """Stream of CurveTriple in deterministic order, sliceable by index."""
    total = family_size(field, g, variant)
    if stop is None or stop > total:
        stop = total
    yield from _members(field, g, variant, range(start, stop))


def family_size_ratio(field, g, variant=MONIC):
    """(size, size / q^(g+3)) - the empirical leading-order ratio."""
    from fractions import Fraction

    size = family_size(field, g, variant)
    return size, Fraction(size, field.q ** (g + 3))


# ---------------------------------------------------------------------------
# Character sums over P^1(F_{q^n}), point counts and the zeta numerator
# ---------------------------------------------------------------------------


def chi_blocks(chi, rows):
    """Yield (lo, v1, v2, v3): the int8 chi rows of f1, f2, f3 gathered
    for the members rows[lo:lo + step], in blocks of about
    ffpoly.BLOCK_BYTES per operand."""
    step = max(1, ffpoly.BLOCK_BYTES // chi.shape[1])
    for lo in range(0, len(rows), step):
        yield (lo, *(chi[r] for r in rows[lo:lo + step].T))


def member_traces(field, n, polys, rows, twists):
    """T_n = -(S13 + S23 + S12) for each member (c1 f1, c2 f2, f3), with
    f1, f2, f3 the monic polys a row of `rows` indexes and (c1, c2) the
    codes in the matching row of `twists`.  Chi rows are built for the
    polys in use; chi_2 at infinity of a monic product is 1 for even degree,
    and a twist enters as chi_2(c f(x)) = chi_2(c) chi_2(f(x)) on all of P^1."""
    ext = ffpoly.extension_field(field, n)
    used, local = np.unique(rows, return_inverse=True)
    rows = local.reshape(rows.shape)
    chi = ext.chi_rows([polys[i] for i in used])
    deg = np.array([polys[i].degree for i in used], dtype=np.int64)
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


def curve_counts(triple, n_max):
    """N_n and T_n for 1 <= n <= n_max by the character sum over P^1."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    f1, f2, f3 = triple.f1, triple.f2, triple.f3
    polys = (f1.to_monic(), f2.to_monic(), f3)
    twists = np.array([[f1.leading, f2.leading]])
    q = triple.field.q
    # the top degree first: its field is refused before any lower n is run
    T = tuple(int(member_traces(triple.field, n, polys, np.array([[0, 1, 2]]), twists)[0])
              for n in range(n_max, 0, -1))[::-1]
    N = tuple(q ** n + 1 - t for n, t in enumerate(T, start=1))
    return CurveData(N, T)


def zeta_numerator(triple, n_max=None):
    """CurveData carrying P_C, reconstructed from T_1..T_g.

    Coefficients a_1..a_g come from Newton's identities (each division by
    k must be exact), a_{g+1}..a_{2g} from the functional equation
    a_j = q^{j-g} a_{2g-j}.  The count N_{g+1} predicted by P_C is checked
    against the direct character sum; a mismatch raises InvariantError.
    """
    g = triple.genus
    q = triple.field.q
    upto = max(g + 1, n_max or 0)
    data = curve_counts(triple, upto)
    T = data.T
    a = [1] + [0] * (2 * g)
    for k in range(1, g + 1):
        acc = T[k - 1]
        for i in range(1, k):
            acc += a[i] * T[k - i - 1]
        if acc % k:
            raise InvariantError("Newton inversion not integral")
        a[k] = -(acc // k)
    for j in range(g + 1, 2 * g + 1):
        a[j] = q ** (j - g) * a[2 * g - j]
    pc = tuple(a)
    if power_sums(pc, g + 1)[g] != T[g]:
        raise InvariantError("zeta numerator inconsistent with point counts")
    return CurveData(data.N, data.T, pc)


def pc_roots(pc_coeffs):
    """Reciprocal roots of P_C (the sqrt(q)-scale Frobenius eigenvalues)."""
    if len(pc_coeffs) <= 1:
        return np.zeros(0, dtype=complex)
    return np.roots(list(pc_coeffs))


def pc_rh_deviation(pc_coeffs, q):
    """max | |root|/sqrt(q) - 1 | over reciprocal roots of P_C, via the
    exact square-free part (repeated roots would spoil double precision)."""
    if len(pc_coeffs) <= 1:
        return 0.0
    sf = squarefree_part(pc_coeffs)
    roots = np.roots([float(c) for c in sf])
    return float(np.max(np.abs(np.abs(roots) / q ** 0.5 - 1.0)))


def eigenphases(pc_coeffs):
    """Sorted angles theta_j with reciprocal roots sqrt(q) e^{i theta_j}."""
    return np.sort(np.angle(pc_roots(pc_coeffs)))
