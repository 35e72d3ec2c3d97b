"""Family enumeration, point counts, zeta numerators."""

import math
import random
import tracemalloc

import pytest

import scalar_oracles as oracle
from ffstat import _tables, biquad
from ffstat.errors import InvariantError
from ffstat.ffpoly import GF, Poly
from scalar_oracles import INFINITY, extension_field, quad_char_eval

F3 = GF(3)
F5 = GF(5)


def P3(*coeffs):
    return Poly.from_coeffs(F3, coeffs)


WORKED = lambda: biquad.CurveTriple(P3(1, 0, 1), P3(2, 1, 1), Poly.one(F3))


def test_genus_length_examples():
    assert biquad.genus_length(1, 1, 1) == 3
    assert biquad.genus_length(2, 2, 0) == 4
    assert biquad.genus_length(3, 1, 0) == 5


def test_patterns_g0():
    kept, excluded = biquad.admissible_patterns(0)
    assert sorted(kept) == [(0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1)]
    assert excluded == []


def test_patterns_g1_exclusion():
    kept, excluded = biquad.admissible_patterns(1)
    for pat in [(4, 0, 0), (0, 4, 0), (0, 0, 4), (3, 0, 0), (0, 3, 0), (0, 0, 3)]:
        assert pat in excluded
        assert pat not in kept
    # the exclusion never triggers for even genus: those patterns fail the
    # length test outright
    kept2, excluded2 = biquad.admissible_patterns(2)
    assert excluded2 == []


def test_family_counts():
    assert biquad.family_size(F3, 0) == 24
    assert biquad.family_size(F3, 0, biquad.FULL) == 96
    assert biquad.family_size(F3, 1) == 144  # frozen from the enumeration
    assert biquad.family_size(F3, 2) == 504
    from fractions import Fraction

    size, ratio = biquad.family_size_ratio(F3, 0)
    assert size == 24 and ratio == Fraction(24, 27)


@pytest.mark.parametrize("q,g", [(3, 0), (3, 1), (3, 2), (5, 0), (5, 1)])
def test_full_variant_scaling(q, g):
    field = GF(q)
    assert (biquad.family_size(field, g, biquad.FULL)
            == (q - 1) ** 2 * biquad.family_size(field, g))


def test_family_g0_members_are_distinct_linears():
    for t in biquad.enumerate_family(F3, 0):
        degs = sorted(int(f.degree) for f in (t.f1, t.f2, t.f3))
        assert biquad.genus_length(*(int(f.degree) for f in (t.f1, t.f2, t.f3))) == 3
        assert t.genus == 0


def test_squarefree_factors_refuse_large_degrees_before_building():
    biquad.check_squarefree_degree(F3, 10)
    tracemalloc.start()
    try:
        for field, d in ((F3, 11), (F5, 7), (F3, 30)):
            with pytest.raises(ValueError, match="over the cap"):
                biquad.squarefree_factors(field, d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_enumeration_slicing_matches_full_stream():
    full = list(biquad.enumerate_family(F3, 1, biquad.FULL))
    pieces = []
    for a in range(0, len(full), 100):
        pieces.extend(biquad.enumerate_family(F3, 1, biquad.FULL, start=a, stop=a + 100))
    assert pieces == full
    assert len(full) == biquad.family_size(F3, 1, biquad.FULL)


@pytest.mark.parametrize("variant", [biquad.MONIC, biquad.FULL])
def test_member_indices_outside_the_family_are_refused(variant):
    size = biquad.family_size(F3, 1, variant)
    for bad in (-1, size, size + 7):
        with pytest.raises(ValueError, match=f"member indices {bad}\\.\\.{bad} are not within"):
            biquad.family_member(F3, 1, variant, bad)
        with pytest.raises(ValueError, match=f"are not within \\[0, {size}\\)"):
            biquad.member_rows(F3, 1, variant, [0, bad, 1])
    assert biquad.family_member(F3, 1, variant, size - 1) == list(
        biquad.enumerate_family(F3, 1, variant))[-1]
    for start, stop in ((-2, 1), (-1, None), (5, 3), (size + 1, None)):
        with pytest.raises(ValueError, match="member slice"):
            list(biquad.enumerate_family(F3, 1, variant, start=start, stop=stop))
    assert list(biquad.enumerate_family(F3, 1, variant, start=size)) == []


def test_triple_validation():
    x = Poly.x(F3)
    with pytest.raises(ValueError):
        biquad.CurveTriple(x * x, P3(1, 1), Poly.one(F3))  # not square-free
    with pytest.raises(ValueError):
        biquad.CurveTriple(x, x, Poly.one(F3))  # shared factor
    with pytest.raises(ValueError):
        biquad.CurveTriple(P3(1, 1), Poly.one(F3), x.scale(2))  # f3 not monic
    with pytest.raises(ValueError):
        # degenerate multiset {g+2,0,0} at g = 1
        f = P3(0, 1) * P3(1, 1) * P3(2, 1)  # degree 3 square-free
        biquad.CurveTriple(f, Poly.one(F3), Poly.one(F3))


def test_worked_curve_counts():
    t = WORKED()
    assert t.genus == 1
    data = biquad.zeta_numerator(t, n_max=2)
    assert data.N[0] == 4 and data.T[0] == 0
    assert data.pc == (1, 0, 3)
    assert data.T[1] == -6 and data.N[1] == 16
    assert data.n_from_pc(3, 2) == 16


def test_worked_curve_counts_against_pointwise_oracle():
    # independent recount of N_1, N_2 using scalar quad_char_eval per point
    t = WORKED()
    for n in (1, 2):
        ext = extension_field(F3, n)
        prods = t.pair_products()
        total = 0
        for x in list(ext.elements()) + [INFINITY]:
            total += 1 + sum(quad_char_eval(h, x, ext) for h in prods)
        assert total == biquad.curve_counts(t, n).N[n - 1]


def test_curve_counts_refuse_the_top_field_before_building_any(monkeypatch):
    # the counts to n read the sieve table of degree n, asked for first: a
    # cap that refuses degree 4 refuses n_max = 4 before any table is built,
    # and n_max = 3 builds the one table of degree 3
    built = []

    class Counted(_tables.PolyTables):
        def __init__(self, field, max_deg):
            built.append(max_deg)
            super().__init__(field, max_deg)

    monkeypatch.setattr(_tables, "PolyTables", Counted)
    monkeypatch.setattr(_tables, "_largest", {})
    monkeypatch.setattr(_tables, "SIEVE_BYTES_CAP", 8 * (3 + 9 + 27))  # degree 3 builds, 4 not
    with pytest.raises(ValueError, match="max_deg=4 .* over the cap"):
        biquad.curve_counts(WORKED(), 4)
    assert built == [4]
    assert biquad.curve_counts(WORKED(), 3).N[:2] == (4, 16)
    assert built == [4, 3]


def test_genus0_traces_vanish():
    for t in biquad.enumerate_family(F3, 0):
        data = biquad.zeta_numerator(t, n_max=3)
        assert data.pc == (1,)
        assert data.T == (0, 0, 0)


def test_point_count_range():
    for t in list(biquad.enumerate_family(F3, 2))[::25]:
        data = biquad.curve_counts(t, 3)
        for n, N in enumerate(data.N, start=1):
            assert 0 <= N <= 4 * (3 ** n + 1)


@pytest.mark.parametrize("q,g", [(3, 1), (3, 2), (5, 1)])
def test_zeta_numerator_structure(q, g):
    field = GF(q)
    for t in biquad.enumerate_family(field, g):
        data = biquad.zeta_numerator(t)
        assert len(data.pc) == 2 * g + 1 and data.pc[2 * g] != 0
        for j in range(2 * g + 1):
            assert data.pc[j] * q ** g == q ** j * data.pc[2 * g - j]
        assert biquad.pc_rh_deviation(data.pc, q) < 1e-9


def test_zeta_numerator_structure_sampled_g3():
    # spot coverage of the larger grids: strided samples keep runtime sane
    rng = random.Random(2)
    for field, g, step in ((F3, 3, 37), (F5, 2, 151)):
        total = biquad.family_size(field, g)
        for idx in range(rng.randrange(step), total, step):
            t = biquad.family_member(field, g, biquad.MONIC, idx)
            data = biquad.zeta_numerator(t)
            assert len(data.pc) == 2 * g + 1
            for j in range(2 * g + 1):
                assert data.pc[j] * field.q ** g == field.q ** j * data.pc[2 * g - j]
            assert biquad.pc_rh_deviation(data.pc, field.q) < 1e-9


def test_degree_ledger():
    # with D1 = f1 f3, D2 = f2 f3, D3 = f1 f2: sum of (deg Di - 1 - lam_i) = 2g
    for (field, g) in [(F3, 0), (F3, 1), (F3, 2), (F5, 1)]:
        for t in biquad.enumerate_family(field, g):
            total = 0
            for h in t.pair_products():
                deg = int(h.degree)
                lam = 1 if deg % 2 == 0 else 0
                total += deg - 1 - lam
            assert total == 2 * g, t


def test_trace_formula_decomposition():
    # T_n equals minus the sum of the three pair character sums, recomputed
    # through the scalar evaluator
    rng = random.Random(9)
    triples = list(biquad.enumerate_family(F3, 2))
    for t in rng.sample(triples, 8):
        for n in (1, 2):
            ext = extension_field(F3, n)
            s = 0
            for h in t.pair_products():
                for x in list(ext.elements()) + [INFINITY]:
                    s += quad_char_eval(h, x, ext)
            assert biquad.curve_counts(t, n).T[n - 1] == -s


def test_odd_n_constant_twist_cancellation():
    # for odd n, averaging chi2(c * f(x)) over the q-1 leading constants is 0
    ext = extension_field(F3, 3)
    rng = random.Random(13)
    for _ in range(30):
        f = Poly.from_coeffs(F3, [rng.randrange(3) for _ in range(4)] + [1])
        x = rng.randrange(ext.order)
        val = oracle.eval_poly(ext, f, x)
        if val == 0:
            continue
        assert sum(ext.chi2(ext.mul(ext.embed_base(c), val)) for c in F3.units()) == 0


def test_inconsistent_counts_raise(monkeypatch):
    # corrupting a point count must trip the zeta-numerator consistency check
    t = WORKED()
    real = biquad.curve_counts

    def corrupted(triple, n_max):
        data = real(triple, n_max)
        bad_T = data.T[:-1] + (data.T[-1] + 3,)
        return biquad.CurveData(data.N, bad_T)

    monkeypatch.setattr(biquad, "curve_counts", corrupted)
    with pytest.raises(InvariantError):
        biquad.zeta_numerator(t)


def test_eigenphases_worked_curve():
    import numpy as np

    phases = biquad.eigenphases((1, 0, 3))
    assert np.allclose(sorted(phases), [-np.pi / 2, np.pi / 2])


def test_rh_deviation_square_roots_agree_where_curve_reaches():
    # pc_rh_deviation is a row of lfunc._rh_rows, which divides by
    # math.sqrt(q), where it once divided by q ** 0.5: the two agree at
    # every odd prime power q <= 2047 (3541 is the first where they part),
    # and a curve of genus >= 1 at q >= 2048 is refused, since its sieve
    # must reach degree 2 and 8 (q + q^2) bytes pass the cap there
    powers = [q for q in range(3, 2048, 2)
              if len({p for p in range(2, q + 1) if q % p == 0 and all(p % r for r in range(2, p))}) == 1]
    assert len(powers) == 329 and powers[-1] == 2039
    assert all(q ** 0.5 == math.sqrt(q) for q in powers)
    assert 8 * (2047 + 2047 ** 2) <= _tables.SIEVE_BYTES_CAP < 8 * (2048 + 2048 ** 2)
