"""Trace averages, the exact error split, fixed-prime sums, density."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import scalar_oracles as oracle
from ffstat import biquad, ffpoly, lfunc, moments
from ffstat.errors import InvariantError
from ffstat.ffpoly import GF, Poly
from scalar_oracles import INFINITY, extension_field, quad_char_eval

F3 = GF(3)
F5 = GF(5)
F9 = GF(3, 2)


def P3(*coeffs):
    return Poly.from_coeffs(F3, coeffs)


# -- matrix integrals -------------------------------------------------------


def test_matrix_integral_case_table():
    for g in range(1, 6):
        for n in range(1, 13):
            usp = moments.matrix_integral_reference(moments.USP, g, n)
            assert usp == (-(n % 2 == 0) if n <= 2 * g else 0)
            assert moments.matrix_integral_reference(moments.USP_CUBED, g, n) == 3 * usp
            assert moments.matrix_integral_reference(moments.UNITARY, g, n) == 0


def test_matrix_integral_worked_cells():
    assert moments.matrix_integral_reference("USp", 3, 4) == -1
    assert moments.matrix_integral_reference("USp_cubed", 3, 4) == -3
    assert moments.matrix_integral_reference("USp", 3, 8) == 0
    assert moments.matrix_integral_reference("USp", 3, 7) == 0


# -- averages ----------------------------------------------------------------


def test_genus_zero_average_is_zero():
    for n in (1, 2, 3):
        assert moments.average_trace(F3, 0, n).avg_T == 0


def test_odd_n_full_average_vanishes():
    for g in (1, 2):
        for n in (1, 3):
            assert moments.average_trace(F3, g, n, biquad.FULL).avg_T == 0


def test_golden_average_g1_n2():
    # frozen from the exhaustive enumeration; re-derived below by brute force
    rep = moments.average_trace(F3, 1, 2, biquad.FULL)
    assert rep.avg_T == Fraction(-4)
    assert rep.reference == -3.0


def test_odd_n_full_average_bruteforce():
    # literal sum over all 576 full-variant members and all points of P^1(F_3)
    ext = extension_field(F3, 1)
    pts = list(ext.elements()) + [INFINITY]
    total = 0
    for t in biquad.enumerate_family(F3, 1, biquad.FULL):
        total += -sum(quad_char_eval(h, x, ext) for h in t.pair_products()
                      for x in pts)
    assert total == 0


def test_golden_average_matches_pointwise_bruteforce():
    # independent oracle: scalar character sums per member over P^1(F_9)
    ext = extension_field(F3, 2)
    pts = list(ext.elements()) + [INFINITY]
    total = 0
    count = 0
    for t in biquad.enumerate_family(F3, 1, biquad.FULL):
        T = -sum(quad_char_eval(h, x, ext) for h in t.pair_products() for x in pts)
        total += T
        count += 1
    assert Fraction(total, count) == Fraction(-4)


def test_full_equals_monic_for_even_n():
    for g in (0, 1, 2):
        for n in (2, 4):
            full = moments.average_trace(F3, g, n, biquad.FULL).avg_T
            monic = moments.average_trace(F3, g, n, biquad.MONIC).avg_T
            assert full == monic, (g, n)


def test_empty_family_raises():
    # no admissible patterns would be a bug; simulate with a non-family genus
    with pytest.raises(ValueError):
        moments.average_trace(F3, 0, 1, variant="nonsense")


def test_empty_family_raises_in_every_family_average():
    fhat = moments.fejer_kernel(1.0)
    with pytest.raises(ValueError, match="is empty"):
        moments.average_trace(F3, -1, 1)
    with pytest.raises(ValueError, match="is empty"):
        moments.one_level_density(F3, -1, fhat, 1.0)


def test_one_level_density_refuses_genus_zero():
    # the genus-0 family is not empty, but Z is normalised by 1/g
    assert biquad.family_size(F3, 0) > 0
    with pytest.raises(ValueError, match="genus >= 1, got 0"):
        moments.one_level_density(F3, 0, moments.fejer_kernel(1.0), 1.0)


@pytest.mark.parametrize("size", [None, 0, -3])
def test_sample_mode_refuses_sizes_below_one(size):
    with pytest.raises(ValueError, match="sample size >= 1"):
        moments.average_trace(F3, 1, 1, mode="sample", sample_size=size)


def test_sample_mode_builds_no_curve_triple(monkeypatch):
    def refuse(self):
        raise AssertionError("sample mode validated a CurveTriple")

    monkeypatch.setattr(biquad.CurveTriple, "__post_init__", refuse)
    for n in (1, 2):
        rep = moments.average_trace(GF(5), 1, n, biquad.FULL, mode="sample",
                                    sample_size=200, seed=4)
        assert rep.sample_size == 200


def test_sample_mode_reproducible():
    a = moments.average_trace(F3, 2, 2, mode="sample", sample_size=50, seed=42)
    b = moments.average_trace(F3, 2, 2, mode="sample", sample_size=50, seed=42)
    c = moments.average_trace(F3, 2, 2, mode="sample", sample_size=50, seed=43)
    assert a.avg_T == b.avg_T and a.sample_size == 50
    assert a.std_error is not None
    assert (a.avg_T, a.std_error) != (c.avg_T, c.std_error) or True  # seeds differ


# -- error decomposition -------------------------------------------------------


GRID = [(F3, g, n) for g in (1, 2, 3) for n in (2, 4)] + [
    (F5, g, n) for g in (1, 2) for n in (2, 4)]


@pytest.mark.parametrize("field,g,n", GRID)
def test_decomposition_identity_and_bounds(field, g, n):
    rep = moments.error_decomposition(field, g, n)  # identity asserted inside
    q = field.q
    assert rep.avg_T / q ** (n // 2) == -3 + rep.roots_term - rep.bilinear_term
    assert float(rep.roots_term) <= 3 * (g + 3) / q ** (n / 2) + 1e-12
    assert rep.diagnostics["nongen_actual"] <= rep.diagnostics["nongen_bound"] + 1e-12


def test_decomposition_rejects_odd_n():
    with pytest.raises(ValueError):
        moments.error_decomposition(F3, 1, 3)


@pytest.mark.parametrize("field,g,n", [(F3, 1, 2), (F9, 0, 2)],
                         ids=["3-1-2", "9-0-2"])
def test_prime_form_oracle_g1_n2(field, g, n):
    # literal double loop: generating x in F_{q^n} against monic primes of degree n
    ext = extension_field(field, n)
    gen_xs = [x for x in ext.elements() if int(oracle.subfield_mask(ext, 1)[x]) == 0]
    triples = list(biquad.enumerate_family(field, g, biquad.MONIC))
    x_sum = sum(quad_char_eval(t.f1 * t.f2, x, ext) for t in triples for x in gen_xs)
    p_sum = sum(ffpoly.jacobi_symbol(t.f1 * t.f2, P)
                for t in triples for P in ffpoly.primes(field, n))
    assert x_sum == n * p_sum
    assert moments._family_totals(field, g, n)[4] == x_sum


def test_decomposition_sides_that_disagree_raise(monkeypatch):
    # the family size of the trivial vector's series against the pair
    # weights', one member off
    real = biquad.family_size
    monkeypatch.setattr(biquad, "family_size",
                        lambda field, g, variant=biquad.MONIC: real(field, g, variant) + 1)
    with pytest.raises(InvariantError, match="the series counts 144 members, the pair weights 145"):
        moments.error_decomposition(F3, 1, 2)
    with pytest.raises(InvariantError, match="the series counts 144 members, the pair weights 145"):
        moments.average_trace(F3, 1, 3, biquad.MONIC)


def _majorant_coefficient(q, D):
    """[u^D] prod_a (1 + 3 u^a)^pi_q(a) in Python ints: F(u, u, u) of the
    trivial vector, the count of pairwise coprime square-free triples of
    total degree D."""
    series = [1] + [0] * D
    for a in range(1, D + 1):
        pi = ffpoly.prime_count_exact(q, a)
        series = [sum(math.comb(pi, m) * 3 ** m * series[t - a * m] for m in range(t // a + 1))
                  for t in range(D + 1)]
    return series[D]


def test_series_refuse_q_to_the_d_beyond_int64():
    # every prime at +1 to degree D at q = 3: D = 34 is the largest the
    # int64 bound admits, exact against Python ints next to 2^63, and
    # D = 35 is refused before the series is built
    counts = [(0, 0, ffpoly.prime_count_exact(3, a)) for a in range(1, 36)]
    S = moments.parity_series([counts[:34]], 34)[0]
    assert int(S[0, 34]) == _majorant_coefficient(3, 34) > 1 << 60
    assert int(S[5, 34]) == 3 ** 34 - 3 ** 33  # the square-free monics of degree 34
    with pytest.raises(InvariantError, match="beyond exact int64"):
        moments.parity_series([counts], 35)


def test_nongenerating_piece_appears_at_n6():
    rep = moments.error_decomposition(F3, 1, 6)
    # at n = 6 the x's from F_{q^2} outside F_q are non-generating
    assert rep.diagnostics["nongen_bound"] == 3 * 3 ** (2 - 3.0)
    assert rep.diagnostics["nongen_bound"] <= 3 * 3 ** (-1.0) + 1e-12


# -- fixed-prime sums -----------------------------------------------------------


def test_nkk_trivial_cases():
    P = P3(1, 0, 1)
    sums = moments.nkk_sums_all(F3, P, 0)
    assert sums == {(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 0}
    assert oracle.nkk_sum(F3, P, 1, 1, 1) == 3


def test_nkk_partition_check():
    # the four parity classes partition the unconstrained mu^2 chi sum
    P = P3(1, 0, 1)
    for d in (2, 3, 4):
        sums = moments.nkk_sums_all(F3, P, d)
        unconstrained = 0
        for a in range(d + 1):
            for b in range(d - a + 1):
                c = d - a - b
                for f1 in ffpoly.monic_polys(F3, a):
                    for f2 in ffpoly.monic_polys(F3, b):
                        for f3 in ffpoly.monic_polys(F3, c):
                            prod = f1 * f2 * f3
                            mu, sf = oracle.mobius_squarefree(prod)
                            if sf:
                                unconstrained += lfunc.char_value(
                                    lfunc.QuadChar(P), f1 * f2)
        assert sum(sums.values()) == unconstrained, d


def test_nkk_against_literal_mu_squared_oracle():
    # second route: iterate all monic triples, test mu^2 of the product
    P = P3(2, 2, 1)
    d = 3
    expect = {(a, b): 0 for a in (0, 1) for b in (0, 1)}
    for da in range(d + 1):
        for db in range(d - da + 1):
            dc = d - da - db
            for f1 in ffpoly.monic_polys(F3, da):
                for f2 in ffpoly.monic_polys(F3, db):
                    for f3 in ffpoly.monic_polys(F3, dc):
                        mu, sf = oracle.mobius_squarefree(f1 * f2 * f3)
                        if not sf:
                            continue
                        key = ((da + dc) % 2, (db + dc) % 2)
                        expect[key] += ffpoly.jacobi_symbol(f1 * f2, P)
    assert moments.nkk_sums_all(F3, P, d) == expect


def test_family_sum_decomposition_exact():
    for P in (Poly.x(F3), P3(1, 0, 1)):
        for g in (1, 2):
            assert (moments.fixed_prime_family_sum(F3, g, P)
                    == moments.family_sum_nkk_decomposition(F3, g, P)), (P, g)


def test_degenerate_character_counts_family():
    # chi = 1 turns the parity sums into a census that must reproduce |F_g|
    for g in (1, 2):
        total = (
            oracle.series_census(F3, g + 3)[(0, 0)]
            + sum(oracle.series_census(F3, g + 2)[k] for k in [(0, 1), (1, 0), (1, 1)])
        )
        if g % 2 == 1:
            for e in (g + 2, g + 3):
                total -= 3 * len(ffpoly.enumerate_polys(F3, e, "squarefree-monic"))
        assert total == biquad.family_size(F3, g), g


def test_c_constant_parity_structure():
    # mixed-parity classes carry no H_0 cross term and coincide
    P = P3(1, 0, 1)
    for d in (4, 5):
        assert moments.c_constant_kk(P, d, 0, 1, 6) == moments.c_constant_kk(P, d, 1, 0, 6)


def test_c_blocks_rejects_empty_product():
    with pytest.raises(ValueError, match="M must be >= 1"):
        moments.c_blocks(P3(1, 0, 1), 0)


def test_family_sum_report_even_g_has_no_correction():
    # and odd g subtracts excluded_degree_correction
    P = Poly.x(F3)
    for g in (1, 2):
        rep = moments.family_sum_report(F3, g, P, 6)
        c = moments.c_constant_g(P, g, 6)
        assert rep.c_value == c
        want = c / 4 * 3 ** (g + 3)
        if g % 2:
            want -= moments.excluded_degree_correction(F3, P, g)
        assert rep.predicted == float(want), g


def test_excluded_degree_correction_matches_literal():
    P = P3(1, 0, 1)
    g = 1
    manual = 0
    for e in (g + 2, g + 3):
        for f in ffpoly.enumerate_polys(F3, e, "squarefree-monic"):
            manual += 2 * ffpoly.jacobi_symbol(f, P)
    manual += Fraction(4, 3) * 3 ** (g + 3) / lfunc.zeta_q_value(3, 2)
    assert moments.excluded_degree_correction(F3, P, g) == manual


def test_lemma61_scaled_gap_bounded_and_trending_down():
    # aggregate over parity classes and the two reference primes; the
    # q^{0.6 d} normalization dominates the true error growth, so the
    # least-squares slope over d of the aggregated gap is negative
    ds = range(4, 7)
    per_d = {d: [] for d in ds}
    for P in (Poly.x(F3), P3(1, 0, 1)):
        for d in ds:
            sums = moments.nkk_sums_all(F3, P, d)
            for (k1, k2), exact in sums.items():
                c = moments.c_constant_kk(P, d, k1, k2, 8)
                v = abs(exact - float(c / 4 * 3 ** d)) / 3 ** (0.6 * d)
                assert v <= 1.0, (P, d, k1, k2, v)
                per_d[d].append(v)
    means = [sum(per_d[d]) / len(per_d[d]) for d in ds]
    xs = list(ds)
    xbar, ybar = sum(xs) / len(xs), sum(means) / len(means)
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, means))
    assert slope <= 0, means


# -- double character sum ---------------------------------------------------------


def test_double_char_sum_bounded():
    # normalized version of the (D, P) double sum stays within a fixed band
    for field, dmax in ((F3, 6), (F5, 5)):
        for g in (1, 2, 3):
            d = g + 2
            if d > dmax:
                continue
            for n in range(1, d + 1):
                val, _ = oracle.double_char_sum(field, d, n)
                assert abs(val) <= 3.0, (field.q, d, n, val)


def test_double_char_sum_scalar_crosscheck():
    val, raw = oracle.double_char_sum(F3, 3, 2)
    manual = 0
    for D in ffpoly.enumerate_polys(F3, 3, "squarefree-monic"):
        for P in ffpoly.primes(F3, 2):
            manual += ffpoly.jacobi_symbol(P, D)
    assert raw == manual


# -- experiment ------------------------------------------------------------------


def test_theorem_experiment_rows():
    rows = moments.theorem_experiment(F3, [1, 2], 5)
    by_cell = {(r["g"], r["n"]): r for r in rows}
    for (g, n), row in by_cell.items():
        if n % 2 == 1:
            assert row["gap"] == 0.0 and row["reference"] == 0.0
        if n > 2 * g:
            assert row["reference"] == 0.0
    assert by_cell[(2, 4)]["reference"] == -3.0
    assert by_cell[(1, 2)]["avg_T"] == Fraction(-4)


def test_theorem_experiment_budget_sampling():
    rows = moments.theorem_experiment(F3, [2], 2, work_budget=10,
                                      sample_size=30, seed=1)
    assert all(r["mode"] == "sample" for r in rows)
    again = moments.theorem_experiment(F3, [2], 2, work_budget=10,
                                       sample_size=30, seed=1)
    assert [r["avg_T"] for r in rows] == [r["avg_T"] for r in again]


# -- one-level density -------------------------------------------------------------


def test_density_fhat_at_zero_only():
    z0 = lambda x: 2.5 if x == 0 else 0.0
    rep = moments.one_level_density(F3, 1, z0, 0.25)
    assert rep.family_value == 2.5 and rep.reference_value == 2.5


def test_density_fejer_reference_formula():
    fhat = moments.fejer_kernel(0.9)
    g = 2
    rep = moments.one_level_density(F3, g, fhat, 0.9, crosscheck_curves=3)
    manual = fhat(0.0) - (3 / g) * sum(
        fhat(n / (2 * g)) for n in rep.terms if n % 2 == 0 and n <= 2 * g)
    assert rep.reference_value == pytest.approx(manual)
    assert rep.crosscheck_max_gap < 1e-6


def test_density_worked_curve_crosscheck():
    t = biquad.CurveTriple(P3(1, 0, 1), P3(2, 1, 1), Poly.one(F3))
    for alpha in (0.25, 1.0):
        zt, zp = moments.curve_density_pair(t, moments.fejer_kernel(alpha), alpha)
        assert abs(zt - zp) < 1e-6


def test_density_alpha_above_one_warns():
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        moments.one_level_density(F3, 1, moments.fejer_kernel(1.2), 1.2,
                                  crosscheck_curves=1)
    assert any("alpha" in str(w.message) for w in seen)


def test_fejer_kernel_shape():
    fhat = moments.fejer_kernel(0.25)
    assert fhat(0) == 1.0
    assert fhat(0.25) == 0.0
    assert fhat(0.125) == 0.5
    assert fhat(-0.125) == 0.5
