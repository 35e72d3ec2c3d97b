"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is pinned here; nothing is deferred.
"""

import functools
import time

from ffstat import biquad, cli, eulerprod, ffpoly, lfunc, moments
from ffstat.ffpoly import GF, Poly

F3 = GF(3)
F5 = GF(5)


def criterion(num, text):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*a, **k):
            t0 = time.time()
            try:
                fn(*a, **k)
            except BaseException:
                print(f"[criterion {num:2d}] FAIL  {text}")
                raise
            print(f"[criterion {num:2d}] PASS  {text}  ({time.time() - t0:.1f}s)")
        return wrapper
    return deco


@criterion(1, "L-function suite: completion, FE, RH, explicit formula (q=3,5; deg<=6; n<=8)")
def test_criterion_1_lfunction_suite():
    start = time.time()
    for q in (3, 5):
        rep = lfunc.l_suite(q, max_deg=6, n_max=8, rh_tol=1e-9)
        assert rep.failures == [], (q, rep.failures[:5])
        assert rep.moduli == sum(ffpoly.squarefree_count(q, d) for d in range(1, 7))
        assert rep.rh_max_dev < 1e-9
    assert time.time() - start < 120, "runtime target exceeded"


@criterion(2, "worked curve: genus 1, N1=4, P_C=1+3u^2, T2=-6, N2 cross-check")
def test_criterion_2_worked_curve():
    t = biquad.CurveTriple(
        Poly.from_coeffs(F3, (1, 0, 1)), Poly.from_coeffs(F3, (2, 1, 1)),
        Poly.one(F3))
    assert t.genus == 1
    data = biquad.zeta_numerator(t, n_max=2)
    assert data.N[0] == 4
    assert data.pc == (1, 0, 3)
    assert data.T[1] == -6
    # N_2 from the numerator equals the direct character-sum count over F_9
    assert data.n_from_pc(3, 2) == data.N[1] == 16


@criterion(3, "family counts: 24 monic / 96 full at g=0; g=1 degenerate patterns rejected")
def test_criterion_3_family_counts():
    assert biquad.family_size(F3, 0, biquad.MONIC) == 24
    assert biquad.family_size(F3, 0, biquad.FULL) == 96 == (3 - 1) ** 2 * 24
    kept, excluded = biquad.admissible_patterns(1)
    for base in (4, 3):
        pats = {(base, 0, 0), (0, base, 0), (0, 0, base)}
        assert pats <= set(excluded)
        assert not pats & set(kept)
        for d1, d2, d3 in pats:
            assert biquad.genus_length(d1, d2, d3) == 4  # generated by the L-test


@criterion(4, "odd-n vanishing: full-variant averages exactly 0 (q=3, g=1..3, n=1,3,5)")
def test_criterion_4_odd_vanishing():
    for g in (1, 2, 3):
        for n in (1, 3, 5):
            rep = moments.average_trace(F3, g, n, biquad.FULL)
            assert rep.avg_T == 0, (g, n, rep.avg_T)


@criterion(5, "even-n decomposition exact; roots bound; x-sum = prime-sum (q=3,5; g<=3; n=2,4)")
def test_criterion_5_error_decomposition():
    for field in (F3, F5):
        for g in (1, 2, 3):
            for n in (2, 4):
                rep = moments.error_decomposition(field, g, n)
                q = field.q
                assert (rep.avg_T / q ** (n // 2)
                        == -3 + rep.roots_term - rep.bilinear_term)
                assert float(rep.roots_term) <= 3 * (g + 3) / q ** (n / 2) + 1e-12
                # the x-sum / prime-sum agreement is asserted exactly inside
                # error_decomposition; surface the terms it produced
                assert rep.diagnostics["gen_term"] is not None


@criterion(6, "fixed-prime sums: exact parity decomposition; scaled Lemma-6.1 gaps bounded, trending down")
def test_criterion_6_fixed_prime():
    primes = (Poly.x(F3), Poly.from_coeffs(F3, (1, 0, 1)))
    for P in primes:
        for g in (1, 2):
            lhs = moments.fixed_prime_family_sum(F3, g, P)
            rhs = moments.family_sum_nkk_decomposition(F3, g, P)
            assert lhs == rhs, (P, g)
    # scaled gap diagnostic at M = 10 over d = 4..8, aggregated across the
    # four parity classes and both primes: bounded by 1, least-squares
    # slope in d nonpositive
    ds = range(4, 9)
    per_d = {d: [] for d in ds}
    for P in primes:
        for d in ds:
            sums = moments.nkk_sums_all(F3, P, d)
            for (k1, k2), exact in sums.items():
                c = moments.c_constant_kk(P, d, k1, k2, 10)
                v = abs(exact - float(c / 4 * 3 ** d)) / 3 ** (0.6 * d)
                assert v <= 1.0, (P, d, k1, k2, v)
                per_d[d].append(v)
    means = [sum(per_d[d]) / len(per_d[d]) for d in ds]
    xs = list(ds)
    xbar, ybar = sum(xs) / len(xs), sum(means) / len(means)
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, means))
    assert slope <= 0, means


@criterion(7, "prime sums of truncated Euler products within the fixed envelope (q=3, n<=3, M=n+6)")
def test_criterion_7_prime_sums():
    start = time.time()
    for n in (1, 2, 3):
        M = n + 6
        for kind in eulerprod.KINDS:
            r = eulerprod.prime_sum(kind, F3, n, M)
            envelope = 1.0 * 3 ** (n / 2) * M ** 3 / n
            assert abs(float(r.gap)) <= envelope, (n, kind, r.gap)
    # reference spot value: n=1 -> pi_3(1)/zeta_3(2) = 2
    assert eulerprod.prime_sum("plus", F3, 1, 7).reference == 2
    assert time.time() - start < 300, "runtime target exceeded"


@criterion(8, "matrix-integral case tables exact for g<=5, n<=12")
def test_criterion_8_matrix_integrals():
    for g in range(1, 6):
        for n in range(1, 13):
            eta_n = 1 if n % 2 == 0 else 0
            expect_usp = -eta_n if n <= 2 * g else 0
            assert moments.matrix_integral_reference("USp", g, n) == expect_usp
            assert (moments.matrix_integral_reference("USp_cubed", g, n)
                    == (-3 * eta_n if n <= 2 * g else 0))
            assert moments.matrix_integral_reference("U", g, n) == 0


@criterion(9, "density: eigenphase Z == trace Z within 1e-6; point-mass hat f returns hat f(0)")
def test_criterion_9_density():
    t = biquad.CurveTriple(
        Poly.from_coeffs(F3, (1, 0, 1)), Poly.from_coeffs(F3, (2, 1, 1)),
        Poly.one(F3))
    fhat = moments.fejer_kernel(0.25)
    z_trace, z_phase = moments.curve_density_pair(t, fhat, 0.25)
    assert abs(z_trace - z_phase) < 1e-6
    point_mass = lambda x: 1.75 if x == 0 else 0.0
    rep = moments.one_level_density(F3, 1, point_mass, 0.25)
    assert rep.family_value == 1.75
    assert rep.reference_value == 1.75


@criterion(10, "moments runs are byte-identical across thread counts")
def test_criterion_10_determinism(tmp_path):
    outs = []
    for threads in (1, 4):
        out = tmp_path / f"t{threads}.csv"
        rc = cli.main([
            "moments", "--q", "3", "--genus", "2", "--n-max", "4",
            "--variant", "full", "--mode", "exhaustive",
            "--threads", str(threads), "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
