"""Local factors, truncated products, tail scales, prime sums."""

import math
from fractions import Fraction

import pytest

from ffstat import _tables, eulerprod, ffpoly, lfunc
from ffstat.ffpoly import GF, Poly

F3 = GF(3)
F5 = GF(5)
P_X2P1 = Poly.from_coeffs(F3, (1, 0, 1))
U3 = Fraction(1, 3)


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_local_factor_worked_example():
    assert eulerprod.local_factor("plus", P_X2P1, Poly.x(F3), U3) == Fraction(4, 3)


def test_local_factor_at_Q_equals_P():
    # character vanishes, leaving 1 - u^(2 deg P)
    for kind in eulerprod.KINDS:
        assert eulerprod.local_factor(kind, P_X2P1, P_X2P1, U3) == 1 - U3 ** 4


def test_plus_minus_agree_on_even_degree():
    for Q in ffpoly.primes(F3, 2):
        assert (eulerprod.local_factor("plus", P_X2P1, Q, U3)
                == eulerprod.local_factor("minus", P_X2P1, Q, U3))


def test_local_factor_rejects_reducible_Q():
    with pytest.raises(ValueError):
        eulerprod.local_factor("plus", P_X2P1, Poly.from_coeffs(F3, (2, 0, 1)), U3)


def test_local_factor_polynomial_identity():
    # (1 - u^d)(1 + u^d + 2 chi u^d) = 1 + 2 chi u^d - (1 + 2 chi) u^(2d)
    # as exact polynomials in u, for every prime Q of degree <= 4
    for d in range(1, 5):
        for Q in ffpoly.primes(F3, d):
            for sign in (1, -1):
                chi = eulerprod._chi_pm(P_X2P1, Q, sign)
                lhs = _poly_mul(
                    [Fraction(1)] + [0] * (d - 1) + [Fraction(-1)],
                    [Fraction(1)] + [0] * (d - 1) + [Fraction(1 + 2 * chi)],
                )
                rhs = [Fraction(0)] * (2 * d + 1)
                rhs[0] = Fraction(1)
                rhs[d] += 2 * chi
                rhs[2 * d] -= 1 + 2 * chi
                assert lhs == rhs, (Q, sign)


def test_remainder_scale_bounded():
    # the u^(2d) remainder has coefficient -(1 + 2 chi), bounded by 3
    for kind in eulerprod.KINDS:
        spec = eulerprod.delta_spec(kind, P_X2P1)
        for d in range(1, 5):
            for Q in ffpoly.primes(F3, d):
                assert spec.remainder_scale(Q, U3) <= 3 + 1e-12


def test_truncated_product_is_plain_product():
    spec = eulerprod.delta_spec("plus", P_X2P1)
    tp = eulerprod.truncated_product(spec, 3, U3)
    manual = Fraction(1)
    for d in (1, 2, 3):
        for Q in ffpoly.primes(F3, d):
            manual *= eulerprod.local_factor("plus", P_X2P1, Q, U3)
    assert tp.value == manual
    assert tp.in_disc


def test_partition_invariance():
    # splitting the prime range and multiplying the parts is exactly the whole
    spec = eulerprod.delta_spec("zero", P_X2P1)
    whole = eulerprod.truncated_product(spec, 4, U3).value
    part1 = Fraction(1)
    part2 = Fraction(1)
    for d in range(1, 5):
        for i, Q in enumerate(ffpoly.primes(F3, d)):
            f = spec.exact_factor(Q, U3)
            if (i + d) % 2:
                part1 *= f
            else:
                part2 *= f
    assert part1 * part2 == whole


def test_zeta_two_limit():
    # prod over deg Q <= M of (1 - 1/|Q|^2) approaches 1/zeta_q(2) = 2/3,
    # with the empirical tail decaying like q^-M / M
    def zf(Q, u):
        return 1 - u ** (2 * int(Q.degree))

    spec = eulerprod.LocalFactorSpec(F3, (), zf, Fraction(1), "zeta2")
    target = 1 / lfunc.zeta_q_value(3, 2)
    gaps = []
    for M in (2, 4, 6, 8):
        val = eulerprod.truncated_product(spec, M, U3).value
        gaps.append(abs(val - target))
        assert abs(val - target) <= Fraction(1, 3 ** M)
    assert gaps == sorted(gaps, reverse=True)


def test_monotone_stabilization():
    # successive increments |value(M+1) - value(M)| shrink toward zero;
    # they alternate in size with the parity of M (odd- and even-degree
    # prime blocks contribute differently), so the decay is asserted
    # within each parity class
    spec = eulerprod.delta_spec("plus", P_X2P1)
    vals = [eulerprod.truncated_product(spec, M, U3).value for M in range(1, 10)]
    deltas = [abs(float(b - a)) for a, b in zip(vals, vals[1:])]
    for i in range(len(deltas) - 2):
        assert deltas[i + 2] < deltas[i]
    assert deltas[-1] < 1e-3 < deltas[0]


def test_tail_bound_shapes():
    spec = eulerprod.delta_spec("plus", P_X2P1)
    b6 = eulerprod.tail_bound(spec, 6, U3)
    assert b6 == pytest.approx((3 ** -0.5) ** 6 / 6 + (3 ** -1.0) ** 6 / 6)
    assert eulerprod.tail_bound(spec, 40, U3) < 1e-9
    # the first term tends to 1/M as |u| approaches q^(-1/2) (and with
    # eta = 1 the second term does too, so the bound approaches 2/M)
    near = Fraction(577, 1000)  # just under 3^(-1/2)
    first = (3 ** 0.5 * float(near)) ** 10 / 10
    assert first == pytest.approx(0.1, rel=0.02)
    assert eulerprod.tail_bound(spec, 10, near) == pytest.approx(0.2, rel=0.02)


def test_disc_membership():
    spec = eulerprod.delta_spec("plus", P_X2P1)
    assert spec.in_disc(Fraction(1, 3))
    assert not spec.in_disc(Fraction(3, 5))  # above 3^(-1/2) ~ 0.577
    assert not eulerprod.truncated_product(spec, 2, Fraction(4, 5)).in_disc


def test_h_zero_is_even():
    for M in (3, 5):
        assert (eulerprod.h_value("zero", P_X2P1, U3, M)
                == eulerprod.h_value("zero", P_X2P1, -U3, M))


def test_assembled_vs_truncated_gap_shrinks():
    spec = eulerprod.delta_spec("plus", P_X2P1)
    gaps = []
    for M in (4, 6, 8):
        tp = eulerprod.truncated_product(spec, M, U3).value
        ap = eulerprod.assembled_product("plus", P_X2P1, U3, M)
        gap = abs(float(tp - ap))
        gaps.append(gap)
        assert gap <= 10 * eulerprod.tail_bound(spec, M, U3)
    assert gaps == sorted(gaps, reverse=True)


def test_assembled_zero_kind_runs():
    v = eulerprod.assembled_product("zero", P_X2P1, U3, 5)
    tp = eulerprod.truncated_product(eulerprod.delta_spec("zero", P_X2P1), 5, U3)
    assert abs(float(v - tp.value)) < 0.05


def test_trivial_spec_product_is_one():
    spec = eulerprod.LocalFactorSpec(F3, (), lambda Q, u: Fraction(1), Fraction(1))
    assert eulerprod.truncated_product(spec, 4, U3).value == 1


def test_prime_sum_reference_values():
    r = eulerprod.prime_sum("plus", F3, 1, 4)
    assert r.reference == 2  # pi_3(1) / zeta_3(2) = 3 * 2/3
    r = eulerprod.prime_sum("zero", F3, 2, 4)
    assert r.reference == 2  # pi_3(2) = 3 again


def test_prime_sum_fast_equals_pure():
    # table-backed rows over one shared denominator against the sum of
    # the generic per-prime truncated products
    for kind in eulerprod.KINDS:
        pure = sum(eulerprod.truncated_product(eulerprod.delta_spec(kind, P), 4, U3).value
                   for P in ffpoly.primes(F3, 2))
        assert eulerprod.prime_sum(kind, F3, 2, 4).value == pure


def test_prime_sum_over_a_prime_power_field_equals_pure():
    F9 = GF(3, 2)
    u = Fraction(1, 9)
    for kind in eulerprod.KINDS:
        pure = sum(eulerprod.truncated_product(eulerprod.delta_spec(kind, P), 2, u).value
                   for P in ffpoly.primes(F9, 1))
        assert eulerprod.prime_sum(kind, F9, 1, 2).value == pure


def test_prime_sum_reads_every_prime_in_one_legendre_call(monkeypatch):
    # (Q/P) for all 36 degree-2 primes P of F_9 in one stacked call, where
    # one call per P ran before; the counts read the 9 keys of degree
    # (2-1)//2 + 1 = 1 alone, so the P's rows read the keys' tables
    calls = []
    stacked = _tables.PolyTables.legendre_array

    def counting(self, coefmat, qkeys):
        calls.append((len(coefmat), len(qkeys)))
        return stacked(self, coefmat, qkeys)

    monkeypatch.setattr(_tables.PolyTables, "legendre_array", counting)
    F9 = GF(3, 2)
    eulerprod._degree_counts.cache_clear()  # counts an earlier test left
    eulerprod.prime_sum("zero", F9, 2, 3)
    assert calls == [(36, 9)]


def test_h_value_rejects_empty_product():
    for M in (0, -1):
        with pytest.raises(ValueError, match="M must be >= 1"):
            eulerprod.h_value("plus", P_X2P1, U3, M)
    with pytest.raises(ValueError, match="kind"):
        eulerprod.h_value("bogus", P_X2P1, U3, 2)


def test_prime_sum_kinds_converge_together():
    # all three kinds approach the same reference; the scaled gaps stay
    # within a fixed band on the desk grid (q=3 n<=4, q=5 n<=2 with M=n+4;
    # larger q=5 cells are exact-arithmetic-infeasible at this M policy)
    for field, n_top in ((F3, 4), (F5, 2)):
        for n in range(1, n_top + 1):
            for kind in eulerprod.KINDS:
                r = eulerprod.prime_sum(kind, field, n, n + 4)
                assert r.scaled_gap <= 3.0, (field.q, n, kind, r.scaled_gap)


def test_prime_sum_scales_reported():
    r = eulerprod.prime_sum("plus", F3, 2, 6)
    assert set(r.scales) == {"zeta_tail", "fluctuation", "product_tail"}
    assert r.scales["fluctuation"] == pytest.approx(3 * 6 ** 3 / 2)


def test_prime_sum_value_and_gap_are_built_once(monkeypatch):
    # value and gap are cached: a second access runs no gcd on the
    # ~10^5-bit pair
    r = eulerprod.prime_sum("plus", F3, 2, 6)
    first = (r.value, r.gap)
    calls = []
    real_gcd = math.gcd

    def gcd(*args):
        calls.append(args)
        return real_gcd(*args)

    monkeypatch.setattr(math, "gcd", gcd)
    assert (r.value, r.gap) == first
    assert r.value is first[0] and r.gap is first[1]
    assert calls == []
    assert r.gap == Fraction(r.num, r.den) - r.reference and calls
