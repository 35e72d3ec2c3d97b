"""Field and polynomial layer: arithmetic, predicates, enumeration, symbols."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import scalar_oracles as oracle
from scalar_oracles import INFINITY, extension_field
from ffstat import ffpoly
from ffstat.errors import InvariantError
from ffstat.ffpoly import GF, Poly


F3 = GF(3)
F5 = GF(5)


def P3(*coeffs):
    return Poly.from_coeffs(F3, coeffs)


def rand_poly(field, max_deg, rng, nonzero=False):
    while True:
        deg = rng.randrange(max_deg + 1)
        coeffs = [rng.randrange(field.q) for _ in range(deg + 1)]
        p = Poly(field, coeffs)
        if not (nonzero and p.is_zero()):
            return p


# -- ring operations --------------------------------------------------------


def test_ring_ops_worked_examples():
    a = P3(2, 0, 1)  # X^2 - 1
    b = P3(2, 1)     # X - 1
    assert ffpoly.poly_gcd(a, b) == b
    q, r = divmod(P3(1, 0, 1), P3(0, 1))
    assert (q, r) == (P3(0, 1), P3(1))
    # two distinct irreducible quadratics are coprime
    assert ffpoly.poly_gcd(P3(1, 0, 1), P3(2, 1, 1)) == Poly.one(F3)


def test_division_by_zero_and_field_mismatch():
    with pytest.raises(ZeroDivisionError):
        divmod(P3(1, 1), Poly.zero(F3))
    with pytest.raises(ValueError):
        P3(1, 1) + Poly.from_coeffs(F5, (1, 1))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_divmod_identity(data):
    field = data.draw(st.sampled_from([F3, F5]))
    coeffs_a = data.draw(st.lists(st.integers(0, field.q - 1), max_size=7))
    coeffs_b = data.draw(st.lists(st.integers(0, field.q - 1), min_size=1, max_size=5))
    a, b = Poly(field, coeffs_a), Poly(field, coeffs_b)
    if b.is_zero():
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.is_zero() or r.degree < b.degree


def test_gcd_is_monic_and_divides():
    rng = random.Random(7)
    for _ in range(100):
        a = rand_poly(F3, 5, rng, nonzero=True)
        b = rand_poly(F3, 5, rng, nonzero=True)
        g = ffpoly.poly_gcd(a, b)
        assert g.is_monic()
        assert (a % g).is_zero() and (b % g).is_zero()


def test_zero_degree_sentinel():
    assert Poly.zero(F3).degree == float("-inf")
    assert Poly.one(F3).degree == 0


# -- mobius / square-free / irreducibility -----------------------------------


def test_mobius_examples():
    x = Poly.x(F3)
    assert oracle.mobius_squarefree(x * x) == (0, False)
    assert oracle.mobius_squarefree(x * P3(1, 1)) == (1, True)
    assert oracle.mobius_squarefree(P3(1, 0, 1)) == (-1, True)
    with pytest.raises(ValueError):
        oracle.mobius_squarefree(Poly.zero(F3))


def test_mobius_multiplicative_on_coprime():
    rng = random.Random(11)
    for field in (F3, F5):
        hits = 0
        while hits < 60:
            a = rand_poly(field, 4, rng, nonzero=True)
            b = rand_poly(field, 4, rng, nonzero=True)
            if not ffpoly.poly_gcd(a, b).is_constant():
                continue
            hits += 1
            mu_a, _ = oracle.mobius_squarefree(a)
            mu_b, _ = oracle.mobius_squarefree(b)
            mu_ab, _ = oracle.mobius_squarefree(a * b)
            assert mu_ab == mu_a * mu_b


def test_irreducible_examples():
    assert ffpoly.is_irreducible(Poly.x(F3))
    assert ffpoly.is_irreducible(P3(1, 0, 1))
    assert not ffpoly.is_irreducible(P3(2, 0, 1))  # (X-1)(X+1)
    with pytest.raises(ValueError):
        ffpoly.is_irreducible(Poly.one(F3))


def _divisor_oracle_irreducible(f):
    """Independent oracle: test every monic candidate divisor degree <= deg/2."""
    field = f.field
    for d in range(1, int(f.degree) // 2 + 1):
        for g in ffpoly.monic_polys(field, d):
            if (f % g).is_zero():
                return False
    return True


@pytest.mark.parametrize("q,e,max_deg", [(3, 1, 5), (5, 1, 4), (7, 1, 4), (3, 2, 3)])
def test_irreducible_matches_divisor_oracle(q, e, max_deg):
    field = GF(q, e)
    for d in range(1, max_deg + 1):
        for f in ffpoly.monic_polys(field, d):
            assert ffpoly.is_irreducible(f) == _divisor_oracle_irreducible(f), f


# -- enumeration and counting -------------------------------------------------


def test_enumerate_prime_examples():
    assert [str(p) for p in ffpoly.enumerate_polys(F3, 1, "prime")] == ["X", "X+1", "X+2"]
    assert [str(p) for p in ffpoly.enumerate_polys(F3, 2, "prime")] == [
        "X^2+1", "X^2+X+2", "X^2+2X+2"]
    assert len(ffpoly.enumerate_polys(F3, 2, "squarefree-monic")) == 6


def test_enumerate_partitioned_iteration():
    full = ffpoly.enumerate_polys(F5, 3, "prime")
    chunks = [ffpoly.enumerate_polys(F5, 3, "prime", start=a, stop=a + 7)
              for a in range(0, len(full), 7)]
    assert [p for ch in chunks for p in ch] == full
    monic = ffpoly.enumerate_polys(F3, 3, "monic")
    assert len(monic) == 27
    assert monic[5:9] == ffpoly.enumerate_polys(F3, 3, "monic", start=5, stop=9)


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_prime_count_vs_enumeration(q):
    field = GF(*((q, 1) if q != 9 else (3, 2)))
    top = 5 if q <= 5 else 4
    for n in range(1, top + 1):
        assert ffpoly.prime_count_exact(q, n) == len(ffpoly.primes(field, n))


def test_prime_count_examples_and_errors():
    assert ffpoly.prime_count_exact(3, 1) == 3
    assert ffpoly.prime_count_exact(3, 2) == 3
    assert ffpoly.prime_count_exact(3, 4) == 18
    with pytest.raises(ValueError):
        ffpoly.prime_count_exact(3, 0)


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_degree_sum_identity(q):
    # sum over d | n of d * pi_q(d) counts the roots of X^(q^n) - X
    for n in range(1, 5):
        total = sum(d * ffpoly.prime_count_exact(q, d)
                    for d in range(1, n + 1) if n % d == 0)
        assert total == q ** n


@pytest.mark.parametrize("q,e,top", [(3, 1, 5), (5, 1, 4), (7, 1, 3), (3, 2, 3)])
def test_squarefree_count_vs_enumeration(q, e, top):
    field = GF(q, e)
    for d in range(top + 1):
        got = len(ffpoly.enumerate_polys(field, d, "squarefree-monic"))
        assert got == ffpoly.squarefree_count(q ** e, d)


def test_squarefree_count_examples():
    assert ffpoly.squarefree_count(3, 0) == 1
    assert ffpoly.squarefree_count(3, 2) == 6
    assert ffpoly.squarefree_count(5, 3) == 100


# -- legendre / jacobi symbols -------------------------------------------------


def test_legendre_examples():
    P = P3(1, 0, 1)
    G = P3(1, 1)
    assert oracle.legendre_symbol(P * G, P) == 0
    assert oracle.legendre_symbol(G * G, P) == 1
    assert oracle.legendre_symbol(Poly.x(F3), P) == 1
    with pytest.raises(ValueError):
        oracle.legendre_symbol(G, P3(2, 0, 1))  # reducible modulus


def test_legendre_euler_miss_is_invariant_error(monkeypatch):
    P = P3(1, 0, 1)
    monkeypatch.setattr(oracle, "_poly_powmod", lambda base, n, modulus: Poly.x(F3))
    with pytest.raises(InvariantError, match="Euler criterion"):
        oracle.legendre_symbol(P3(1, 1), P)


def test_legendre_completely_multiplicative():
    rng = random.Random(3)
    P = P3(2, 2, 1)
    for _ in range(80):
        f = rand_poly(F3, 4, rng, nonzero=True)
        g = rand_poly(F3, 4, rng, nonzero=True)
        assert oracle.legendre_symbol(f * g, P) == (
            oracle.legendre_symbol(f, P) * oracle.legendre_symbol(g, P))


def test_euler_vs_reciprocity_full_grid_q3():
    primes = [p for d in (1, 2, 3, 4) for p in ffpoly.primes(F3, d)]
    polys = [Poly(F3, Poly.monic_from_code(F3, d, c).coeffs[:-1] + (lead,))
             for d in range(5) for c in range(3 ** d) for lead in (1, 2)]
    for P in primes:
        for f in polys:
            if f.is_zero():
                continue
            assert (oracle.legendre_symbol(f, P, method="euler")
                    == oracle.legendre_symbol(f, P, method="reciprocity")), (f, P)


def test_euler_vs_reciprocity_sampled_q5():
    rng = random.Random(17)
    primes = [p for d in (1, 2, 3, 4) for p in ffpoly.primes(F5, d)]
    for _ in range(400):
        P = rng.choice(primes)
        f = rand_poly(F5, 4, rng, nonzero=True)
        assert (oracle.legendre_symbol(f, P, method="euler")
                == oracle.legendre_symbol(f, P, method="reciprocity"))


def test_jacobi_multiplicative_in_modulus():
    rng = random.Random(23)
    for _ in range(60):
        f = rand_poly(F3, 4, rng, nonzero=True)
        m1 = rand_poly(F3, 3, rng, nonzero=True).to_monic()
        m2 = rand_poly(F3, 3, rng, nonzero=True).to_monic()
        if m1.is_zero() or m2.is_zero():
            continue
        assert ffpoly.jacobi_symbol(f, m1 * m2) == (
            ffpoly.jacobi_symbol(f, m1) * ffpoly.jacobi_symbol(f, m2))


# -- quadratic character evaluation --------------------------------------------


def test_quad_char_eval_infinity_convention():
    E1 = extension_field(F3, 1)
    assert oracle.quad_char_eval(Poly.x(F3), INFINITY, E1) == 0
    assert oracle.quad_char_eval(P3(1, 0, 1), INFINITY, E1) == 1
    # leading coefficient 2 is a non-square in F_3
    assert oracle.quad_char_eval(P3(1, 0, 2), INFINITY, E1) == -1


def test_quad_char_eval_worked_example():
    E1 = extension_field(F3, 1)
    assert oracle.quad_char_eval(P3(1, 0, 1), 1, E1) == -1


def test_quad_char_subfield_values_are_squares():
    # for even n, any nonzero value lying in the half-size subfield is a square
    E2 = extension_field(F3, 2)
    f = P3(1, 0, 1)
    for x in range(3):  # F_3 subset F_9 as constant codes
        val = oracle.eval_poly(E2, f, x)
        if val != 0:
            assert val < 3  # value stays in the base field
            assert E2.chi2(val) == 1


def test_quad_char_multiplicative():
    rng = random.Random(31)
    E2 = extension_field(F3, 2)
    for _ in range(100):
        f = rand_poly(F3, 3, rng, nonzero=True)
        g = rand_poly(F3, 3, rng, nonzero=True)
        x = rng.randrange(9)
        vf = oracle.quad_char_eval(f, x, E2)
        vg = oracle.quad_char_eval(g, x, E2)
        if vf and vg:
            assert oracle.quad_char_eval(f * g, x, E2) == vf * vg


# -- fields ---------------------------------------------------------------------


@pytest.mark.parametrize("p,e", [(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (7, 2)])
def test_field_frobenius_fixed_points(p, e):
    field = GF(p, e)
    q = field.q
    for x in field.elements():
        assert field.pow(x, q) == x


def test_field_axioms_spot():
    F9 = GF(3, 2)
    for a in F9.elements():
        for b in F9.elements():
            assert F9.mul(a, b) == F9.mul(b, a)
            assert F9.add(a, b) == F9.add(b, a)
        if a:
            assert F9.mul(a, F9.inv(a)) == 1


def test_even_characteristic_rejected():
    with pytest.raises(ValueError):
        ffpoly.FiniteField(2)
    with pytest.raises(ValueError):
        ffpoly.FiniteField(9)  # not prime


def test_extension_field_group_order():
    rng = random.Random(41)
    for (p, e, n) in [(3, 1, 4), (5, 1, 3), (3, 2, 2)]:
        ext = extension_field(GF(p, e), n)
        order = ext.order
        # multiplicative order of random elements divides q^n - 1
        for _ in range(10):
            x = rng.randrange(1, order)
            assert ext.pow(x, order - 1) == 1
        assert ext.pow(ext.generator, (order - 1) // 2) != 1


def test_extension_field_refuses_oversized_tables_before_allocating(monkeypatch):
    # the construction takes about 32 n e q^n bytes
    monkeypatch.setattr(ffpoly, "EXTENSION_BYTES_CAP", 32 * 3 * 27)
    assert ffpoly.ExtensionField(F3, 3).order == 27
    with pytest.raises(ValueError, match="q=3 with n=4 .* over the cap"):
        ffpoly.ExtensionField(F3, 4)
    monkeypatch.undo()
    F9 = GF(3, 2)
    tracemalloc.start()
    try:
        # F_{3^12} and F_{9^6} peak at 196 MiB; F_{5^30} at 10^23 bytes
        for base, n in ((F3, 12), (F9, 6), (F5, 30)):
            with pytest.raises(ValueError, match="over the cap"):
                ffpoly.ExtensionField(base, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_extension_eval_matches_scalar():
    ext = extension_field(F5, 2)
    f = Poly.from_coeffs(F5, (2, 0, 1, 3))
    (_, (vals,)), = oracle.eval_blocks(ext, [f])
    for x in range(ext.order):
        assert int(vals[x]) == oracle.eval_poly(ext, f, x)
