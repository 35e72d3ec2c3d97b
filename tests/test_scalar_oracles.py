"""The table-backed batched paths against their scalar oracles, over prime
powers (q = 9, 25, 27) and a prime field, the L-function suite over prime
powers, and the exp/log field construction against element-by-element
digit products."""

import numpy as np
import pytest

import scalar_oracles as oracle
from ffstat import biquad, eulerprod, ffpoly, lfunc, moments
from ffstat.ffpoly import GF, ExtensionField, FiniteField, Poly

F3 = GF(3)
F9 = GF(3, 2)
F25 = GF(5, 2)
F27 = GF(3, 3)


@pytest.mark.parametrize("field,max_deg", [(F3, 5), (F9, 3), (F25, 2), (F27, 2)])
def test_primes_match_the_scalar_sieve(field, max_deg):
    for d in range(max_deg, 0, -1):
        assert ffpoly.primes(field, d) == oracle.prime_list(field, d)


@pytest.mark.parametrize("field", [F3, F9])
def test_chi_rows_match_reciprocity(field):
    # the fixed-prime series' one-variable coefficients: of F(u, 0, 0), the
    # sum of chi_P over the square-free monics of degree e, against the
    # scalar reciprocity rows, and of F(0, 0, u), their number
    primes = ffpoly.primes(field, 1)[:4] + ffpoly.primes(field, 2)[::7]
    for e in (0, 1, 2, 3):
        polys = [Poly.monic_from_code(field, e, c) for c in biquad.squarefree_factors(field, e).codes.tolist()]
        got = [(int(S[4, e]), int(S[5, e])) for S in (moments._prime_series(P, e) for P in primes)]
        assert got == [(int(r.sum()), len(polys)) for r in oracle.chi_rows(polys, primes)]


def test_chi_plain_rows_match_reciprocity():
    # the counts of each symbol value per degree, all any caller reads
    for P in (ffpoly.primes(F9, 1)[4], ffpoly.primes(F9, 2)[10]):
        want = [[int((r == v).sum()) for v in (-1, 0, 1)] for r in oracle.chi_plain_rows(P, 3)]
        assert eulerprod.chi_counts(P, 3).tolist() == want


@pytest.mark.parametrize("d,n", [(0, 2), (1, 1), (1, 2), (2, 1), (2, 2)])
def test_double_char_sum_matches_the_scalar_loop(d, n):
    _, total = oracle.double_char_sum(F9, d, n)
    assert total == oracle.double_char_total(F9, d, n)


@pytest.mark.parametrize("field,d", [(F3, 4), (F9, 2), (F9, 3)])
def test_squarefree_factors_match_trial_division(field, d):
    sf = biquad.squarefree_factors(field, d)
    want_polys, want_factors = oracle.squarefree_factors(field, d)
    assert sf.codes.tolist() == [f.monic_code() for f in want_polys]
    # prime columns run by degree, then code
    key_of = [(e, P.monic_code()) for e in range(1, d + 1) for P in oracle.prime_list(field, e)]
    got = [set() for _ in sf.codes]
    for i, e, c in zip(sf.poly.tolist(), sf.prime_deg.tolist(), sf.prime_col.tolist()):
        assert key_of[c][0] == e
        got[i].add(key_of[c])
    assert got == want_factors


@pytest.mark.parametrize("q,max_deg,n_max,step", [(9, 3, 3, 41), (25, 2, 2, 37), (27, 2, 2, 71)])
def test_l_suite_runs_over_prime_powers(q, max_deg, n_max, step):
    field = ffpoly.field_of_order(q)
    records = []
    rep = lfunc.l_suite(q, max_deg=max_deg, n_max=n_max, collect=records.append)
    assert rep.ok(), rep.failures[:5]
    assert rep.moduli == sum(ffpoly.squarefree_count(q, d) for d in range(1, max_deg + 1))
    assert rep.rh_max_dev < 1e-9
    for rec in records[::step]:
        D = Poly.one(field)
        for a, code in rec["factors"]:
            D = D * Poly.monic_from_code(field, a, code)
        assert rec["s"] == [oracle.prime_char_sum(D, n) for n in range(1, n_max + 1)]
        # the raw L-polynomial is the character sum over monic polynomials
        chi = lfunc.QuadChar(D, lfunc.PLUS)
        if rec["deg"] <= 2:
            assert rec["raw"].coeffs == lfunc.l_polynomial(chi).coeffs


@pytest.mark.parametrize("field,max_deg,n_max", [(GF(3), 4, 4), (GF(5), 3, 3), (GF(3, 2), 2, 3),
                                                 (GF(5, 2), 2, 2), (GF(3, 3), 2, 2)])
def test_l_polynomial_and_explicit_formula_match_the_scalar_loops(field, max_deg, n_max):
    for d in range(1, max_deg + 1):
        for D in ffpoly.enumerate_polys(field, d, "squarefree-monic")[::max(1, field.q ** d // 40)]:
            for sign in (lfunc.PLUS, lfunc.MINUS):
                chi = lfunc.QuadChar(D, sign)
                assert lfunc.l_polynomial(chi).coeffs == oracle.l_polynomial_coeffs(chi)
            for n in range(1, n_max + 1):
                assert lfunc.explicit_formula_trace(chi, n) == oracle.explicit_formula_trace(chi, n)
                assert lfunc.prime_char_sum(D, n) == oracle.prime_char_sum(D, n)


def _batch_polys(field, order):
    """Mixed degrees, a constant, zero inner coefficients and non-monic
    leading coefficients, with the scaled f1, f2 of two genus-0 members of
    the full variant; fewer above 2000 points, where each scalar Horner
    step over the field costs about 0.2 s."""
    q, u = field.q, field.q - 1
    sparse = Poly.from_coeffs(field, (q - 1, 0, 0, 2))  # 2 X^3 - 1
    # member t u^2 + u^2 - 1 is monic member t with f1, f2 scaled by -1
    members = [biquad.family_member(field, 0, biquad.FULL, t * u * u + u * u - 1) for t in (1, 5)]
    scaled = [f for m in members for f in (m.f1, m.f2)]
    if order > 2000:
        return [Poly.constant(field, q - 1), sparse, scaled[-1]]
    return [Poly.constant(field, 2), Poly.from_coeffs(field, (1, q - 2)), sparse,
            Poly.from_coeffs(field, [(3 * i + 1) % q for i in range(5)]), *scaled]


@pytest.mark.parametrize("q,n", [(q, n) for q in (3, 5, 9, 25, 27) for n in (1, 2, 3)])
def test_batched_horner_matches_scalar_eval(monkeypatch, q, n):
    field = ffpoly.field_of_order(q)
    ext = oracle.extension_field(field, n)
    polys = _batch_polys(field, ext.order)
    degrees = {int(f.degree) for f in polys}
    assert {0, 3} <= degrees and len(degrees) >= 3
    assert any(not f.is_monic() for f in polys)
    values = [[oracle.eval_poly(ext, f, x) for x in ext.elements()] for f in polys]
    chi = [[ext.chi2(v) for v in row] for row in values]
    zeros = [row.count(0) for row in values]
    # two polynomials per block, so several blocks run and the last is short
    monkeypatch.setattr(ffpoly, "BLOCK_BYTES", 2 * 8 * ext.order)
    blocks = list(oracle.eval_blocks(ext, polys))
    assert [lo for lo, _ in blocks] == list(range(0, len(polys), 2))
    assert np.concatenate([vals for _, vals in blocks]).tolist() == values
    assert oracle.point_chi_rows(ext, polys).tolist() == chi
    assert oracle.zero_counts(ext, polys).tolist() == zeros
    # one-row calls: a block with no padding
    for f, want_values, want_chi, want_zeros in zip(polys, values, chi, zeros):
        assert [vals.tolist() for _, vals in oracle.eval_blocks(ext, [f])] == [[want_values]]
        assert oracle.point_chi_rows(ext, [f]).tolist() == [want_chi]
        assert oracle.zero_counts(ext, [f]).tolist() == [want_zeros]


def test_family_totals_do_not_depend_on_the_block_size(monkeypatch):
    want = [moments._family_totals(F9, 1, n) for n in (1, 2)]
    moments._family_totals.cache_clear()
    monkeypatch.setattr(ffpoly, "BLOCK_BYTES", 1)  # one orbit column, one kernel row a block
    try:
        assert [moments._family_totals(F9, 1, n) for n in (1, 2)] == want
    finally:
        moments._family_totals.cache_clear()


def test_eval_blocks_over_a_prime_power_base():
    polys = [Poly.from_coeffs(F9, (5, 0, 7, 1)), Poly.from_coeffs(F9, (8, 3, 1))]
    for n in (1, 2):
        ext = oracle.extension_field(F9, n)
        (_, values), = oracle.eval_blocks(ext, polys)
        assert values.tolist() == [[oracle.eval_poly(ext, f, x) for x in ext.elements()] for f in polys]
    assert np.array_equal(oracle.add_array(F9, np.arange(9), 5), [F9.add(a, 5) for a in range(9)])


# -- field construction ------------------------------------------------------------


def _assert_field_matches(F, want):
    q = F.q
    assert F.modulus_coeffs == want.modulus
    assert [[F.mul(a, b) for b in range(q)] for a in range(q)] == want.mul
    assert [[F.add(a, b) for b in range(q)] for a in range(q)] == want.add
    assert [F.neg(a) for a in range(q)] == want.neg
    assert [F.inv(a) for a in range(1, q)] == want.inv[1:]


@pytest.mark.parametrize("p,e", [(3, 2), (5, 2), (3, 3), (7, 2), (3, 4), (5, 3), (3, 5), (7, 3)])
def test_field_tables_match_the_scalar_bootstrap(p, e):
    _assert_field_matches(GF(p, e), oracle.field_tables(p, e))


@pytest.mark.parametrize("p,e", [(3, 2), (5, 2), (3, 3), (43, 2)])
def test_add_array_gathers_int64_from_an_int16_table(p, e):
    F = GF(p, e)
    q = F.q
    assert F._add_table.dtype == np.int16  # q <= 2048: a quarter of int64's bytes
    if q < 100:
        want = np.array(oracle.field_tables(p, e).add)
    else:
        # digit-wise addition written out for the largest field q < 2048
        lo, hi = np.arange(q) % p, np.arange(q) // p
        want = (lo[:, None] + lo) % p + p * ((hi[:, None] + hi) % p)
    for c in range(0, q, max(1, q // 50)):
        got = oracle.add_array(F, np.arange(q), c)
        assert got.dtype == np.int64
        assert np.array_equal(got, want[:, c])


def test_custom_modulus_field_matches_the_scalar_bootstrap():
    _assert_field_matches(FiniteField(3, 2, modulus=(2, 1, 1)), oracle.field_tables(3, 2, (2, 1, 1)))
    # (X-1)(X+1), (X+2)(X^2+X+2), degree 1 for e = 2, not monic
    for e, modulus in [(2, (2, 0, 1)), (3, (1, 1, 0, 1)), (2, (1, 2)), (2, (1, 0, 2))]:
        with pytest.raises(ValueError):
            FiniteField(3, e, modulus=modulus)


@pytest.mark.parametrize("p,e,n", [(3, 1, n) for n in range(1, 7)] + [(5, 1, n) for n in range(1, 5)]
                         + [(3, 2, n) for n in range(1, 4)] + [(5, 2, 2), (3, 3, 2)])
def test_extension_tables_match_the_scalar_chain(p, e, n):
    ext = ExtensionField(GF(p, e), n)
    if e == 1:
        assert ext.modulus.coeffs == oracle.least_irreducible_mod_p(p, n)
    g, exp, log = oracle.extension_exp_log(oracle.field_tables(p, e), n, ext.modulus.coeffs)
    assert ext.generator == g
    assert ext._exp.tolist() == exp + exp
    assert ext._log.tolist() == log


def test_canonical_modulus_matches_brute_force():
    # every odd prime power q = p^e <= 2048 with e > 1
    cases = [(p, e) for p in range(3, 46, 2) if ffpoly._is_prime_int(p)
             for e in range(2, 8) if p ** e <= 2048]
    assert len(cases) == 21
    for p, e in cases:
        assert ffpoly._least_irreducible(GF(p), e).coeffs == oracle.least_irreducible_mod_p(p, e), (p, e)
