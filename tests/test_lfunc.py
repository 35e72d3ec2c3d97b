"""Quadratic characters, L-polynomials, completion, traces, explicit formula."""

import ast
import hashlib
import inspect
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import scalar_oracles as oracle
from ffstat import _tables, ffpoly, lfunc
from ffstat.errors import InvariantError
from ffstat.ffpoly import GF, Poly

F3 = GF(3)
F5 = GF(5)


def P3(*coeffs):
    return Poly.from_coeffs(F3, coeffs)


def all_squarefree_moduli(field, max_deg):
    for d in range(1, max_deg + 1):
        for f in ffpoly.enumerate_polys(field, d, "squarefree-monic"):
            yield f


# -- character basics -----------------------------------------------------------


def test_char_values_worked():
    chi_p = lfunc.QuadChar(P3(1, 0, 1), lfunc.PLUS)
    chi_m = lfunc.QuadChar(P3(1, 0, 1), lfunc.MINUS)
    x = Poly.x(F3)
    assert chi_p(x) == 1 and chi_m(x) == -1
    # sign twist is invisible on even degrees
    f = P3(2, 1, 1)
    assert chi_p(f) == chi_m(f)
    # shared factor kills the value
    assert chi_p(P3(1, 0, 1) * x) == 0


def test_char_modulus_validation():
    with pytest.raises(ValueError):
        lfunc.QuadChar(Poly.x(F3) ** 2)  # not square-free
    with pytest.raises(ValueError):
        lfunc.QuadChar(Poly.one(F3))  # constant


def test_nonmonic_modulus_normalizes():
    d = P3(1, 0, 1)
    assert lfunc.QuadChar(d.scale(2)).modulus == d


# -- L-polynomials ----------------------------------------------------------------


def test_l_polynomial_worked_example():
    raw_p = lfunc.l_polynomial(lfunc.QuadChar(P3(1, 0, 1), lfunc.PLUS))
    raw_m = lfunc.l_polynomial(lfunc.QuadChar(P3(1, 0, 1), lfunc.MINUS))
    assert raw_p.coeffs == (1, -1)
    assert raw_m.coeffs == (1, 1)
    ls = lfunc.complete_l(raw_p)
    assert ls.coeffs == (1,) and ls.delta == 0 and ls.lam == 1


def test_completion_degree_bookkeeping():
    # odd-degree modulus: lambda = 0 and L* = L
    x = Poly.x(F3)
    D = x * P3(1, 1) * P3(2, 1) * P3(1, 0, 1)  # degree 5, square-free
    raw = lfunc.l_polynomial(lfunc.QuadChar(D))
    ls = lfunc.complete_l(raw)
    assert raw.lam == 0 and ls.coeffs == raw.coeffs
    assert ls.degree == 4 == 2 * ls.delta


def test_minus_is_plus_at_minus_u():
    for D in all_squarefree_moduli(F3, 4):
        raw_p = lfunc.l_polynomial(lfunc.QuadChar(D, lfunc.PLUS))
        raw_m = lfunc.l_polynomial(lfunc.QuadChar(D, lfunc.MINUS))
        assert raw_m.coeffs == tuple((-1) ** i * c for i, c in enumerate(raw_p.coeffs))


def test_coefficients_vanish_from_modulus_degree():
    # one extra coefficient beyond the stated degree bound is identically zero
    for D in [P3(1, 0, 1), P3(1, 1) * P3(2, 1), Poly.x(F3) * P3(1, 0, 1)]:
        chi = lfunc.QuadChar(D)
        d = int(D.degree)
        extra = sum(lfunc.char_value(chi, f) for f in ffpoly.monic_polys(F3, d))
        assert extra == 0


def test_functional_equation_and_rh_pure_grid():
    for field in (F3,):
        q = field.q
        for D in all_squarefree_moduli(field, 4):
            raw = lfunc.l_polynomial(lfunc.QuadChar(D))
            ls = lfunc.complete_l(raw)
            assert ls.degree == int(D.degree) - 1 - raw.lam
            assert lfunc.functional_equation_ok(ls, q)
            assert lfunc.rh_max_deviation(ls, q) < 1e-9


def test_explicit_formula_matches_newton_pure_grid():
    for D in all_squarefree_moduli(F3, 4):
        chi = lfunc.QuadChar(D)
        _, ls, frob, _ = lfunc.l_data(chi, n_max=8)
        for n in range(1, 9):
            assert lfunc.explicit_formula_trace(chi, n) == -frob.t[n - 1], (D, n)


def test_explicit_formula_worked_values():
    chi = lfunc.QuadChar(P3(1, 0, 1))
    # lambda = 1 and the degree-n von Mangoldt sums are both -1
    assert lfunc.explicit_formula_trace(chi, 1) == 0
    assert lfunc.explicit_formula_trace(chi, 2) == 0


def test_newton_traces_worked():
    ls = lfunc.LPoly((1, 0, 3), 3, lfunc.PLUS, completed=True, q=3)
    frob = lfunc.frobenius_traces(ls, 2)
    assert frob.t == (0, -6)
    assert frob.trace(2) == -2.0


def test_trace_unitarity_bound():
    for D in all_squarefree_moduli(F3, 5):
        _, ls, frob, _ = lfunc.l_data(lfunc.QuadChar(D), n_max=6)
        for n, t in enumerate(frob.t, start=1):
            assert abs(t) <= 2 * ls.delta * 3 ** (n / 2) * (1 + 1e-9)


def test_delta_zero_all_traces_vanish():
    ls = lfunc.LPoly((1,), 2, lfunc.PLUS, completed=True, q=3)
    assert lfunc.frobenius_traces(ls, 6).t == (0,) * 6


def test_nonexact_division_raises():
    bogus = lfunc.LPoly((1, 1), 2, lfunc.PLUS, completed=False, q=3)
    with pytest.raises(InvariantError):
        lfunc.complete_l(bogus)


def test_prime_char_sum_bound():
    # |sum over deg-n primes of chi_D| <= deg(D) q^(n/2), squared to stay exact
    for D in all_squarefree_moduli(F3, 4):
        for n in range(1, 7):
            s = lfunc.prime_char_sum(D, n)
            assert s * s <= int(D.degree) ** 2 * 3 ** n


def test_zeta_values():
    assert lfunc.zeta_q_value(3, 2) == Fraction(3, 2)
    assert lfunc.zeta_q_value(5, 2) == Fraction(5, 4)
    assert lfunc.zeta_q_value(3, 3) == Fraction(9, 8)
    with pytest.raises(ValueError):
        lfunc.zeta_q_value(3, 1)


def test_prime_power_field_l_data():
    # the scalar path also runs over non-prime base fields
    F9 = GF(3, 2)
    D = Poly.from_coeffs(F9, (1, 0, 1))
    if not ffpoly.is_squarefree(D):
        D = Poly.from_coeffs(F9, (3, 0, 1))
    chi = lfunc.QuadChar(D)
    raw, ls, frob, dev = lfunc.l_data(chi, n_max=4)
    assert raw.coeffs[0] == 1
    assert lfunc.functional_equation_ok(ls, 9)
    assert dev < 1e-9
    for n in (1, 2):
        assert lfunc.explicit_formula_trace(chi, n) == -frob.t[n - 1]


# -- batched suite ----------------------------------------------------------------


def test_l_suite_q3_small_grid_cross_checks_scalar_path():
    sampled = []
    rep = lfunc.l_suite(3, max_deg=4, n_max=6, collect=sampled.append)
    assert rep.ok(), rep.failures[:4]
    assert rep.moduli == sum(ffpoly.squarefree_count(3, d) for d in range(1, 5))
    rng = random.Random(5)
    for rec in rng.sample(sampled, 12):
        D = Poly.monic_from_code(F3, rec["deg"], rec["code"])
        chi = lfunc.QuadChar(D)
        raw = lfunc.l_polynomial(chi)
        assert raw.coeffs == rec["raw"].coeffs
        for n in (1, 3):
            assert lfunc.prime_char_sum(D, n) == rec["s"][n - 1]


def test_l_suite_q5_degree2():
    rep = lfunc.l_suite(5, max_deg=2, n_max=4)
    assert rep.ok(), rep.failures[:4]
    assert rep.moduli == 5 + 20
    assert rep.prime_sum_bound_max <= 1.0


def _suite_labels_and_raws(q, max_deg, n_max):
    recs = []
    lfunc.l_suite(q, max_deg=max_deg, n_max=n_max, collect=recs.append)
    labels = [f"D deg={r['deg']} code={r['code']}" for r in recs]
    return labels, {r["raw"].coeffs for r in recs}


def _counting_checks(monkeypatch):
    """Patch lfunc._check_rows to record (deg, raw rows) of each call."""
    calls = []
    check = lfunc._check_rows

    def counting(plus, minus, deg, q, n_max, rh_tol):
        calls.append((deg, [tuple(row) for row in plus.tolist()]))
        return check(plus, minus, deg, q, n_max, rh_tol)

    monkeypatch.setattr(lfunc, "_check_rows", counting)
    return calls


def test_l_suite_checks_each_raw_polynomial_once(monkeypatch):
    labels, raws = _suite_labels_and_raws(3, 3, 4)
    assert len(raws) < len(labels)
    calls = _counting_checks(monkeypatch)
    monkeypatch.setattr(lfunc, "_functional_equation_rows", lambda rows, q, delta: np.zeros(len(rows), dtype=bool))
    rep = lfunc.l_suite(3, max_deg=3, n_max=4)
    assert rep.moduli == len(labels)
    # every failing modulus is still reported, with its own label, in
    # catalogue order
    assert rep.failures == [f"{label}: functional equation ({sign})"
                            for label in labels for sign in ("plus", "minus")]
    # one batched call per modulus degree, each distinct raw in one row
    assert [deg for deg, _ in calls] == [1, 2, 3]
    checked = [row for deg, rows in calls for row in rows]
    assert len(checked) == len(set(checked)) == len(raws)
    assert set(checked) == raws
    assert all(len(row) == deg for deg, rows in calls for row in rows)


def test_l_suite_reports_completion_failure_per_modulus(monkeypatch):
    recs = []
    lfunc.l_suite(3, max_deg=3, n_max=4, collect=recs.append)
    labels = [f"D deg={r['deg']} code={r['code']}" for r in recs]
    complete = lfunc._complete_rows
    message = "non-exact division by trivial-zero factor"
    for fails in (lambda raw: True, lambda raw: raw[-1] > 0):
        def failing(raw, deg, sign, fails=fails):
            rows, problems = complete(raw, deg, sign)
            return rows, [message if sign == lfunc.PLUS and fails(row) else msg
                          for row, msg in zip(raw.tolist(), problems)]

        monkeypatch.setattr(lfunc, "_complete_rows", failing)
        kept = []
        rep = lfunc.l_suite(3, max_deg=3, n_max=4, collect=kept.append)
        broken = [fails(r["raw"].coeffs) for r in recs]
        assert rep.failures == [f"{label}: {message}" for label, bad in zip(labels, broken) if bad]
        # the moduli that complete keep their records, prime sums included
        assert rep.moduli == broken.count(False) == len(kept)
        assert [(r["deg"], r["code"], r["lstar"].coeffs, r["t"], r["s"]) for r in kept] == [
            (r["deg"], r["code"], r["lstar"].coeffs, r["t"], r["s"]) for r, bad in zip(recs, broken) if not bad]
    assert 0 < broken.count(True) < len(recs)


#: q -> the largest modulus degree whose raw L-polynomials the batched
#: checks are drawn on
CHECK_GRID = {3: 6, 5: 5, 7: 4, 9: 4, 25: 3}


@settings(max_examples=150, deadline=None)
@given(q=st.sampled_from(sorted(CHECK_GRID)), data=st.data())
def test_batched_checks_match_the_scalar_oracle(q, data):
    # real raws of square-free moduli of one degree, some changed so that
    # completion, a functional equation or the minus relation fails (or
    # the division stays exact and the rest fails): the same L*, traces,
    # bit-equal RH deviation and the same problems, in order, as the
    # one-polynomial-at-a-time checks
    deg = data.draw(st.integers(1, CHECK_GRID[q]), label="deg")
    T = _tables.poly_tables(ffpoly.field_of_order(q), CHECK_GRID[q])
    codes = data.draw(st.lists(st.integers(0, q ** deg - 1), min_size=1, max_size=5), label="codes")
    codes = [code for code in codes if T.factor(deg, code) is not None]
    assume(codes)
    twist = [(-1) ** e for e in range(deg)]
    plus, minus = [], []
    for code in codes:
        raw = list(lfunc.l_polynomial(lfunc.QuadChar(Poly.monic_from_code(T.field, deg, code))).coeffs)
        kind = data.draw(st.sampled_from(["none", "plus", "plus exact", "minus", "minus exact", "top"]),
                         label="change")
        j = data.draw(st.integers(0, deg - 1), label="at")
        x = data.draw(st.integers(-3, 3).filter(bool), label="by")
        if kind.startswith("plus"):
            raw[j] += x
            if kind == "plus exact" and j + 1 < deg:  # keeps a factor 1 - u
                raw[j + 1] -= x
        if kind == "top":
            raw[-1] = 0
        raw_minus = [s * c for s, c in zip(twist, raw)]
        if kind.startswith("minus"):
            raw_minus[j] += x
            if kind == "minus exact" and j + 1 < deg:  # keeps a factor 1 + u
                raw_minus[j + 1] += x
        plus.append(raw)
        minus.append(raw_minus)
    n_max = data.draw(st.integers(1, 8), label="n_max")
    args = (np.array(plus, dtype=np.int64), np.array(minus, dtype=np.int64), deg, q, n_max, 1e-9)
    try:
        want = [oracle.check_raw(a, b, deg, q, n_max, 1e-9) for a, b in zip(plus, minus)]
    except InvariantError as exc:  # an L* of constant term 0 has no square-free part
        with pytest.raises(InvariantError, match=str(exc)):
            lfunc._check_rows(*args)
        return
    assert list(zip(*lfunc._check_rows(*args))) == want


def test_newton_rows_are_exact_on_both_sides_of_the_int64_bound():
    # t_n = A^n for u^2 - A u: int64 while the majorant of Newton's
    # recurrence on the largest |c_i| of the rows, (1, A, 1), stays below
    # 2^63 (it is the power sums of 1 - A u - u^2), Python ints past it,
    # where A^n_max itself passes 2^63
    n_max = 8
    edge = next(a for a in range(1, 1 << 10) if max(oracle.power_sums((1, -a, -1), n_max)) >= 1 << 63)
    for a in (edge - 1, edge, 3 ** 20):
        rows = np.array([[1, -a, 0], [1, a, -1]], dtype=object)
        got = lfunc._newton_rows(rows, n_max)
        assert got.dtype == (np.int64 if a < edge else object)
        assert [tuple(t) for t in got.tolist()] == [oracle.power_sums(row, n_max) for row in rows.tolist()]
        assert got[0, -1] == a ** n_max
    assert (3 ** 20) ** n_max > 1 << 63
    assert lfunc.power_sums((1, -(3 ** 20), 0), n_max)[-1] == 3 ** (20 * n_max)


def _suite_digest(q, max_deg, n_max):
    """sha256 of every record (deg, code, L* coefficients, t, s) and the
    report, in the line format of the benchmark's l_suite command."""
    lines = []

    def emit(rec):
        lines.append(json.dumps([rec["deg"], rec["code"], rec["lstar"].coeffs,
                                 rec["t"], rec["s"]]) + "\n")

    rep = lfunc.l_suite(q, max_deg=max_deg, n_max=n_max, collect=emit)
    lines.append(json.dumps(
        {"q": rep.q, "max_deg": rep.max_deg, "n_max": rep.n_max,
         "moduli": rep.moduli, "failures": rep.failures,
         "rh_max_dev": repr(rep.rh_max_dev),
         "prime_sum_bound_max": repr(rep.prime_sum_bound_max)},
        sort_keys=True) + "\n")
    return hashlib.sha256("".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("q,max_deg,n_max,digest", [
    (3, 4, 6, "f0a801070f7efdbc87f5aed106c52e798fa2813f261b249ad2b655e2faf2569d"),
    (5, 3, 5, "a6ca641dec682b7b9507fad5bbc8695173bcd1cb8152414f69e34377d430244c"),
    (9, 2, 4, "4954cd4bc3fb9b0bd4ea52eff55f8b3c8842d10bb18265f7fddbd862df7aaa49"),
])
def test_l_suite_records_are_pinned(q, max_deg, n_max, digest):
    # captured from the per-modulus implementation before the stacked one
    assert _suite_digest(q, max_deg, n_max) == digest


def test_l_suite_reads_stacked_legendre_matrices(monkeypatch):
    # one legendre_array call for both phases, the monic rows of every
    # degree followed by the prime rows of every degree, over every prime
    # factor of the catalogue, and no per-modulus sums left in l_suite
    calls = []
    stacked = _tables.PolyTables.legendre_array

    def counting(self, coefmat, qkeys):
        calls.append(len(qkeys))
        return stacked(self, coefmat, qkeys)

    monkeypatch.setattr(_tables.PolyTables, "legendre_array", counting)
    max_deg, n_max = 4, 6
    rep = lfunc.l_suite(3, max_deg=max_deg, n_max=n_max)
    assert rep.ok()
    T = _tables.poly_tables(F3, n_max)
    factors = sum(len(T.prime_codes[d]) for d in range(1, max_deg + 1))
    assert calls == [factors]
    assert not hasattr(_tables.PolyTables, "prime_char_sums")
    tree = ast.parse(inspect.getsource(lfunc.l_suite))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not {"legf", "legf_cache", "offsets"} & names
    assert not {"sum", "legendre_array", "prime_char_sums"} & attrs


def test_l_suite_stacks_each_prime_once(monkeypatch):
    # the X^j mod Q rows of each degree's primes are built in one batched
    # pass at the first row degree, wide enough for every later one, and
    # then reused
    built = []
    batch = _tables.PolyTables._xrow_batch

    def counting(self, k, codes, n):
        built.append((k, list(codes)))
        return batch(self, k, codes, n)

    monkeypatch.setattr(_tables, "_largest", {})
    monkeypatch.setattr(_tables.PolyTables, "_xrow_batch", counting)
    lfunc.l_suite(3, max_deg=4, n_max=6)
    T = _tables.poly_tables(F3, 6)
    assert [k for k, _ in built] == [1, 2, 3, 4]
    for k, codes in built:
        assert codes == T.prime_codes[k].tolist()


def test_squarefree_part():
    # (1 + 2u + 3u^2)^2 reduces to the simple-root factor
    assert lfunc.squarefree_part((1, 4, 10, 12, 9)) == (1, 2, 3)
    assert lfunc.squarefree_part((1, 0, 3)) == (1, 0, 3)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


#: integer coefficient lists with nonzero constant and leading terms
_int_polys = st.lists(st.integers(-40, 40), min_size=1, max_size=5).map(
    lambda c: [c[0] or 1] + c[1:-1] + [c[-1] or 1] if len(c) > 1 else [c[0] or 1])


@settings(max_examples=200, deadline=None)
@given(_int_polys, _int_polys, st.integers(0, 2), st.sampled_from([1, -3, lfunc._GCD_PRIME]))
def test_squarefree_part_fast_path_equals_the_fraction_path(a, b, power, lead):
    # c = lead * a * b^power: with power 2 a squared factor whenever b has
    # degree >= 1, and a leading coefficient P divides when lead is P; the
    # mod-P remainder sequence never claims a square-free c the rational
    # gcd denies, and a batch of rows reads as each row alone
    c = [lead * x for x in a]
    for _ in range(power):
        c = _poly_mul(c, b)
    dc = [i * c[i] for i in range(1, len(c))]
    want = lfunc._rational_squarefree_part(c, dc)
    assert lfunc.squarefree_part(tuple(c)) == want
    coprime = lfunc._coprime_rows(np.array([c], dtype=object))[0]
    if coprime:
        assert want == tuple(c)
    if power == 2 and len(b) > 1:
        assert not coprime
    if lead == lfunc._GCD_PRIME:
        assert not coprime
    rows = [c, [-x for x in c], c[:1] + [x + 1 for x in c[1:]]]
    assert lfunc._coprime_rows(np.array(rows, dtype=object)).tolist() == [
        lfunc._coprime_rows(np.array([row], dtype=object))[0] for row in rows]


def test_l_suite_leaves_numpy_ma_unimported():
    # numpy 2.4's one-dimensional np.unique imports numpy.ma, a cost of
    # 13-15 ms in a fresh process that no l_suite result needs
    code = ("import sys\n"
            "from ffstat import lfunc\n"
            "assert lfunc.l_suite(3, 3, 4).ok()\n"
            "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


def test_l_suite_catalogue_factors_each_degree_at_once(monkeypatch):
    # the catalogue comes from one factor_all pass per degree, not from a
    # factor call per code, and lists the moduli and factors factor gives
    factor = _tables.PolyTables.factor

    def refuse(self, deg, code):
        raise AssertionError("per-code factor")

    monkeypatch.setattr(_tables.PolyTables, "factor", refuse)
    seen = []
    assert lfunc.l_suite(3, max_deg=3, n_max=4, collect=seen.append).ok()
    T = _tables.poly_tables(F3, 4)
    want = [(d, code, factor(T, d, code)) for d in range(1, 4) for code in range(3 ** d)]
    assert [(rec["deg"], rec["code"], rec["factors"]) for rec in seen] == [w for w in want if w[2]]


# -- affine fold ------------------------------------------------------------------

#: q -> (degree of the catalogue, row degrees): both p | n and p not
#: dividing n where q^n stays small (F_25 has no p | n below 25^5), and
#: F_q^* of order 2 to 26
FOLD_GRID = {3: (3, (1, 2, 3, 4, 6)), 5: (2, (1, 2, 4, 5)), 7: (2, (1, 2, 3)),
             9: (2, (1, 2, 3)), 25: (2, (1, 2)), 27: (2, (1, 2, 3))}


def _catalogue(T, max_deg):
    """(degs, codes, factorizations) of the square-free monic D of degree
    1..max_deg, by degree and code, as l_suite lists them."""
    moduli = [(d, code, T.factor(d, code)) for d in range(1, max_deg + 1) for code in range(T.q ** d)]
    moduli = [m for m in moduli if m[2] is not None]
    degs, codes, facs = zip(*moduli)
    return np.array(degs, dtype=np.int64), np.array(codes, dtype=np.int64), list(facs)


def _scaled_code(T, n, code, c):
    """The code of c^-n F(cX) for the monic F of degree n with this code,
    by scalar field arithmetic."""
    F = Poly.monic_from_code(T.field, n, code)
    return Poly.from_coeffs(T.field, [T.field.mul(a, T.field.pow(c, j - n))
                                      for j, a in enumerate(F.coeffs)]).monic_code()


def _even_rows(T, n, s):
    """Ascending codes of the union of the orbits of X -> cX + a (of X -> cX
    alone where p | n) through the monic polynomials of degree n in X^s:
    rows whose scaling stabilizers are nontrivial."""
    q = T.q
    base = sum(np.divmod(np.arange(q ** (n // s)), q ** i)[0] % q * q ** (s * i) for i in range(n // s))
    shifts = [0] if n % T.p == 0 else range(q)
    return np.unique(T.affine_codes(n, base, range(1, q), shifts))


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from(sorted(FOLD_GRID)), data=st.data())
def test_translation_fold_matches_plain_char_sums(q, data):
    # the affine fold (translations and scalings) of l_suite against one
    # plain char_sums pass over every row: all monic rows, the primes, or
    # the orbits of the polynomials in X^2 or X^4, whose stabilizers in
    # F_q^* have order 2 or 4
    max_deg, row_degrees = FOLD_GRID[q]
    n = data.draw(st.sampled_from(row_degrees), label="n")
    kinds = ["monic", "prime"] + [f"X^{s}" for s in (2, 4) if n % s == 0]
    kind = data.draw(st.sampled_from(kinds), label="rows")
    T = _tables.poly_tables(ffpoly.field_of_order(q), max(max_deg, max(row_degrees)))
    degs, codes, facs = _catalogue(T, max_deg)
    plan = oracle.char_plan(facs)
    index = lfunc._affine_index(T, degs, codes)
    if kind == "prime":
        row_codes = T.prime_codes[n]
    elif kind == "monic":
        row_codes = np.arange(q ** n)
    else:
        row_codes = _even_rows(T, n, int(kind[2:]))
        _, weights = lfunc._orbit_representatives(T, n, row_codes)
        assert (weights < q - 1).any()
    got = lfunc._orbit_sums(T, [(n, row_codes)], plan, index, degs)
    assert got.tolist() == [T.char_sums(T.code_rows(n, row_codes), plan).tolist()]


@pytest.mark.parametrize("q,n", [(5, 4), (9, 2), (5, 5), (3, 3)])
def test_orbit_representatives_match_scalar_scaling_orbits(q, n):
    # one least member of each orbit of F -> c^-n F(cX) among the rows of
    # X^(n-1) coefficient 0 (every row where p | n), weighted by the orbit
    # size (q - 1)/|Stab|, against orbits built by scalar arithmetic
    T = _tables.poly_tables(ffpoly.field_of_order(q), n)
    codes = np.arange(q ** n)
    head = codes if n % T.p == 0 else codes[:q ** (n - 1)]
    orbits = {min(_scaled_code(T, n, code, c) for c in range(1, q)):
              len({_scaled_code(T, n, code, c) for c in range(1, q)}) for code in head.tolist()}
    at, weights = lfunc._orbit_representatives(T, n, codes)
    assert dict(zip(codes[at].tolist(), weights.tolist())) == orbits
    assert (weights < q - 1).any()


def test_orbit_sums_refuse_a_wrong_representative_count(monkeypatch):
    # orbit sizes that do not add up to the rows: one representative
    # dropped, or one weight off
    reps = lfunc._orbit_representatives
    for change in (lambda at, w: (at[:-1], w[:-1]), lambda at, w: (at, w + (np.arange(len(w)) == 0))):
        monkeypatch.setattr(lfunc, "_orbit_representatives", lambda T, n, codes: change(*reps(T, n, codes)))
        with pytest.raises(InvariantError, match="orbit representatives"):
            lfunc.l_suite(5, max_deg=2, n_max=3)


def test_orbit_sums_refuse_a_sum_that_does_not_divide(monkeypatch):
    # one weighted sum off by one at a modulus whose stabilizer in the
    # affine group is trivial: its folded sum is off by +-1, not a
    # multiple of q - 1
    T = _tables.poly_tables(F5, 3)
    degs, codes, facs = _catalogue(T, 3)
    index = lfunc._affine_index(T, degs, codes)
    free = int(np.flatnonzero((index == np.arange(len(codes))).sum(axis=(0, 1, 2)) == 1)[0])
    char_sums = _tables.PolyTables.char_sums

    def off_by_one(self, coefmat, plan, weights=None, segments=None):
        sums = char_sums(self, coefmat, plan, weights, segments)
        sums[-1, free] += 1
        return sums

    monkeypatch.setattr(_tables.PolyTables, "char_sums", off_by_one)
    rows = [(1, T.prime_codes[1]), (3, T.prime_codes[3])]
    with pytest.raises(InvariantError, match="of degree 3 does not divide"):
        lfunc._orbit_sums(T, rows, oracle.char_plan(facs), index, degs)


def test_translation_index_refuses_a_missing_translate():
    T = _tables.poly_tables(F3, 3)
    degs, codes, _ = _catalogue(T, 3)
    assert (lfunc._affine_index(T, degs, codes) >= 0).all()
    drop = int(np.flatnonzero(degs == 2)[4])
    keep = np.arange(len(codes)) != drop
    with pytest.raises(InvariantError, match="missing from the catalogue"):
        lfunc._affine_index(T, degs[keep], codes[keep])


def test_affine_index_refuses_a_missing_scaled_modulus():
    # the translates of X^2 - 2 over F_5 are closed under X -> X + a, and
    # X -> cX maps X^2 - 2 to X^2 - 2/c^2, outside them for c^2 != 1
    T = _tables.poly_tables(F5, 2)
    D = Poly.from_coeffs(F5, [3, 0, 1])
    codes = np.unique(T.affine_codes(2, [D.monic_code()], [1], range(5)))
    assert len(codes) == 5
    with pytest.raises(InvariantError, match="missing from the catalogue"):
        lfunc._affine_index(T, np.full(5, 2), codes)


def test_l_suite_reads_representative_rows_where_p_does_not_divide_n(monkeypatch):
    # one row per orbit of the affine group X -> cX + a where p does not
    # divide the row degree, of the scalings X -> cX where it does (d = 0,
    # and d = 3 at q = 3), counted by scalar arithmetic, and the rows of
    # l_suite(5, 5, 8): one char_sums pass with one segment per degree,
    # the monic rows of phase 1 and then the prime rows of phase 2, all of
    # them in the rows of its one legendre_array call
    passes, rows = [], []
    char_sums, stacked = _tables.PolyTables.char_sums, _tables.PolyTables.legendre_array

    def counting_sums(self, coefmat, plan, weights=None, segments=None):
        passes.append(list(segments))
        return char_sums(self, coefmat, plan, weights, segments)

    def counting(self, coefmat, qkeys):
        rows.append(len(coefmat))
        return stacked(self, coefmat, qkeys)

    monkeypatch.setattr(_tables.PolyTables, "char_sums", counting_sums)
    monkeypatch.setattr(_tables.PolyTables, "legendre_array", counting)
    for q, max_deg, n_max in [(3, 3, 4), (5, 2, 4)]:
        passes.clear()
        rows.clear()
        assert lfunc.l_suite(q, max_deg=max_deg, n_max=n_max).ok()
        T = _tables.poly_tables(ffpoly.field_of_order(q), n_max)

        def orbits(n, codes):
            head = [c for c in codes if n % T.p == 0 or c < q ** (n - 1)]
            return len({min(_scaled_code(T, n, c, u) for u in range(1, q)) for c in head})

        monic = [orbits(d, range(q ** d)) for d in range(max_deg + 1)]
        prime = [orbits(n, T.prime_codes[n].tolist()) for n in range(1, n_max + 1)]
        assert passes == [monic + prime]
        assert rows == [sum(monic) + sum(prime)]
    passes.clear()
    rows.clear()
    assert lfunc.l_suite(5, max_deg=5, n_max=8).ok()
    assert passes == [[1, 1, 3, 8, 40, 790] + [1, 1, 2, 10, 156, 134, 558, 2460]]
    assert rows == [843 + 3322]
    assert sum(rows) == 4165


def test_l_suite_builds_one_char_plan(monkeypatch):
    # one plan, from the catalogue's arrays: every modulus, and the prime
    # factors of each in the order factor lists them
    plans = []

    class Counting(_tables.CharPlan):
        __slots__ = ()

        def __init__(self, size, owner, pdeg, pcode):
            plans.append((size, owner.tolist(), pdeg.tolist(), pcode.tolist()))
            super().__init__(size, owner, pdeg, pcode)

    monkeypatch.setattr(lfunc, "CharPlan", Counting)
    rep = lfunc.l_suite(3, max_deg=3, n_max=4)
    T = _tables.poly_tables(F3, 4)
    facs = [fac for fac in (T.factor(d, code) for d in range(1, 4) for code in range(3 ** d)) if fac]
    size, owner, pdeg, pcode = oracle.plan_arrays(facs)
    assert plans == [(rep.moduli, owner.tolist(), pdeg.tolist(), pcode.tolist())]
    assert size == rep.moduli


def test_lfunc_reads_jacobi_symbol_only_in_char_value():
    # every character sum of lfunc goes through PolyTables.char_sums; the
    # one-value char_value is the only scalar symbol left
    tree = ast.parse(inspect.getsource(lfunc))
    users = [node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
             and any(isinstance(sub, ast.Attribute) and sub.attr == "jacobi_symbol"
                     or isinstance(sub, ast.Name) and sub.id == "jacobi_symbol"
                     for sub in ast.walk(node))]
    assert users == ["char_value"]
    assert "jacobi_symbol" not in {alias.name for node in ast.walk(tree)
                                   if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_l_polynomial_tables_are_refused_before_the_sieve(monkeypatch):
    # deg D = 15 at q = 3 needs 164 MiB of sieve tables, over SIEVE_BYTES_CAP
    monkeypatch.setattr(_tables, "_largest", {})
    D = Poly.monic_from_code(F3, 15, 3 + 1)  # X^15 + X + 1
    with pytest.raises(ValueError, match="over the cap"):
        lfunc.l_polynomial(lfunc.QuadChar(D))
    assert _tables._largest == {}
