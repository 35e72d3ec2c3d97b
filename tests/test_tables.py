"""The batched residue engine in _tables against the scalar ffpoly paths,
over prime fields and prime-power fields alike."""

import ast
import inspect
import itertools
import pathlib
import random
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scalar_oracles as oracle
from ffstat import _tables, ffpoly
from ffstat._tables import CharPlan, PolyTables, poly_tables
from ffstat.errors import InvariantError
from ffstat.ffpoly import GF, Poly


def _residue_code(f, Q):
    r = f % Q
    return sum(int(c) * Q.field.q ** i for i, c in enumerate(r.coeffs))


#: the prime-power fields the properties also draw, with the degree their
#: tables reach (q^4 residues at q = 27 would cost 0.5 M rows per prime);
#: the properties draw 240 examples, so the prime fields keep about 150
PRIME_POWER_DEGREE = {GF(3, 2): 4, GF(5, 2): 3, GF(3, 3): 3}
#: the strategy's own tables, one per field, so that larger tables other
#: tests leave in the shared poly_tables cache change nothing it draws
_rows_tables = {}


@st.composite
def _rows_mod_prime(draw):
    field = draw(st.sampled_from([GF(q) for q in (3, 5, 7, 11, 13)] + list(PRIME_POWER_DEGREE)))
    max_deg = PRIME_POWER_DEGREE.get(field, 4)
    q = field.q
    k = draw(st.integers(1, max_deg))
    if field not in _rows_tables:
        _rows_tables[field] = PolyTables(field, max_deg)
    T = _rows_tables[field]
    code = int(draw(st.sampled_from(list(T.prime_codes[k]))))
    width = draw(st.integers(1, 2 * k + 2))
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=width, max_size=width),
                         min_size=1, max_size=12))
    return T, (k, code), rows


def _digits_of(T, rows):
    """Rows of F_q coefficient codes as the tables' F_p digit rows (the
    coefficients themselves when e = 1)."""
    rows = np.asarray(rows, dtype=np.int64)
    digits = rows[..., None] // T.p ** np.arange(T.e) % T.p
    return digits.reshape(len(rows), -1)


@settings(max_examples=240, deadline=None)
@given(_rows_mod_prime())
def test_legendre_array_matches_scalar_jacobi(case):
    T, qkey, rows = case
    field = T.field
    Q = Poly.monic_from_code(field, *qkey)
    polys = [Poly.from_coeffs(field, row) for row in rows]
    mat = _digits_of(T, rows).astype(np.float64)
    assert T.reduce_codes(mat, qkey).tolist() == [_residue_code(f, Q) for f in polys]
    assert T.legendre_array(mat, [qkey])[0].tolist() == [ffpoly.jacobi_symbol(f, Q) for f in polys]


class _Float64Tables(PolyTables):
    """Tables that build every matrix in float64, as fields beyond the
    float32 bound do, at a size the tests can afford."""

    def float_type(self, width, entry=None, k=None):
        return np.float64


#: q and the degree its stacked tables reach
STACKED_DEGREE = {3: 4, 5: 3, 9: 3, 25: 2, 27: 2}
_stacked_tables = {}


@st.composite
def _stacked_case(draw):
    q = draw(st.sampled_from(sorted(STACKED_DEGREE)))
    kind = draw(st.sampled_from([PolyTables, _Float64Tables]))
    if (q, kind) not in _stacked_tables:
        _stacked_tables[q, kind] = kind(ffpoly.field_of_order(q), STACKED_DEGREE[q])
    T = _stacked_tables[q, kind]
    primes = [(k, c) for k in range(1, T.max_deg + 1) for c in T.prime_codes[k].tolist()]
    qkeys = draw(st.lists(st.sampled_from(primes), min_size=1, max_size=40))
    width = draw(st.integers(1, 2 * T.max_deg + 1))
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=width, max_size=width),
                         min_size=1, max_size=20))
    dtype = draw(st.sampled_from([np.float32, np.float64] if kind is PolyTables else [np.float64]))
    # blocks of 1, 3, 7 and 2048 rows; a block of primes holds about
    # 32 / (k e) of them in float32, 16 / (k e) in float64, so that row
    # and prime counts fall on both sides of a block edge
    block_bytes = draw(st.sampled_from([32, 96, 224, ffpoly.BLOCK_BYTES]))
    return T, qkeys, rows, dtype, block_bytes


@settings(max_examples=120, deadline=None)
@given(_stacked_case())
def test_stacked_legendre_array_matches_scalar_jacobi(case):
    T, qkeys, rows, dtype, block_bytes = case
    polys = [Poly.from_coeffs(T.field, row) for row in rows]
    default, ffpoly.BLOCK_BYTES = ffpoly.BLOCK_BYTES, block_bytes
    try:
        T._stack_cache.clear()  # restack at this case's block size
        got = T.legendre_array(_digits_of(T, rows).astype(dtype), qkeys)
    finally:
        ffpoly.BLOCK_BYTES = default
    assert got.dtype == np.int8 and got.shape == (len(qkeys), len(rows))
    for qkey, row in zip(qkeys, got.tolist()):
        Q = Poly.monic_from_code(T.field, *qkey)
        assert row == [ffpoly.jacobi_symbol(f, Q) for f in polys]


def test_stacked_legendre_array_straddles_the_default_blocks():
    # more rows than one row block and more cubic primes than one block
    # of stacked primes, against each prime's own kernel call and chiq row
    T = poly_tables(GF(5), 3)
    qkeys = [(3, c) for c in T.prime_codes[3].tolist()] + [(1, 2), (2, 3)]
    step = ffpoly.BLOCK_BYTES // 32
    assert T.dtype is np.float32 and len(qkeys) > 4 * ffpoly.BLOCK_BYTES // (3 * step * 4)
    rng = np.random.default_rng(3)
    rows = rng.integers(0, 5, size=(step + 5, 5))
    mat = rows.astype(np.float32)
    got = T.legendre_array(mat, qkeys)
    for qkey, row in zip(qkeys, got):
        tab, at = T.chiq([qkey])
        assert (row == tab[at[0]][T.reduce_codes(mat, qkey)]).all()
    Q = Poly.monic_from_code(T.field, *qkeys[-3])
    for r in (0, step - 1, step, step + 4):
        f = Poly.from_coeffs(T.field, rows[r].tolist())
        assert got[-3, r] == ffpoly.jacobi_symbol(f, Q)


def test_reduce_codes_exact_for_large_entries():
    # reduction is linear, so any integer representatives are valid rows:
    # reduce_codes takes entries near 2^47 mod p before the kernel
    T = poly_tables(GF(3), 4)
    rng = random.Random(11)
    for k in (2, 4):
        Q = Poly.monic_from_code(T.field, k, int(T.prime_codes[k][-1]))
        rows = [[rng.randrange(2 ** 47) for _ in range(k + 1)] for _ in range(200)]
        rows += [[2 ** 47 - 1] * (k + 1)]
        expect = []
        for row in rows:
            f = Poly.from_coeffs(T.field, [c % 3 for c in row])
            expect.append(_residue_code(f, Q))
        got = T.reduce_codes(np.array(rows, dtype=np.float64), (k, Q.monic_code()))
        assert got.tolist() == expect


def test_poly_tables_refuses_inexact_range():
    with pytest.raises(ValueError, match="q=1000003"):
        PolyTables(GF(1000003), 1)
    with pytest.raises(ValueError, match="q=3 "):
        PolyTables(GF(3), 34)  # residue codes reach 3^34 > 2^53
    with pytest.raises(ValueError, match="q=9 "):
        PolyTables(GF(3, 2), 17)  # 9^17 = 3^34


def test_poly_tables_refuses_oversized_sieves_before_allocating(monkeypatch):
    # spf holds q^d int64 codes for each d <= max_deg
    monkeypatch.setattr(_tables, "SIEVE_BYTES_CAP", 8 * (3 + 9 + 27))
    assert PolyTables(GF(3), 3).max_deg == 3
    with pytest.raises(ValueError, match="q=3 with max_deg=4 .* over the cap"):
        PolyTables(GF(3), 4)
    monkeypatch.undo()
    tracemalloc.start()
    try:
        # 8 * 3^20 bytes = 28 GB of spf for degree 20 alone, 1.95 GB at q = 5, M = 12
        for field, max_deg in ((GF(3), 20), (GF(5), 12), (GF(3, 2), 10)):
            with pytest.raises(ValueError, match="over the cap"):
                PolyTables(field, max_deg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_char_sums_matches_scalar():
    # D = 1, every prime D, and products of omega = 2, 3, 4 factors; the
    # rows are the primes of degree n (l_suite's phase 2) and all monics
    # of degree 2 (its phase 1)
    T = poly_tables(GF(5), 4)
    F5 = T.field
    facs = [T.factor(d, code) for d in range(1, 5) for code in range(0, 5 ** d, 1 + d * d)]
    facs = [[]] + [fac for fac in facs if fac is not None]
    four = Poly.one(F5)
    for c in range(4):
        four = four * Poly.monic_from_code(F5, 1, c)
    facs.append(T.factor(4, four.monic_code()))
    assert {len(fac) for fac in facs} == {0, 1, 2, 3, 4}
    for rows, polys in [(T.prime_coefmat(n), ffpoly.primes(F5, n)) for n in (1, 2, 3)] + [
            (T.monic_coefmat(2), list(ffpoly.monic_polys(F5, 2)))]:
        expect = []
        for fac in facs:
            D = Poly.one(F5)
            for qkey in fac:
                D = D * Poly.monic_from_code(F5, *qkey)
            expect.append(sum(ffpoly.jacobi_symbol(P, D) for P in polys))
        got = T.char_sums(rows, CharPlan(facs))
        assert got.dtype == np.int64
        assert got.tolist() == expect


@pytest.mark.parametrize("q", [5, 9])
def test_weighted_char_sums_equal_sums_over_repeated_rows(q):
    # a row of weight w counts as w copies of itself, for D = 1, prime D
    # and D of two and three factors alike
    T = poly_tables(ffpoly.field_of_order(q), 3)
    facs = [[]] + [fac for fac in (T.factor(d, code) for d in (1, 2, 3) for code in range(q ** d)) if fac]
    plan = CharPlan(facs)
    rng = np.random.default_rng(q)
    codes = rng.choice(q ** 3, size=40, replace=False)
    weights = rng.integers(0, q, size=40)
    got = T.char_sums(T.code_rows(3, codes), plan, weights)
    assert got.tolist() == T.char_sums(T.code_rows(3, np.repeat(codes, weights)), plan).tolist()


@settings(max_examples=25, deadline=None)
@given(q=st.sampled_from([3, 5, 9]), data=st.data())
def test_segmented_char_sums_equal_one_call_per_segment(q, data):
    # runs of rows of mixed degrees (empty runs too) in one zero-padded
    # matrix, with weights, against one char_sums call per run; chunks of
    # a few rows make runs cross chunk edges
    T = poly_tables(ffpoly.field_of_order(q), 3)
    facs = [[]] + [fac for fac in (T.factor(d, code) for d in (1, 2, 3) for code in range(q ** d)) if fac]
    plan = CharPlan(facs)
    runs = data.draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 12)), min_size=1, max_size=6),
                     label="runs")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    codes = [rng.integers(0, q ** d, size=size) for d, size in runs]
    weights = [rng.integers(0, q, size=size) for _, size in runs]
    before = ffpoly.BLOCK_BYTES
    if data.draw(st.booleans(), label="small chunks"):
        rows = data.draw(st.integers(1, 16), label="chunk rows")
        ffpoly.BLOCK_BYTES = max(1, (len(plan.qkeys) + plan.heads) * rows // 64)
    try:
        mat = T.code_rows(np.repeat([d for d, _ in runs], [size for _, size in runs]), np.concatenate(codes))
        got = T.char_sums(mat, plan, np.concatenate(weights), segments=[size for _, size in runs])
        want = [T.char_sums(T.code_rows(d, c), plan, w) for (d, _), c, w in zip(runs, codes, weights)]
    finally:
        ffpoly.BLOCK_BYTES = before
    assert got.shape == (len(runs), len(facs))
    assert got.tolist() == [row.tolist() for row in want]


def test_char_sums_refuses_inexact_gram_chunks(monkeypatch):
    # a chunk wider than 2^24 rows could round a float32 Gram entry, and so
    # could 2^23 + 1 rows of weight 2; the rows are a broadcast view, so
    # nothing of that size is allocated
    T = poly_tables(GF(3), 2)
    monkeypatch.setattr(ffpoly, "BLOCK_BYTES", 1 << 40)
    plan = CharPlan([[(1, 0), (1, 1)]])
    rows = np.broadcast_to(T.monic_coefmat(1)[:1], ((1 << 24) + 1, 2))
    with pytest.raises(InvariantError, match="beyond exact float32 Gram blocks"):
        T.char_sums(rows, plan)
    half = (1 << 23) + 1
    with pytest.raises(InvariantError, match="of weight up to 2 is beyond exact float32 Gram blocks"):
        T.char_sums(rows[:half], plan, np.broadcast_to(np.int64(2), half))


def test_char_sums_peak_memory_at_degree_8():
    # l_suite(5, 5, 8)'s largest phase-2 pass: 829 prime factors over the
    # 48 750 primes of degree 8; a whole int8 Legendre matrix of that size
    # alone is 38.5 MiB
    T = poly_tables(GF(5), 8)
    facs = [T.factor(d, code) for d in range(1, 6) for code in range(5 ** d)]
    facs = [fac for fac in facs if fac is not None]
    rows = T.prime_coefmat(8)
    T.legendre_array(rows[:1], sorted({key for fac in facs for key in fac}))  # chiq tables
    tracemalloc.start()
    try:
        sums = T.char_sums(rows, CharPlan(facs))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 30 << 20
    assert sums[facs.index([(1, 0)])] == int(T.legendre_array(rows, [(1, 0)])[0].sum())


def _widest_float32_width(p, e, k):
    """The widest row of coefficients in 0..q-1 (q = p^e) that float_type
    admits in float32 modulo primes of degree k: J = e*width digit entries
    in 0..p-1 with (J + 2) J (p-1)^2 < 2^22 (the floors) and
    J (p-1) q^k < 2^24 (the code column)."""
    width = 0
    while True:
        J = e * (width + 1)
        if (J + 2) * J * (p - 1) ** 2 >= 2 ** 22 or J * (p - 1) * p ** (e * k) >= 2 ** 24:
            return width
        width += 1


@settings(max_examples=240, deadline=None)
@given(_rows_mod_prime())
def test_float32_kernel_matches_float64_and_scalar(case):
    T, qkey, rows = case
    assert T.dtype is np.float32  # q <= 27, max_deg <= 4: inside the float32 bound
    field = T.field
    Q = Poly.monic_from_code(field, *qkey)
    polys = [Poly.from_coeffs(field, row) for row in rows]
    mat32 = _digits_of(T, rows).astype(np.float32)
    mat64 = _digits_of(T, rows).astype(np.float64)
    codes = T.reduce_codes(mat32, qkey)
    assert codes.tolist() == T.reduce_codes(mat64, qkey).tolist()
    assert codes.tolist() == [_residue_code(f, Q) for f in polys]
    leg = T.legendre_array(mat32, [qkey])[0]
    assert leg.tolist() == T.legendre_array(mat64, [qkey])[0].tolist()
    assert leg.tolist() == [ffpoly.jacobi_symbol(f, Q) for f in polys]


def test_float32_kernel_property_ignores_larger_shared_tables(monkeypatch):
    # GF(25) tables to degree 4 in the shared cache, as an lfunc --q 25
    # run with a modulus of degree 4 leaves them, refuse float32 rows of
    # 8 coefficients, the widest the property draws for its degree-3
    # tables; it draws its own tables and still passes
    monkeypatch.setattr(_tables, "_largest", dict(_tables._largest))
    assert poly_tables(GF(5, 2), 4).float_type(8) is np.float64
    test_float32_kernel_matches_float64_and_scalar()


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_float32_kernel_exact_at_widest_width(q):
    # an all-(q-1) row at the widest width the bound admits; the floors
    # bound it at q = 3, 5, 7 and the code column at q = 11, 13
    T = PolyTables(GF(q), 4)
    width = _widest_float32_width(q, 1, 4)
    assert T.float_type(width) is np.float32
    assert T.float_type(width + 1) is np.float64
    rng = np.random.default_rng(q)
    rows = np.vstack([np.full(width, q - 1), rng.integers(0, q, size=(3, width))])
    qkey = (4, int(T.prime_codes[4][-1]))
    Q = Poly.monic_from_code(T.field, *qkey)
    codes = T.reduce_codes(rows.astype(np.float32), qkey)
    assert codes.tolist() == T.reduce_codes(rows.astype(np.float64), qkey).tolist()
    assert codes[0] == _residue_code(Poly.from_coeffs(T.field, rows[0].tolist()), Q)
    leg = T.legendre_array(rows.astype(np.float32), [qkey])[0]
    residues = [Poly.from_coeffs(T.field, [int(c) // q ** i % q for i in range(4)])
                for c in codes]
    assert leg.tolist() == [ffpoly.jacobi_symbol(r, Q) for r in residues]


def test_float32_rows_beyond_the_bound_are_refused():
    T = poly_tables(GF(13), 4)
    width = _widest_float32_width(13, 1, 4) + 1
    qkey = (2, int(T.prime_codes[2][0]))
    rows = np.full((2, width), 12)
    with pytest.raises(InvariantError, match="float32 rows"):
        T.reduce_codes(rows.astype(np.float32), qkey)
    Q = Poly.monic_from_code(T.field, *qkey)
    expect = _residue_code(Poly.from_coeffs(T.field, rows[0].tolist()), Q)
    assert T.reduce_codes(rows.astype(np.float64), qkey).tolist() == [expect, expect]


def test_table_beyond_float32_bound_runs_in_float64():
    q = 1009
    T = PolyTables(GF(q), 2)  # a code column up to 3 * 1008 * 1009^2 > 2^24
    assert T.dtype is np.float64
    assert T.monic_coefmat(2).dtype == np.float64
    assert T.prime_coefmat(2).dtype == np.float64
    # no row is exact in float32 modulo quadratics; one coefficient is
    # modulo linear primes, as in a table of degree 1
    assert _widest_float32_width(q, 1, 2) == 0 and _widest_float32_width(q, 1, 1) == 1
    assert T.float_type(1) is np.float64
    assert T.float_type(1, k=1) is np.float32
    assert T.float_type(2, k=1) is np.float64
    T1 = PolyTables(GF(q), 1)
    assert T1.float_type(1) is np.float32
    rng = random.Random(q)
    rows = [[rng.randrange(q) for _ in range(5)] for _ in range(40)] + [[q - 1] * 5]
    # (tables, prime, row type and width, the float32 width refused)
    for tables, qkey, dtype, width, refused in ((T, (1, 7), np.float64, 5, 1),
                                                (T, (2, int(T.prime_codes[2][-1])), np.float64, 5, 1),
                                                (T1, (1, 7), np.float32, 1, 2)):
        Q = Poly.monic_from_code(T.field, *qkey)
        polys = [Poly.from_coeffs(T.field, row[:width]) for row in rows]
        mat = np.array([row[:width] for row in rows], dtype=dtype)
        assert tables.reduce_codes(mat, qkey).tolist() == [_residue_code(f, Q) for f in polys]
        assert tables.legendre_array(mat, [qkey])[0].tolist() == [
            ffpoly.jacobi_symbol(f, Q) for f in polys]
        with pytest.raises(InvariantError, match="float32 rows"):
            tables.reduce_codes(np.array(rows, dtype=np.float32)[:, :refused], qkey)


@pytest.mark.parametrize("q,max_deg,width,expect", [
    (3, 14, 1, np.float32),                 # code column 2 * 3^14 < 2^24
    (3, 15, 1, np.float64),                 # 2 * 3^15 > 2^24
    (3, 16, 1, np.float64),
    (5, 2, 511, np.float32),                # floors: 513 * 511 * 16 < 2^22
    (5, 2, 512, np.float64),                # 514 * 512 * 16 > 2^22
    (5, 2, 131072, np.float64),
])
def test_float_type_bounds(q, max_deg, width, expect):
    # the rule alone, without building a q^max_deg sieve
    assert PolyTables.float_type(SimpleNamespace(p=q, e=1, max_deg=max_deg), width) is expect


@pytest.mark.parametrize("p,e,max_deg", [(3, 2, 4), (5, 2, 3), (3, 3, 3)])
def test_poly_tables_build_for_prime_powers(p, e, max_deg):
    field = GF(p, e)
    T = PolyTables(field, max_deg)
    assert (T.p, T.e, T.q) == (p, e, p ** e)
    for d in range(1, max_deg + 1):
        assert len(T.prime_codes[d]) == ffpoly.prime_count_exact(T.q, d)
        assert T.monic_coefmat(d).shape == (T.q ** d, (d + 1) * e)
    # every square-free monic of the top degree factors into its primes
    d = max_deg
    for code in range(0, T.q ** d, 97):
        f = Poly.monic_from_code(field, d, code)
        fac = T.factor(d, code)
        assert (fac is not None) == ffpoly.is_squarefree(f)
        if fac is not None:
            assert fac == sorted(fac)  # smallest degree, then least code, first
            prod = Poly.one(field)
            for a, c in fac:
                assert c in T.prime_codes[a]
                prod = prod * Poly.monic_from_code(field, a, c)
            assert prod == f


@pytest.mark.parametrize("q,max_deg", [(3, 6), (5, 4), (7, 3), (9, 3), (25, 2), (27, 2)])
def test_spf_tables_match_trial_division_at_every_code(q, max_deg):
    # every code of every degree: 0 for a prime, else the packed smallest
    # prime factor (least degree, then least code) and its cofactor
    field = ffpoly.field_of_order(q)
    T = PolyTables(field, max_deg)
    pack = q ** max_deg
    for d in range(1, max_deg + 1):
        for code in range(q ** d):
            f = Poly.monic_from_code(field, d, code)
            P = oracle.trial_factors(f)[0]
            if P == f:
                assert T.spf[d][code] == 0
            else:
                a = int(P.degree)
                want = a * pack + P.monic_code() * q ** (d - a) + (f // P).monic_code()
                assert T.spf[d][code] == want
        assert T.prime_codes[d].tolist() == np.flatnonzero(T.spf[d] == 0).tolist()


def test_sieve_checks_its_prime_counts(monkeypatch):
    # products that all land on code 0 leave q^2 - 1 "primes" of degree 2
    monkeypatch.setattr(PolyTables, "_mul_matrices",
                        lambda self, a, codes, m: np.zeros((len(codes), (m + 1) * self.e, (a + m) * self.e),
                                                           dtype=np.int64))
    with pytest.raises(InvariantError, match="8 primes of degree 2 at q=3, not pi = 3"):
        PolyTables(GF(3), 3)


def test_sieve_checks_each_composite_is_written_once(monkeypatch):
    # with pi_3(2) taken as 4 the six composites of degree 2 the passes
    # write are one more than q^2 - pi_3(2), and with pi_3(3) taken as 7
    # they are one fewer
    count = ffpoly.prime_count_exact
    for n, off, match in ((2, 1, "6 codes written at degree 2 at q=3, more than its 5 composites"),
                          (3, -1, "19 codes written at degree 3 at q=3, not the 20 composites")):
        monkeypatch.setattr(ffpoly, "prime_count_exact", lambda q, k: count(q, k) + off * (k == n))
        with pytest.raises(InvariantError, match=match):
            PolyTables(GF(3), 3)


@pytest.mark.parametrize("q,max_deg,computed,kept", [(5, 8, 536136, 424961), (3, 12, 840362, 727454)])
def test_sieve_kernel_starts_each_group_of_primes_at_its_own_suffix(monkeypatch, q, max_deg, computed, kept):
    # the products the sieve's kernel computes against the composites it
    # keeps: each kernel group of primes runs from its own first suffix,
    # so a group computes the products of its later primes' shorter
    # suffixes over its first one's alone
    seen = []
    stacked = PolyTables._stacked_codes

    def counting(self, mat, k, S, group):
        for i, r, codes in stacked(self, mat, k, S, group):
            seen.append(codes.size)
            yield i, r, codes

    monkeypatch.setattr(PolyTables, "_stacked_codes", counting)
    PolyTables(ffpoly.field_of_order(q), max_deg)
    assert kept == sum(q ** d - ffpoly.prime_count_exact(q, d) for d in range(1, max_deg + 1))
    assert sum(seen) == computed


@pytest.mark.parametrize("q,d", [(3, 3), (5, 2), (7, 2), (9, 2), (25, 1), (27, 2), (5, 0)])
def test_affine_codes_match_scalar_substitution(q, d):
    # u^-d F(uX + v) for every u, v and some monic F of degree d, by
    # Horner's rule over ffpoly
    field = ffpoly.field_of_order(q)
    T = poly_tables(field, max(d, 1))
    codes = np.arange(q ** d)[::max(1, q ** d // 40)]
    got = T.affine_codes(d, codes, range(1, q), range(q))
    assert got.shape == (q - 1, q, len(codes))
    for u in range(1, q):
        for v in range(q):
            line = Poly.from_coeffs(field, [v, u])
            for code, image in zip(codes.tolist(), got[u - 1, v].tolist()):
                acc = Poly.from_coeffs(field, [0])
                for c in reversed(Poly.monic_from_code(field, d, code).coeffs):
                    acc = acc * line + Poly.from_coeffs(field, [c])
                assert acc.to_monic().monic_code() == image


@pytest.mark.parametrize("p,e", [(3, 2), (5, 2), (3, 3)])
def test_chiq_matches_euler_criterion_over_prime_powers(p, e):
    field = GF(p, e)
    T = poly_tables(field, 2)
    for k in (1, 2):
        for code in T.prime_codes[k][:: len(T.prime_codes[k]) - 1].tolist():
            Q = Poly.monic_from_code(field, k, code)
            tab, rows = T.chiq([(k, code)])
            tab = tab[rows[0]]
            residues = [Poly(field, [r // field.q ** i % field.q for i in range(k)])
                        for r in range(field.q ** k)]
            assert tab.tolist() == [oracle.legendre_symbol(r, Q) for r in residues]


@pytest.mark.parametrize("q", [3, 5, 7, 9, 25, 27])
def test_squares_keep_one_of_each_pair_r_and_minus_r(q):
    field = ffpoly.field_of_order(q)
    T = PolyTables(field, 1)
    for k in (1, 2, 3) if q < 25 else (1, 2):
        assert len(T._squares(k)) == (q ** k + 1) // 2


@pytest.mark.parametrize("p", [3, 5, 7])
def test_chiq_from_half_the_squares_matches_euler_criterion(p):
    # the first, a middle and the last prime of each degree, built in one
    # stacked call, against (r/Q) by Euler's criterion at every residue
    field = GF(p)
    T = poly_tables(field, 3)
    for k in (1, 2, 3):
        codes = T.prime_codes[k].tolist()
        keys = [(k, c) for c in dict.fromkeys((codes[0], codes[len(codes) // 2], codes[-1]))]
        tab, rows = T.chiq(keys)
        residues = [Poly(field, [r // p ** i % p for i in range(k)]) for r in range(p ** k)]
        for key, row in zip(keys, rows.tolist()):
            Q = Poly.monic_from_code(field, *key)
            assert tab[row].tolist() == [oracle.legendre_symbol(r, Q) for r in residues]


@pytest.mark.parametrize("q", [9, 25, 27])
def test_float32_kernel_exact_at_widest_width_prime_power(q):
    # e*width digits of p-1 (coefficients q-1) at the widest width the
    # bound admits
    field = ffpoly.field_of_order(q)
    p, e = field.p, field.e
    T = PolyTables(field, 2)
    width = _widest_float32_width(p, e, 2)
    assert T.float_type(width) is np.float32
    assert T.float_type(width + 1) is np.float64
    rows = np.vstack([np.full(width, q - 1), np.random.default_rng(q).integers(0, q, size=width)])
    qkey = (2, int(T.prime_codes[2][-1]))
    Q = Poly.monic_from_code(field, *qkey)
    mat = _digits_of(T, rows)
    codes = T.reduce_codes(mat.astype(np.float32), qkey)
    assert codes.tolist() == T.reduce_codes(mat.astype(np.float64), qkey).tolist()
    assert codes[0] == _residue_code(Poly(field, rows[0].tolist()), Q)
    with pytest.raises(InvariantError, match="float32 rows"):
        T.reduce_codes(np.hstack([mat, mat[:, :e]]).astype(np.float32), qkey)


@pytest.mark.parametrize("p,e,max_deg,width,expect", [
    (3, 2, 6, 1, np.float32),                   # code column 2 * 2 * 9^6 < 2^24
    (3, 2, 7, 1, np.float64),                   # 2 * 2 * 9^7 > 2^24
    (3, 2, 8, 1, np.float64),
    (3, 2, 2, 511, np.float32),                 # J = 1022 digits: 1024 * 1022 * 4 < 2^22
    (3, 2, 2, 512, np.float64),                 # 1026 * 1024 * 4 > 2^22
    (3, 2, 2, 262144, np.float64),
    (5, 2, 2, 65536, np.float64),
])
def test_float_type_bounds_prime_power(p, e, max_deg, width, expect):
    assert PolyTables.float_type(SimpleNamespace(p=p, e=e, max_deg=max_deg), width) is expect


def test_tables_are_keyed_by_the_field_modulus():
    # X^2 + 1 and X^2 + X + 2 give F_9 different element codes
    canonical = GF(3, 2)
    other = ffpoly.FiniteField(3, 2, modulus=(2, 1, 1))
    assert canonical.modulus_coeffs != other.modulus_coeffs
    assert poly_tables(canonical, 2) is not poly_tables(other, 2)
    for field in (canonical, other):
        T = poly_tables(field, 2)
        for code in T.prime_codes[2][:6].tolist():
            Q = Poly.monic_from_code(field, 2, code)
            polys = [Poly.monic_from_code(field, 3, c) for c in range(0, 729, 13)]
            assert T.legendre_array(T.code_rows(3, range(0, 729, 13)), [(2, code)])[0].tolist() == [
                ffpoly.jacobi_symbol(f, Q) for f in polys]


def test_ascending_prime_requests_build_one_table(monkeypatch):
    # is_irreducible and factorize ask for primes of degree 1, 2, ...; the
    # sieve must be built once at the top degree, not once per degree
    built = []

    class Counting(PolyTables):
        def __init__(self, field, max_deg):
            built.append(max_deg)
            super().__init__(field, max_deg)

    monkeypatch.setattr(_tables, "PolyTables", Counting)
    for fresh in (ffpoly.FiniteField(3, 2, modulus=(2, 1, 1)),
                  ffpoly.FiniteField(5, 2, modulus=(3, 0, 1))):
        # two cubic primes from the scalar sieve: trial division must
        # climb to degree 3 before it finds a factor
        cubics = oracle.prime_list(fresh, 3)
        f = cubics[0] * cubics[-1]
        assert not ffpoly.is_irreducible(f)
        assert ffpoly.factorize(f) == [(cubics[0], 1), (cubics[-1], 1)]
        assert built == [3]
        built.clear()


@pytest.mark.parametrize("q", [3, 5, 7, 9, 25, 27])
def test_batched_xpow_rows_match_the_per_prime_build(q):
    # every prime of degree <= 3 in one batch per degree, alpha^u blocks
    # (u < 2e - 1) included, against each prime's own companion powers
    T = PolyTables(ffpoly.field_of_order(q), 3)
    for k in (1, 2, 3):
        codes = T.prime_codes[k].tolist()
        n = 2 * k + 1
        got = T._xrow_batch(k, codes, n)
        assert got.shape == (len(codes), n, 2 * T.e - 1, k * T.e)
        for code, rows in zip(codes, got):
            assert np.array_equal(rows, oracle.xpow_rows(T, (k, code), n))


#: fields of q <= 27 with the degree of their tables
WIDEST_CASES = [(GF(q), 4) for q in (3, 5, 7, 11, 13)] + list(PRIME_POWER_DEGREE.items())


@st.composite
def _rows_at_the_widest_width(draw):
    field, max_deg = draw(st.sampled_from(WIDEST_CASES))
    T = poly_tables(field, max_deg)  # may reach past max_deg, if built so before
    width = _widest_float32_width(T.p, T.e, T.max_deg)
    k = draw(st.integers(1, max_deg))
    code = int(draw(st.sampled_from(T.prime_codes[k].tolist())))
    q = field.q
    rows = [[q - 1] * width] + draw(st.lists(
        st.lists(st.integers(0, q - 1), min_size=width, max_size=width), min_size=1, max_size=3))
    return T, (k, code), width, rows


@settings(max_examples=40, deadline=None)
@given(_rows_at_the_widest_width())
def test_float32_kernel_matches_scalar_at_the_widest_width(case):
    # the floor-only kernel in float32 at the edge of its bound, against
    # the scalar residues and symbols; one coefficient more is refused
    T, qkey, width, rows = case
    assert T.float_type(width) is np.float32
    assert T.float_type(width + 1) is np.float64
    Q = Poly.monic_from_code(T.field, *qkey)
    polys = [Poly.from_coeffs(T.field, row) for row in rows]
    mat = _digits_of(T, rows).astype(np.float32)
    assert T.reduce_codes(mat, qkey).tolist() == [_residue_code(f, Q) for f in polys]
    assert T.legendre_array(mat, [qkey])[0].tolist() == [ffpoly.jacobi_symbol(f, Q) for f in polys]
    wider = np.hstack([mat, mat[:, :T.e]])
    with pytest.raises(InvariantError, match="float32 rows"):
        T.legendre_array(wider, [qkey])


def _calls(tree, name):
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == name]


def test_one_reduction_step_and_no_per_prime_power_loop():
    # the floor pass lives in the kernel alone: the sieve reduces through
    # it, and the X^j mod Q rows of a degree's primes and the
    # u^-d (uX + v)^j rows of every affine map each come from one batched
    # power pass
    module = ast.parse(inspect.getsource(_tables))
    methods = {node.name: node for node in ast.walk(module) if isinstance(node, ast.FunctionDef)}
    sieve = methods["_sieve"]
    assert not _calls(sieve, "floor")
    assert _calls(sieve, "_stacked_codes")
    assert [node.name for node in methods.values() if _calls(node, "floor")] == ["_stacked_codes"]
    assert [node.name for node in methods.values() if _calls(node, "_power_rows")] == ["_xrow_batch", "affine_codes"]
    assert not [node for node in ast.walk(methods["_xrow_batch"]) if isinstance(node, (ast.For, ast.comprehension))]
    # affine_codes loops over the kernel's blocks and the scales' powers
    # u^-d alone, not over the maps' matrices
    loops = [node for node in ast.walk(methods["affine_codes"]) if isinstance(node, (ast.For, ast.comprehension))]
    assert [loop.iter.func.attr if isinstance(loop.iter, ast.Call) else loop.iter.id
            for loop in loops] == ["_stacked_codes", "scales"]


def test_stacked_kernel_exact_at_the_float32_code_bound_with_store_offsets():
    # at q = 11, degree-4 primes and the widest float32 rows (J = 114),
    # y_max = J (p-1) q^4 leaves room for store offsets of 5 q^4 below 2^24
    # and not 6 q^4, so a block takes 6 primes; one coefficient less leaves
    # room for 16 and a block of 6 rows takes all 13 primes.  Both sides
    # match the scalar symbols, all-(q-1) rows (the largest code sums) and
    # random rows alike.
    q, k = 11, 4
    T = PolyTables(GF(q), k)
    width = _widest_float32_width(q, 1, k)
    assert width == 114 and T.float_type(width) is np.float32
    y_max = width * (q - 1) * q ** k
    assert y_max + 5 * q ** k < 2 ** 24 <= y_max + 6 * q ** k
    qkeys = [(k, c) for c in T.prime_codes[k][:13].tolist()]
    rng = np.random.default_rng(11)
    for w, group in ((width, 6), (width - 1, 13)):
        assert T._group(k, len(qkeys), np.float32, 6, w) == group
        rows = np.vstack([np.full((2, w), q - 1), rng.integers(0, q, size=(4, w))])
        got = T.legendre_array(rows.astype(np.float32), qkeys)
        for qkey, row in zip(qkeys, got.tolist()):
            Q = Poly.monic_from_code(T.field, *qkey)
            assert row == [ffpoly.jacobi_symbol(Poly.from_coeffs(T.field, f.tolist()), Q) for f in rows]


def test_kernel_exact_at_the_code_bound_with_store_offsets():
    # maps of digits p-1 and rows of digits p-1 (a few p-2) meet code sums
    # near y_max: with the offsets of as many primes as _group admits, a
    # block's code sums come within 2 q^k of 2^24, and one prime more
    # would pass it.  Every code is the exact sum_t p^t (x_t mod p) plus
    # the map's offset, computed in int64.
    q, k = 11, 4
    T = poly_tables(GF(q), k)
    width = _widest_float32_width(q, 1, k)
    m, K = 13, k
    rng = np.random.default_rng(4)
    digits = np.full((m, width, K), q - 1)
    group = T._group(k, m, np.float32, 301, width)
    assert group == 6
    offsets = np.arange(m) % group * q ** k
    S = T._kernel_matrix(digits, np.float32, offsets)
    rows = np.vstack([np.full((1, width), q - 1), q - 1 - (rng.random((300, width)) < 0.02)])
    x = np.einsum("rj,mjt->mrt", rows, digits)
    want = (x % q * q ** np.arange(K)).sum(axis=2) + offsets[:, None]
    assert ((x * q ** np.arange(K)).sum(axis=2) + offsets[:, None]).max() > 2 ** 24 - 2 * q ** k
    got = np.empty_like(want)
    for i, r, codes in T._stacked_codes(rows.astype(np.float32), k, S, group):
        got[i:i + len(codes), r:r + codes.shape[1]] = codes
    assert (got == want).all()


def test_kernel_group_checks_the_code_bound():
    # rows of the widest float32 width modulo primes of degree max_deg
    # leave no room at all one coefficient wider: InvariantError, never a
    # silently inexact block
    T = poly_tables(GF(13), 4)
    width = _widest_float32_width(13, 1, 4)
    assert T._group(4, 10, np.float32, 2048, width) >= 1
    with pytest.raises(InvariantError, match="beyond exact float32"):
        T._group(4, 10, np.float32, 2048, width + 1)
    assert T._group(4, 10, np.float64, 2048, width + 1) >= 1


def test_chiq_rows_of_a_call_are_one_run():
    # tables built by earlier calls out of order are moved so that the
    # rows of each call are consecutive, with every table unchanged
    T = PolyTables(GF(5), 2)
    codes = T.prime_codes[2].tolist()
    singles = {}
    for c in codes[3:6]:
        tab, rows = T.chiq([(2, c)])
        singles[c] = tab[rows[0]].copy()
    qkeys = [(2, c) for c in (codes[5], codes[0], codes[3], codes[1], codes[4])]
    tab, rows = T.chiq(qkeys)
    assert rows.tolist() == list(range(rows[0], rows[0] + len(qkeys)))
    for (_, c), row in zip(qkeys, rows.tolist()):
        Q = Poly.monic_from_code(T.field, 2, c)
        assert tab[row].tolist() == [ffpoly.jacobi_symbol(Poly(T.field, [r % 5, r // 5]), Q)
                                     for r in range(25)]
        if c in singles:
            assert (tab[row] == singles[c]).all()
    mat = np.array([[1, 2, 3], [4, 0, 1]], dtype=np.float32)
    again = T.legendre_array(mat, qkeys[::-1])
    for qkey, row in zip(qkeys[::-1], again.tolist()):
        Q = Poly.monic_from_code(T.field, *qkey)
        assert row == [ffpoly.jacobi_symbol(Poly.from_coeffs(T.field, f), Q) for f in ([1, 2, 3], [4, 0, 1])]


def _stacked_codes_loops(method):
    """The names bound by the for loops of method over _stacked_codes."""
    names = set()
    for node in ast.walk(method):
        if isinstance(node, ast.For) and _calls(node.iter, "_stacked_codes"):
            names |= {n.id for n in ast.walk(node.target) if isinstance(n, ast.Name)}
    return names


def test_kernel_block_is_five_passes_and_callers_add_nothing_to_codes():
    # a kernel block is the matmul, the floor, the combining matmul and
    # the int64 cast, and its callers read the codes as they come: the
    # bias and the store offsets ride in the matmul, so nothing adds to
    # the digit sums or the codes in place
    module = ast.parse(inspect.getsource(_tables))
    methods = {node.name: node for node in ast.walk(module) if isinstance(node, ast.FunctionDef)}
    kernel = methods["_stacked_codes"]
    assert not [node for node in ast.walk(kernel) if isinstance(node, ast.AugAssign)]
    inner = [node for node in ast.walk(kernel) if isinstance(node, ast.For)][-1]
    passes = [node.func.attr for stmt in inner.body for node in ast.walk(stmt)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"]
    assert passes == ["matmul", "floor", "matmul", "copyto"]
    for name in ("legendre_array", "chiq", "reduce_codes", "_sieve"):
        bound = _stacked_codes_loops(methods[name])
        assert "codes" in bound
        assert not [node for node in ast.walk(methods[name]) if isinstance(node, ast.AugAssign)
                    and {n.id for n in ast.walk(node.target) if isinstance(n, ast.Name)} & bound]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(3, 5), (5, 4), (9, 3)]), st.data())
def test_factor_all_matches_per_code_factor(q_deg, data):
    q, max_deg = q_deg
    T = poly_tables(ffpoly.field_of_order(q), max_deg)
    d = data.draw(st.integers(1, max_deg))
    squarefree, rows, pdeg, pcode = T.factor_all(d)
    got = {}
    for row, a, c in zip(rows.tolist(), pdeg.tolist(), pcode.tolist()):
        got.setdefault(row, []).append((a, c))
    assert sorted(got) == np.flatnonzero(squarefree).tolist()
    for code in range(q ** d):
        want = T.factor(d, code)
        assert (want is not None) == bool(squarefree[code])
        assert got.get(code) == want


#: q and the degree the prime_symbols property's tables reach
SYMBOL_DEGREE = {3: 4, 5: 3, 7: 3, 9: 3, 25: 2, 27: 2}
_symbol_tables = {}


@st.composite
def _symbol_case(draw):
    q = draw(st.sampled_from(sorted(SYMBOL_DEGREE)))
    if q not in _symbol_tables:
        _symbol_tables[q] = PolyTables(ffpoly.field_of_order(q), SYMBOL_DEGREE[q])
    T = _symbol_tables[q]
    d = draw(st.integers(1, T.max_deg))
    columns = T.prime_codes[d].tolist()
    codes = draw(st.lists(st.sampled_from(columns), min_size=1, max_size=8))
    if draw(st.booleans()):
        # every column prime among the keys: their entries reach
        # pi_q(d) q^d, so the keys' rows read the tables of the P
        extra = [(a, c) for a in range(1, T.max_deg + 1) for c in T.prime_codes[a].tolist()]
        keys = sorted(set(draw(st.lists(st.sampled_from(extra), max_size=20))) | {(d, c) for c in columns})
        direct = True
    else:
        # fewer than pi_q(d) keys of degree <= d, one of them a column
        # prime: fewer entries than the P's tables, so the P's rows read
        # the keys' tables and reciprocity turns them round
        below = [(a, c) for a in range(1, d + 1) for c in T.prime_codes[a].tolist()]
        keys = sorted(set(draw(st.lists(st.sampled_from(below), max_size=len(columns) - 2))) | {(d, codes[0])})
        direct = False
    return T, d, codes, keys, direct


def _key_arrays(keys):
    """(deg, code) int arrays of a list of (deg, code) pairs."""
    return tuple(np.array(keys, dtype=np.int64).reshape(-1, 2).T)


@settings(max_examples=150, deadline=None)
@given(_symbol_case())
def test_prime_symbols_match_scalar_jacobi_in_both_orientations(case):
    # (Q/P) against ffpoly.jacobi_symbol whichever side's tables are read;
    # at q = 3, 7, 27 (q = 3 mod 4) an odd deg Q * d flips the sign
    T, d, codes, keys, direct = case
    q = T.q
    assert (len(T.prime_codes[d]) * q ** d <= sum(q ** a for a, _ in keys)) == direct
    got = T.prime_symbols(d, np.array(codes), _key_arrays(keys))
    assert got.dtype == np.int8 and got.shape == (len(keys), len(codes))
    P = [Poly.monic_from_code(T.field, d, c) for c in codes]
    for (a, c), row in zip(keys, got.tolist()):
        Q = Poly.monic_from_code(T.field, a, c)
        assert row == [ffpoly.jacobi_symbol(Q, p) for p in P]
    assert got[keys.index((d, codes[0])), 0] == 0


def test_prime_symbols_read_the_tables_of_the_smaller_side():
    # P of degree 2 at q = 3 (3 tables of 9 entries) against every prime of
    # degree 3 and 4: the keys' rows read the P's tables alone
    T = PolyTables(GF(3), 4)
    keys = [(a, c) for a in (3, 4) for c in T.prime_codes[a].tolist()]
    codes = T.prime_codes[2]
    got = T.prime_symbols(2, codes, _key_arrays(keys))
    assert sorted(T._chiq_tabs) == [2]
    P = [Poly.monic_from_code(T.field, 2, c) for c in codes.tolist()]
    assert got.tolist() == [[ffpoly.jacobi_symbol(Poly.monic_from_code(T.field, *key), p) for p in P]
                            for key in keys]
    # P of degree 3 at q = 7 (112 tables of 343 entries) against the primes
    # of degree 1 and one of degree 2: the P's rows read the keys' tables,
    # and (q - 1)/2 deg Q d is odd at deg Q = 1
    T = PolyTables(GF(7), 3)
    keys = [(1, c) for c in range(7)] + [(2, int(T.prime_codes[2][5]))]
    codes = T.prime_codes[3][::9]
    got = T.prime_symbols(3, codes, _key_arrays(keys))
    assert sorted(T._chiq_tabs) == [1, 2]
    P = [Poly.monic_from_code(T.field, 3, c) for c in codes.tolist()]
    want = [[ffpoly.jacobi_symbol(Poly.monic_from_code(T.field, *key), p) for p in P] for key in keys]
    assert got.tolist() == want
    assert any(row != [ffpoly.jacobi_symbol(p, Poly.monic_from_code(T.field, *key)) for p in P]
               for key, row in zip(keys, want))


@pytest.mark.parametrize("q,max_deg", [(3, 4), (9, 3), (25, 2)])
def test_prime_counts_match_the_scalar_symbol_counts(q, max_deg):
    # counts up to M < d read the keys' tables, the others the P's
    field = ffpoly.field_of_order(q)
    T = poly_tables(field, max_deg)
    for d, M in itertools.product(range(1, max_deg + 1), repeat=2):
        codes = T.prime_codes[d][::max(1, len(T.prime_codes[d]) // 3)]
        got = T.prime_counts(d, codes, M)
        assert got.dtype == np.int32 and got.shape == (len(codes), M, 3)
        for code, counts in zip(codes.tolist(), got.tolist()):
            rows = oracle.chi_plain_rows(Poly.monic_from_code(field, d, code), M)
            assert counts == [[int((r == v).sum()) for v in (-1, 0, 1)] for r in rows]


#: q -> the (d, M) the completed-counts property draws: M past
#: (d-1)//2 + 1, the last degree whose symbols prime_counts reads, and
#: small enough for the scalar oracle's jacobi_symbol over every Q
COMPLETED_CASES = {3: [(1, 4), (2, 6), (3, 7), (4, 6), (5, 7), (6, 8)], 5: [(2, 4), (3, 5), (4, 5)],
                   7: [(2, 4), (3, 4)], 9: [(2, 3), (3, 3)], 25: [(1, 2), (2, 2)], 27: [(1, 2), (2, 2)]}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_completed_prime_counts_match_the_scalar_symbols(data):
    # the counts past (d-1)//2 + 1 come from the functional equation of
    # L(u, chi_P), not from symbols; they equal the scalar counts
    q = data.draw(st.sampled_from(sorted(COMPLETED_CASES)))
    d, M = data.draw(st.sampled_from(COMPLETED_CASES[q]))
    assert M > (d - 1) // 2 + 1
    field = ffpoly.field_of_order(q)
    primes = poly_tables(field, d).prime_codes[d]
    codes = np.array(data.draw(st.lists(st.sampled_from(primes.tolist()), min_size=1, max_size=3)))
    got = poly_tables(field, d).prime_counts(d, codes, M)
    for code, counts in zip(codes.tolist(), got.tolist()):
        rows = oracle.chi_plain_rows(Poly.monic_from_code(field, d, code), M)
        assert counts == [[int((r == v).sum()) for v in (-1, 0, 1)] for r in rows]


def test_prime_counts_read_no_key_past_the_half_degree(monkeypatch):
    # whatever max_deg asks, prime_symbols is given keys of degree at most
    # (d-1)//2 + 1, and a table reaching d serves every max_deg
    asked = []
    symbols = PolyTables.prime_symbols

    def recording(self, d, codes, keys):
        asked.append((d, int(keys[0].max())))
        return symbols(self, d, codes, keys)

    monkeypatch.setattr(PolyTables, "prime_symbols", recording)
    for q, d, M in ((3, 1, 12), (3, 2, 12), (3, 5, 13), (3, 8, 13), (5, 4, 9), (9, 3, 6), (25, 2, 4)):
        field = ffpoly.field_of_order(q)
        T = PolyTables(field, d)
        asked.clear()
        counts = T.prime_counts(d, T.prime_codes[d][:5], M)
        assert asked and all(deg == d and top == (d - 1) // 2 + 1 for deg, top in asked)
        assert (counts.sum(axis=2) == [ffpoly.prime_count_exact(q, a) for a in range(1, M + 1)]).all()


def test_a_wrong_count_at_the_check_degree_raises(monkeypatch):
    # the counts of degree (d-1)//2 + 1 are read and completed both; a
    # completion off by one prime at that degree is caught
    from ffstat import lfunc

    real = lfunc.completed_prime_sums

    def off(sums, d, q, top):
        s = real(sums, d, q, top)
        s[:, (d - 1) // 2] += 2
        return s

    T = poly_tables(GF(3), 5)
    monkeypatch.setattr(lfunc, "completed_prime_sums", off)
    with pytest.raises(InvariantError, match="disagree"):
        T.prime_counts(5, T.prime_codes[5][:4], 7)
    monkeypatch.undo()
    # and a wrong count below it breaks an identity of the completion
    good = T.prime_counts(5, T.prime_codes[5][:4], 2)
    sums = (good[:, :, 2] - good[:, :, 0]).astype(np.int64)
    for bad in (sums + [[2, 0]], sums + [[0, 1]], sums + [[0, 20]]):
        with pytest.raises(InvariantError):
            lfunc.completed_prime_sums(bad, 5, 3, 7)


def test_legendre_array_is_called_only_inside_tables():
    # every symbol between two sets of primes goes through prime_symbols,
    # so the orientation and the reciprocity sign live in _tables alone
    src = pathlib.Path(_tables.__file__).parent
    callers = {path.name for path in src.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Call) and _calls(node.func, "legendre_array")}
    assert callers == {"_tables.py"}
