"""The batched residue engine in _tables against the scalar ffpoly paths."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ffstat import ffpoly
from ffstat._tables import PolyTables, poly_tables
from ffstat.ffpoly import GF, Poly


def _residue_code(f, Q):
    r = f % Q
    return sum(int(c) * Q.field.q ** i for i, c in enumerate(r.coeffs))


@st.composite
def _rows_mod_prime(draw):
    q = draw(st.sampled_from((3, 5, 7, 11, 13)))
    k = draw(st.integers(1, 4))
    T = poly_tables(q, 4)
    code = int(draw(st.sampled_from(list(T.prime_codes[k]))))
    width = draw(st.integers(1, 2 * k + 2))
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=width, max_size=width),
                         min_size=1, max_size=12))
    return T, (k, code), rows


@settings(max_examples=150, deadline=None)
@given(_rows_mod_prime())
def test_legendre_array_matches_scalar_jacobi(case):
    T, qkey, rows = case
    field = GF(T.q)
    Q = Poly.monic_from_code(field, *qkey)
    polys = [Poly.from_coeffs(field, row) for row in rows]
    mat = np.array(rows, dtype=np.float64)
    assert T.reduce_codes(mat, qkey).tolist() == [_residue_code(f, Q) for f in polys]
    assert T.legendre_array(mat, qkey).tolist() == [ffpoly.jacobi_symbol(f, Q) for f in polys]


def test_reduce_codes_exact_for_large_entries():
    # reduction is linear, so any integer representatives are valid rows;
    # entries near 2^47 put the matmul within a factor 4 of the 2^51 limit
    T = poly_tables(3, 4)
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
        PolyTables(1000003, 1)
    with pytest.raises(ValueError, match="q=3 "):
        PolyTables(3, 34)  # residue codes reach 3^34 > 2^53


def test_prime_char_sums_matches_scalar():
    T = poly_tables(3, 4)
    F3 = T.field
    facs = [T.factor(3, code) for code in range(27)]
    facs = [[]] + [fac for fac in facs if fac is not None]
    for n in (1, 2, 3):
        primes = ffpoly.primes(F3, n)
        expect = []
        for fac in facs:
            D = Poly.one(F3)
            for qkey in fac:
                D = D * Poly.monic_from_code(F3, *qkey)
            expect.append(sum(ffpoly.jacobi_symbol(P, D) for P in primes))
        assert T.prime_char_sums(facs, n) == expect
