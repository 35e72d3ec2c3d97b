"""Scalar oracles for the family, its numpy scan and the fixed-prime layer.

The oracle enumeration tests coprimality with poly_gcd and builds a
validated CurveTriple per member; the oracle scan sums pair sums member
by member from chi vectors evaluated point by point
(scalar_oracles.PointwiseChi).  The fixed-prime oracles enumerate N_{k1,k2}
triples with poly_gcd and scalar jacobi_symbol, multiply one Fraction
per prime for H_{P,kind}, sum one Fraction per prime for the prime
sums, and evaluate the C_{k1,k2} formula literally.  All are the
straightforward definitions the fast paths replace.  The member-row scans
of scalar_oracles check the pair weights behind the exhaustive sums.
"""

import ast
import csv
import functools
import inspect
import io
import math
import os
import pathlib
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import scalar_oracles as oracle
from ffstat import biquad, cli, eulerprod, ffpoly, moments
from ffstat.errors import InvariantError
from ffstat.ffpoly import GF

FIELDS = {3: GF(3), 5: GF(5), 7: GF(7), 9: GF(3, 2)}


@functools.lru_cache(maxsize=None)
def scalar_monic_triples(field, g):
    kept, _ = biquad.admissible_patterns(g)
    out = []
    sf = {d: ffpoly.enumerate_polys(field, d, "squarefree-monic")
          for d in sorted({d for pat in kept for d in pat})}
    for d1, d2, d3 in kept:
        for f1 in sf[d1]:
            for f2 in sf[d2]:
                if not ffpoly.poly_gcd(f1, f2).is_constant():
                    continue
                f12 = f1 * f2
                for f3 in sf[d3]:
                    if ffpoly.poly_gcd(f12, f3).is_constant():
                        out.append(biquad.CurveTriple(f1, f2, f3, biquad.MONIC))
    return tuple(out)


def scalar_family_totals(field, g, n):
    cache = oracle.pointwise_chi(field, n)
    even = n % 2 == 0
    if even:
        half = oracle.pointwise_chi(field, n // 2)
        gen_mask = oracle.generating_mask(cache.ext)
    s_all = s12_tot = roots_tot = bil_tot = gen_tot = 0
    for t in scalar_monic_triples(field, g):
        s13 = cache.pair_sum(t.f1, t.f3)
        s23 = cache.pair_sum(t.f2, t.f3)
        s12 = cache.pair_sum(t.f1, t.f2)
        s_all += s13 + s23 + s12
        s12_tot += s12
        if even:
            v = cache.chi(t.f1) * cache.chi(t.f2)
            zeros_half = sum(int(np.count_nonzero(half.chi(f) == 0))
                             for f in (t.f1, t.f2))
            deg12 = int(t.f1.degree) + int(t.f2.degree)
            roots_tot += zeros_half + (deg12 % 2) - 1
            s12_fin = s12 - cache.chi_inf_product(t.f1, t.f2)
            bil_tot += s12_fin - (field.q ** (n // 2) - zeros_half)
            gen_tot += int(v[gen_mask].sum(dtype=np.int64))
    return s_all, s12_tot, roots_tot, bil_tot, gen_tot


ENUMERATED = [(3, 0), (3, 1), (3, 2), (3, 3), (5, 1), (9, 0), (9, 1)]


@pytest.mark.parametrize("q,g", ENUMERATED)
def test_monic_family_matches_scalar_enumeration(q, g):
    # every index unranked at once, and again in shuffled order
    field = FIELDS[q]
    triples = scalar_monic_triples(field, g)
    assert biquad.family_size(field, g) == len(triples)
    polys, rows, twists = biquad.member_rows(field, g, biquad.MONIC, range(len(triples)))
    assert [tuple(polys[i] for i in row) for row in rows] == [(t.f1, t.f2, t.f3) for t in triples]
    assert (twists == 1).all()
    assert np.array_equal(rows, oracle.outer_and_family(field, g).rows)
    shuffled = np.random.default_rng(q + g).permutation(len(triples))
    assert np.array_equal(biquad.member_rows(field, g, biquad.MONIC, shuffled)[1], rows[shuffled])
    for i in (0, len(triples) // 2, len(triples) - 1):
        assert biquad.family_member(field, g, biquad.MONIC, i) == triples[i]


@pytest.mark.parametrize("q,g", ENUMERATED)
def test_full_family_matches_scalar_enumeration(q, g):
    # monic member t with f1, f2 scaled by each (c1, c2) in turn: every
    # index as rows and twists, some 5000 as polynomials
    field = FIELDS[q]
    triples = scalar_monic_triples(field, g)
    grid = [(c1, c2) for c1 in range(1, q) for c2 in range(1, q)]
    size = biquad.family_size(field, g, biquad.FULL)
    assert size == len(grid) * len(triples)
    polys, rows, twists = biquad.member_rows(field, g, biquad.FULL, range(size))
    assert np.array_equal(rows, np.repeat(oracle.outer_and_family(field, g).rows, len(grid), axis=0))
    assert np.array_equal(twists, np.tile(grid, (len(triples), 1)))
    picked = range(0, size, max(1, size // 5000))
    want = []
    for i in picked:
        t, (c1, c2) = triples[i // len(grid)], grid[i % len(grid)]
        want.append((t.f1.scale(c1), t.f2.scale(c2), t.f3))
    assert list(biquad.member_polys(field, g, biquad.FULL, picked)) == want
    assert biquad.family_member(field, g, biquad.FULL, picked[-1]) == biquad.CurveTriple(
        *want[-1], biquad.FULL)


@pytest.mark.parametrize("q,g,n", [(3, g, n) for g in (0, 1, 2) for n in (1, 2, 3, 4)]
                         + [(9, 0, 1), (9, 0, 2)])
def test_family_totals_match_scalar_scan(q, g, n):
    field = FIELDS[q]
    assert moments._family_totals(field, g, n) == scalar_family_totals(field, g, n)


@settings(max_examples=30, deadline=None)
@given(q=st.sampled_from([3, 5, 7, 9]), g=st.integers(0, 3), n=st.integers(1, 4),
       deg=st.integers(1, 3), index=st.integers(0, 10 ** 6))
@example(q=5, g=3, n=4, deg=2, index=3).via("the largest prime-field cell")
@example(q=7, g=2, n=4, deg=3, index=7).via("the largest cell at q = 7")
@example(q=9, g=1, n=4, deg=3, index=100).via("the largest prime-power cell")
def test_pair_weight_sums_match_the_row_scans(q, g, n, deg, index):
    # q = 7 only up to genus 2, q = 9 up to genus 1; P is a random prime of
    # degree 1 to 3.  The prime-count series (the prime-sum form, the
    # fixed-prime and N_{k1,k2} sums) against the member-row scans too
    field = FIELDS[q]
    g = min(g, {7: 2, 9: 1}.get(q, g))
    primes = ffpoly.primes(field, deg)
    P = primes[index % len(primes)]
    assert biquad.family_size(field, g) == len(oracle.outer_and_family(field, g).rows)
    assert moments._family_totals(field, g, n) == oracle.row_scan_totals(field, g, n)
    if n % 2 == 0:
        assert moments._family_totals(field, g, n)[4] == n * oracle.row_scan_prime_form(field, g, n)
    assert (moments.fixed_prime_family_sum(field, g, P)
            == oracle.row_scan_fixed_prime_sum(field, g, P))
    assert moments.nkk_sums_all(field, P, g + 3) == oracle.mask_loop_nkk_sums_all(field, P, g + 3)


MEMBER_FREE = ((moments, "_family_totals"), (moments, "fixed_prime_family_sum"), (moments, "nkk_sums_all"),
               (biquad, "family_size"))


UNRANKING = ("_unrank", "member_rows", "member_polys", "family_member", "enumerate_family")


@pytest.mark.parametrize("module,name", MEMBER_FREE, ids=[name for _, name in MEMBER_FREE])
def test_member_free_sums_name_no_member_rows(module, name):
    tree = ast.parse(inspect.getsource(getattr(module, name)).lstrip())
    for node in ast.walk(tree):
        assert not (isinstance(node, ast.Attribute) and node.attr in UNRANKING)
        assert not (isinstance(node, ast.Name) and node.id in UNRANKING)


def test_member_free_sums_build_no_member_rows(monkeypatch):
    def refuse(field, g, variant, index):
        raise AssertionError("members unranked")

    field, g, P = GF(5), 2, ffpoly.primes(GF(5), 2)[3]
    want = (oracle.row_scan_totals(field, g, 4), oracle.row_scan_prime_form(field, g, 4),
            oracle.row_scan_fixed_prime_sum(field, g, P),
            len(oracle.outer_and_family(field, g).rows))
    moments._family_totals.cache_clear()
    monkeypatch.setattr(biquad, "member_rows", refuse)
    totals = moments._family_totals(field, g, 4)
    got = (totals, totals[4] // 4, moments.fixed_prime_family_sum(field, g, P), biquad.family_size(field, g))
    assert got == want
    moments.nkk_sums_all(field, P, g + 3)


@pytest.mark.parametrize("q,g,n", [(3, 2, 4), (5, 1, 2), (9, 1, 4)])
def test_prime_count_side_reads_no_column_gram_or_pair_weight(monkeypatch, q, g, n):
    # the family totals read prime counts and the series alone: no orbit
    # column, family polynomial or pair weight, so the pair weights'
    # family size stays an independent check
    def refuse(*args):
        raise AssertionError("the totals read the family's tables")

    field = FIELDS[q]
    want = oracle.row_scan_totals(field, g, n)
    for name in ("orbit_columns", "family_polys", "pair_weights", "pair_weight", "coprime_mask"):
        monkeypatch.setattr(biquad, name, refuse)
    moments._family_totals.cache_clear()
    assert moments._family_totals(field, g, n) == want


def test_pair_weights_that_disagree_raise(monkeypatch):
    true_weight = biquad.pair_weight

    def off_by_one(field, da, db, dc):
        W = true_weight(field, da, db, dc).copy()
        if (da, db, dc) == (0, 1, 2):
            W[0, 0] += 1
        return W

    # one W12 block per pattern: the family size of its totals is checked
    # against the trivial vector's series, which reads no pair weight
    biquad.pair_weights.cache_clear()
    biquad.family_size.cache_clear()
    monkeypatch.setattr(biquad, "pair_weight", off_by_one)
    try:
        with pytest.raises(InvariantError, match="the series counts 144 members, the pair weights 145"):
            moments.average_trace(GF(3), 1, 2, biquad.MONIC)
    finally:
        biquad.pair_weights.cache_clear()
        biquad.family_size.cache_clear()


def test_unranking_checks_each_pair_count_against_its_weight(monkeypatch):
    # one coprimality entry flipped after the weights are built: member 0,
    # of pair (1, X) in the first pattern (0, 1, 2), then finds one third
    # polynomial fewer than its weight counts
    field, g = GF(3), 1
    biquad.family_size(field, g)
    true_mask = biquad.coprime_mask

    def flipped(field, da, db):
        mask = true_mask(field, da, db).copy()
        if (da, db) == (1, 2):
            mask[0, np.argmax(mask[0])] = False
        return mask

    monkeypatch.setattr(biquad, "coprime_mask", flipped)
    assert list(biquad.pair_weights(field, g))[0] == (0, 1, 2)
    with pytest.raises(InvariantError, match=r"pattern \(0, 1, 2\)"):
        biquad.member_rows(field, g, biquad.MONIC, [0])


@pytest.mark.parametrize("q,g", [(3, 1), (3, 4), (5, 2), (9, 1)])
def test_largest_pair_block_is_the_largest_weight_block(q, g):
    field = FIELDS[q]
    entries, (da, db) = biquad.largest_pair_block(field, g)
    sizes = [W.size for W in biquad.pair_weights(field, g).values()]
    assert entries == max(sizes)
    count = lambda d: len(biquad.squarefree_factors(field, d).codes)
    assert entries == count(da) * count(db)


def _peak_bytes(fn, *args):
    """The tracemalloc peak of fn(*args), which must raise."""
    tracemalloc.start()
    try:
        with pytest.raises(Exception) as raised:
            fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return raised.value, peak


def test_family_totals_refuse_before_building_chi_matrices():
    # at n = 15 the count vectors of the 956 576 primes of degree 15 (about
    # 370 MB with their blocks): refused before anything is built
    assert moments.family_totals_bytes(GF(3), 9, 15) > moments.TOTALS_BYTES_CAP
    exc, peak = _peak_bytes(moments._family_totals, GF(3), 9, 15)
    assert isinstance(exc, ValueError) and "over the cap" in str(exc)
    assert peak < 1 << 16
    # the largest runs of the baseline table stay under it, and so do n = 11
    # at genus 7 and n = 12 at genus 6, which the point-by-point sums
    # refused, q = 25, 27 at genus 2, n = 4, and genus 9 at n = 10..14,
    # whose counts read keys up to degree (n-1)//2 + 1 alone (at n = 11 the
    # residue tables of every prime of degree <= 10 came to some 400 MB)
    for q, g, n in ((5, 5, 4), (3, 8, 6), (3, 7, 11), (3, 6, 12), (25, 2, 4), (27, 2, 4),
                    *((3, 9, n) for n in range(10, 15))):
        assert moments.family_totals_bytes(ffpoly.field_of_order(q), g, n) <= moments.TOTALS_BYTES_CAP


def test_family_totals_name_a_genus_with_no_pattern():
    # genus -1 keeps no degree pattern: a ValueError naming the genus, not
    # max() of an empty sequence
    for fn in (moments.check_family_totals, moments._family_totals):
        with pytest.raises(ValueError, match="genus -1 has no kept degree pattern"):
            fn(GF(3), -1, 2)


def test_family_totals_refuse_n_past_the_sieve_cap():
    # the 2 690 010 primes of degree 16 at q = 3 need the sieve to degree
    # 16: refused before the sieve or any other table is built
    exc, peak = _peak_bytes(moments._family_totals, GF(3), 0, 16)
    assert isinstance(exc, ValueError) and "max_deg=16" in str(exc) and "over the cap" in str(exc)
    assert peak < 1 << 16
    assert moments._family_totals(GF(3), 0, 2) == oracle.row_scan_totals(GF(3), 0, 2)


def test_src_keeps_one_series_engine():
    # the parity series replaced the (D+1)^3 cube and the Gram route: the
    # cube is a test oracle now, and the totals read no orbit column
    src = pathlib.Path(moments.__file__).parent
    defined = {node.name for path in src.glob("*.py") for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not defined & {"triple_series", "_gram_pairs", "_generating_prime_sum"}
    tree = ast.parse(inspect.getsource(moments._family_totals.__wrapped__).lstrip())
    names = {node.attr if isinstance(node, ast.Attribute) else node.id
             for node in ast.walk(tree) if isinstance(node, (ast.Attribute, ast.Name))}
    assert "orbit_columns" not in names


def test_moments_runs_one_experiment_loop_on_one_block_per_pattern(monkeypatch):
    # the moments command maps theorem_experiment's rows and runs no
    # average of its own; the family size is checked in one place; and
    # the pair weights build the W12 block of each kept pattern alone
    tree = ast.parse(inspect.getsource(cli._cmd_moments))
    names = {node.attr if isinstance(node, ast.Attribute) else node.id
             for node in ast.walk(tree) if isinstance(node, (ast.Attribute, ast.Name))}
    assert not names & {"average_trace", "error_decomposition"}
    src = pathlib.Path(moments.__file__).parent
    assert sum(path.read_text().count("the series counts") for path in src.glob("*.py")) == 1
    built = []
    real = biquad.pair_weight

    def counted(field, da, db, dc):
        built.append((da, db, dc))
        return real(field, da, db, dc)

    biquad.pair_weights.cache_clear()
    biquad.family_size.cache_clear()
    monkeypatch.setattr(biquad, "pair_weight", counted)
    try:
        assert cli.main("moments --q 5 --genus 2 --n-max 4 --variant full --out".split()
                        + [os.devnull]) == cli.EXIT_OK
    finally:
        biquad.pair_weights.cache_clear()
        biquad.family_size.cache_clear()
    assert built == biquad.admissible_patterns(2)[0]


@pytest.mark.parametrize("variant", [biquad.MONIC, biquad.FULL])
@pytest.mark.parametrize("q,g", [(3, 2), (5, 1), (9, 1)])
def test_member_traces_match_curve_counts(monkeypatch, q, g, variant):
    # sampled members as sample mode reads them: index rows into the
    # family's polynomials, twists decoded from the index; five members
    # per scan block, so the last block is short
    field = FIELDS[q]
    size = biquad.family_size(field, g, variant)
    idx = np.sort(np.random.default_rng(q).choice(size, size=12, replace=False))
    polys, rows, twists = biquad.member_rows(field, g, variant, idx)
    members = [biquad.family_member(field, g, variant, int(i)) for i in idx]
    if variant == biquad.FULL:
        assert any(not m.f1.is_monic() for m in members)
    for n in (1, 2, 3):
        monkeypatch.setattr(ffpoly, "BLOCK_BYTES", 5 * field.q ** n)
        got = biquad.member_traces(field, n, polys, rows, twists).tolist()
        assert got == [biquad.curve_counts(m, n).T[n - 1] for m in members], n
        pointwise = oracle.pointwise_chi(field, n)
        assert got == [pointwise.triple_T(m.f1, m.f2, m.f3) for m in members], n


#: q -> (largest genus, largest n) of the orbit property: both classes of
#: q mod 4 (the reciprocity sign turns only for q = 3 mod 4), prime powers,
#: and n past the family's top degree g + 1, where the columns go by
#: reciprocity; the point oracle stays below some 10^8 member-points
ORBIT_GRID = {3: (2, 9), 5: (1, 5), 7: (1, 4), 9: (1, 4), 25: (0, 3), 27: (0, 3)}


@st.composite
def orbit_cells(draw):
    q = draw(st.sampled_from(sorted(ORBIT_GRID)))
    g_max, n_max = ORBIT_GRID[q]
    return q, draw(st.integers(0, g_max)), draw(st.integers(1, n_max)), draw(st.integers(0, 2 ** 32))


@settings(max_examples=30, deadline=None)
@given(cell=orbit_cells())
@example(cell=(3, 2, 9, 0)).via("reciprocity, q = 3 mod 4")
@example(cell=(27, 0, 3, 1)).via("reciprocity over a prime power, q = 3 mod 4")
@example(cell=(25, 0, 3, 2)).via("reciprocity over a prime power, q = 1 mod 4")
@example(cell=(9, 1, 4, 3)).via("direct and reciprocal degrees at q = 9")
def test_orbit_columns_match_the_point_oracle(cell):
    # the family totals, twisted members' traces and one curve's counts
    # from the monic primes of degree dividing n, against every point of
    # F_{q^n} (scalar_oracles' point engine)
    q, g, n, seed = cell
    field = ffpoly.field_of_order(q)
    assert moments._family_totals(field, g, n) == oracle.row_scan_totals(field, g, n)
    size = biquad.family_size(field, g, biquad.FULL)
    idx = np.sort(np.random.default_rng(seed).choice(size, size=min(size, 12), replace=False))
    polys, rows, twists = biquad.member_rows(field, g, biquad.FULL, idx)
    assert (twists != 1).any()
    want = oracle.point_traces(field, n, polys, rows, twists).tolist()
    assert biquad.member_traces(field, n, polys, rows, twists).tolist() == want
    member = biquad.family_member(field, g, biquad.FULL, int(idx[-1]))
    assert biquad.curve_counts(member, n).T == tuple(
        int(oracle.point_traces(field, k, polys, rows[-1:], twists[-1:])[0]) for k in range(1, n + 1))


# -- fixed-prime layer -------------------------------------------------------------


def scalar_nkk_sums_all(field, P, d, chi_of=None):
    if chi_of is None:
        chi_of = functools.lru_cache(maxsize=None)(lambda f: ffpoly.jacobi_symbol(f, P))
    out = {(a, b): 0 for a in (0, 1) for b in (0, 1)}
    sf = {e: ffpoly.enumerate_polys(field, e, "squarefree-monic") for e in range(d + 1)}
    for a in range(d + 1):
        for b in range(d - a + 1):
            c = d - a - b
            key = ((a + c) % 2, (b + c) % 2)
            for f1 in sf[a]:
                chi1 = chi_of(f1)
                for f2 in sf[b]:
                    if not ffpoly.poly_gcd(f1, f2).is_constant():
                        continue
                    chi12 = chi1 * chi_of(f2)
                    f12 = f1 * f2
                    for f3 in sf[c]:
                        if ffpoly.poly_gcd(f12, f3).is_constant():
                            out[key] += chi12
    return out


def nth_prime(q, deg, index):
    return ffpoly.primes(FIELDS[q], deg)[index]


#: q -> the largest total degree of the series property; the oracle's
#: (D+1)^3 cube stays small
SERIES_DEGREES = {3: 8, 5: 6, 7: 5, 9: 5, 25: 4, 27: 4}


@st.composite
def count_stacks(draw):
    """(q, D, counts): one to three count vectors, each splitting the
    pi_q(a) monic primes of every degree a <= width into chi = -1, 0, 1."""
    q = draw(st.sampled_from(sorted(SERIES_DEGREES)))
    D = draw(st.integers(0, SERIES_DEGREES[q]))
    width = draw(st.integers(0, D))
    vectors = []
    for _ in range(draw(st.integers(1, 3))):
        rows = []
        for a in range(1, width + 1):
            pi = ffpoly.prime_count_exact(q, a)
            minus = draw(st.integers(0, pi))
            zero = draw(st.integers(0, min(2, pi - minus)))
            rows.append((minus, zero, pi - minus - zero))
        vectors.append(rows)
    return q, D, np.array(vectors, dtype=np.int64).reshape(len(vectors), width, 3)


@settings(max_examples=60, deadline=None)
@given(stack=count_stacks())
@example(stack=(3, 8, np.array([[(0, 0, 3), (1, 1, 1), (4, 0, 4)]]))).via("odd g = 5 at q = 3")
@example(stack=(27, 4, np.array([[(13, 1, 13), (0, 0, 351)], [(27, 0, 0), (100, 2, 249)]]))).via(
    "two vectors at q = 27")
def test_parity_series_matches_the_triple_series(stack):
    # the kept-cell sums of genus D - 3, the four N_{k1,k2} parity classes
    # at every total degree and the one-variable coefficients against the
    # whole (D+1)^3 cube of the oracle
    q, D, counts = stack
    series, cube = moments.parity_series(counts, D), oracle.triple_series(q, counts, D)
    i, j, k = np.indices((D + 1,) * 3)
    for S, C in zip(series, cube):
        for d in range(D + 1):
            at = i + j + k == d
            want = {(k1, k2): int(C[at & ((i + k) % 2 == k1) & ((j + k) % 2 == k2)].sum())
                    for k1 in (0, 1) for k2 in (0, 1)}
            assert moments._parity_classes(S, d) == want, d
            assert (int(S[4, d]), int(S[5, d])) == (int(C[d, 0, 0]), int(C[0, 0, d])), d
        if D >= 3:
            kept = biquad.admissible_patterns(D - 3)[0]
            want = [sum(int(C[p[a], p[b], p[3 - a - b]]) for p in kept if (p[a] + p[b]) % 2 == 0 or not even)
                    for even in (False, True) for a, b in ((0, 1), (0, 2), (1, 2))]
            assert moments._kept_sums(S[None], D - 3)[0].tolist() == want


@pytest.mark.parametrize("q,deg,index,d_max", [
    (3, 1, 0, 6), (3, 2, 0, 6), (3, 3, 5, 6), (5, 2, 3, 4), (9, 1, 4, 3), (9, 2, 7, 3),
])
def test_nkk_sums_all_matches_gcd_enumeration(q, deg, index, d_max):
    field = FIELDS[q]
    P = nth_prime(q, deg, index)
    for d in range(d_max + 1):
        assert moments.nkk_sums_all(field, P, d) == scalar_nkk_sums_all(field, P, d), d


@pytest.mark.parametrize("q,d_max", [(3, 5), (9, 3)])
def test_nkk_census_matches_gcd_enumeration(q, d_max):
    # the census is the series with every prime at +1
    field = FIELDS[q]
    one = lambda f: 1
    for d in range(d_max + 1):
        assert oracle.series_census(field, d) == scalar_nkk_sums_all(field, None, d, chi_of=one), d


def literal_h_value(kind, P, u, M):
    u = Fraction(u)
    value = Fraction(1)
    for d in range(1, M + 1):
        ud, u2d = u ** d, u ** (2 * d)
        for Q in ffpoly.primes(P.field, d):
            chi_p = ffpoly.jacobi_symbol(Q, P)
            chi_m = -chi_p if d % 2 else chi_p
            if kind == "zero":
                s = chi_p + chi_m
                value *= (1 + s * ud - (1 + s) * u2d) * (1 - chi_p * ud) * (1 - chi_m * ud)
            else:
                c = chi_p if kind == "plus" else chi_m
                value *= (1 + 2 * c * ud - (1 + 2 * c) * u2d) * (1 - c * ud) ** 2
    return value


@pytest.mark.parametrize("q,deg,index,M_max", [(3, 2, 0, 6), (3, 1, 0, 6), (9, 2, 7, 3)])
def test_h_value_matches_per_prime_fractions(q, deg, index, M_max):
    P = nth_prime(q, deg, index)
    for M in range(1, M_max + 1):
        for u in (Fraction(1, q), Fraction(-1, q)):
            for kind in eulerprod.KINDS:
                assert eulerprod.h_value(kind, P, u, M) == literal_h_value(kind, P, u, M), (M, u, kind)


@pytest.mark.parametrize("q,deg,index,M", [
    pytest.param(3, 1, 0, 5, id="1"), pytest.param(3, 2, 0, 5, id="2"),
    pytest.param(9, 2, 7, 3, id="q9"),
])
def test_c_constants_match_literal_formula(q, deg, index, M):
    P = nth_prime(q, deg, index)
    blocks = moments.c_blocks(P, M)
    if q == 9:
        # a reduced block denominator can be an odd power of 3, which
        # divides a power of 9 without being one
        exps = [round(math.log(b.denominator, 3)) for b in blocks.values()]
        assert all(3 ** e == b.denominator for e, b in zip(exps, blocks.values()))
        assert any(e % 2 for e in exps)
    t1 = blocks["L_plus"] ** 2 * blocks["H_plus"]
    t2 = blocks["L_minus"] ** 2 * blocks["H_minus"]
    t3 = blocks["L_plus"] * blocks["L_minus"] * blocks["H_zero"]
    for d in (4, 5):
        for k1 in (0, 1):
            for k2 in (0, 1):
                literal = t1 + (-1) ** (k1 + k2) * t2 + (-1) ** d * ((-1) ** k1 + (-1) ** k2) * t3
                assert moments.c_constant_kk(P, d, k1, k2, M) == literal, (d, k1, k2)
    for g in (1, 2):
        literal = (Fraction(q + 3, q) * t1 + Fraction(q - 1, q) * t2
                   - 2 * (-1) ** g * Fraction(q + 1, q) * t3)
        assert moments.c_constant_g(P, g, M) == literal


@pytest.mark.parametrize("q,M_max", [(3, 6), (5, 3), (9, 3)])
def test_lemma61_float_matches_the_public_fraction(q, M_max):
    for deg in (1, 2, 3):
        P = nth_prime(q, deg, 0)
        for M in range(1, M_max + 1):
            for d in range(9):
                for k1 in (0, 1):
                    for k2 in (0, 1):
                        want = float(moments.c_constant_kk(P, d, k1, k2, M) / 4 * q ** d)
                        assert moments.predicted_nkk(P, d, k1, k2, M) == want, (P, M, d, k1, k2)


@pytest.mark.parametrize("deg", [1, 2, 3])
def test_lemma61_cli_prints_the_public_fraction_float(capsys, deg):
    P, M = nth_prime(3, deg, 0), 6
    assert cli.main(["lemma61", "--q", "3", "--prime", str(P), "--d-max", "8", "--M", str(M)]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 9 * 4
    for row in rows:
        d, k1, k2 = int(row["d"]), int(row["k1"]), int(row["k2"])
        assert float(row["predicted"]) == float(moments.c_constant_kk(P, d, k1, k2, M) / 4 * 3 ** d)


@settings(max_examples=40, deadline=None)
@given(q=st.sampled_from([3, 5, 9]), d=st.integers(0, 8),
       e_bits=st.one_of(st.integers(0, 25), st.integers(0, 200_000)),
       excess=st.one_of(st.integers(-1100, 1100), st.integers(-200_000, 200_000)),
       seed=st.integers(0, 2 ** 32), negative=st.booleans())
def test_unreduced_division_rounds_as_the_reduced_fraction(q, d, e_bits, excess, seed, negative):
    # num / q^e with num up to 2 10^5 bits and q^e on both sides of q^d;
    # excess near 0 gives finite floats, beyond +-1024 overflow and underflow
    e = int(e_bits / math.log2(q))
    bits = min(200_000, max(0, e_bits + excess))
    num = random.Random(seed).getrandbits(bits) * (-1 if negative else 1)

    def outcome(fn):
        try:
            return fn()
        except OverflowError:
            return OverflowError

    assert (outcome(lambda: moments._scaled_float(num, q, e, d))
            == outcome(lambda: float(Fraction(num, q ** e) / 4 * q ** d)))


def per_prime_fraction_sum(kind, field, n, M):
    # each truncated product from the literal local factors at u = 1/q
    u = Fraction(1, field.q)
    return sum(eulerprod.prod_fractions(eulerprod.local_factor(kind, P, Q, u)
                                        for d in range(1, M + 1) for Q in ffpoly.primes(field, d))
               for P in ffpoly.primes(field, n))


@pytest.mark.parametrize("q,n,M", [(3, 1, 4), (3, 2, 5), (3, 3, 5), (5, 2, 3), (9, 1, 2), (9, 2, 2)])
def test_prime_sum_matches_per_prime_fraction_sum(q, n, M):
    field = FIELDS[q]
    for kind in eulerprod.KINDS:
        r = eulerprod.prime_sum(kind, field, n, M)
        value = per_prime_fraction_sum(kind, field, n, M)
        assert r.value == value, kind
        # the valuation-reduced pair is the reduced fraction: coprime, and
        # its denominator a power of p
        assert math.gcd(r.num, r.den) == 1, kind
        assert oracle.p_valuation_by_division(r.den, field.p, r.den)[1] == 1, kind
        assert r.scaled_gap == abs(float(value - r.reference)) * n / q ** (n / 2), kind


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from([3, 5, 7, 101]), v=st.integers(0, 3000),
       unit=st.integers(1, 2 ** 64), cap=st.one_of(st.integers(0, 40), st.integers(0, 4000)),
       negative=st.booleans())
@example(p=3, v=1744, unit=2, cap=4000, negative=False)
@example(p=3, v=1744, unit=2, cap=1744, negative=False)
@example(p=3, v=1744, unit=2, cap=1743, negative=False)
@example(p=3, v=0, unit=1, cap=0, negative=False)
@example(p=5, v=7, unit=5 ** 3, cap=9, negative=True)
def test_p_valuation_matches_division_loop(p, v, unit, cap, negative):
    # v_p capped at cap, against dividing p out one factor at a time
    n = unit * p ** v * (-1 if negative else 1)
    assert eulerprod.p_valuation(n, p, cap) == oracle.p_valuation_by_division(n, p, cap)


def test_prime_sum_refuses_a_non_positive_numerator(monkeypatch):
    # every local numerator is positive, so a total <= 0 is an invariant failure
    monkeypatch.setattr(eulerprod, "_local_terms", lambda *args: (0, 0, 0))
    with pytest.raises(InvariantError, match="not positive"):
        eulerprod.prime_sum("plus", FIELDS[3], 1, 2)
