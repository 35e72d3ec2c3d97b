"""Scalar oracles for the index-row family and its numpy scan.

The oracle enumeration tests coprimality with poly_gcd and builds a
validated CurveTriple per member; the oracle scan sums ChiCache pair
sums member by member.  Both are the straightforward definitions the
fast paths in biquad.monic_family and moments._family_totals replace.
"""

import functools

import numpy as np
import pytest

from ffstat import biquad, ffpoly, moments
from ffstat.ffpoly import GF

FIELDS = {3: GF(3), 5: GF(5), 9: GF(3, 2)}


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
    cache = biquad.chi_cache(field, n)
    even = n % 2 == 0
    if even:
        half = biquad.chi_cache(field, n // 2)
        gen_mask = np.ones(cache.ext.order, dtype=bool)
        for d in range(1, n):
            if n % d == 0:
                gen_mask &= ~cache.ext.subfield_mask(d)
    s_all = s12_tot = roots_tot = bil_tot = gen_tot = 0
    for t in scalar_monic_triples(field, g):
        s13 = cache.pair_sum(t.f1, t.f3)
        s23 = cache.pair_sum(t.f2, t.f3)
        s12 = cache.pair_sum(t.f1, t.f2)
        s_all += s13 + s23 + s12
        s12_tot += s12
        if even:
            v = cache.chi(t.f1)[0] * cache.chi(t.f2)[0]
            zeros_half = sum(int(np.count_nonzero(half.chi(f)[0] == 0))
                             for f in (t.f1, t.f2))
            deg12 = int(t.f1.degree) + int(t.f2.degree)
            roots_tot += zeros_half + (deg12 % 2) - 1
            s12_fin = s12 - cache.chi_inf_product(t.f1, t.f2)
            bil_tot += s12_fin - (field.q ** (n // 2) - zeros_half)
            gen_tot += int(v[gen_mask].sum(dtype=np.int64))
    return s_all, s12_tot, roots_tot, bil_tot, gen_tot


@pytest.mark.parametrize("q,g", [(3, 0), (3, 1), (3, 2), (3, 3), (5, 1), (9, 0), (9, 1)])
def test_monic_family_matches_scalar_enumeration(q, g):
    field = FIELDS[q]
    oracle = scalar_monic_triples(field, g)
    fam = biquad.monic_family(field, g)
    assert fam.rows.shape == (len(oracle), 3)
    got = [tuple(fam.polys[i] for i in row) for row in fam.rows]
    assert got == [(t.f1, t.f2, t.f3) for t in oracle]
    assert biquad.family_size(field, g) == len(oracle)
    for i in (0, len(oracle) // 2, len(oracle) - 1):
        assert biquad.family_member(field, g, biquad.MONIC, i) == oracle[i]


@pytest.mark.parametrize("q,g,n", [(3, g, n) for g in (0, 1, 2) for n in (1, 2, 3, 4)]
                         + [(9, 0, 1), (9, 0, 2)])
def test_family_totals_match_scalar_scan(q, g, n):
    field = FIELDS[q]
    assert moments._family_totals(field, g, n) == scalar_family_totals(field, g, n)
