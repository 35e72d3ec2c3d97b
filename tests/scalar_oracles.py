"""Scalar reference implementations of the batched residue-table paths.

Each function here is the plain ffpoly computation a batched path in
src/ffstat replaces: trial-division and reciprocity over Poly objects,
with no tables.  They are slow and independent of _tables, which is what
makes them oracles.
"""

import functools

import numpy as np

from ffstat import ffpoly
from ffstat.ffpoly import Poly


@functools.lru_cache(maxsize=None)
def prime_list(field, d):
    """Monic primes of degree d via an Eratosthenes-style sieve on codes:
    every product of a lower-degree prime with a monic is crossed out."""
    q = field.q
    if d == 1:
        return tuple(Poly(field, (c, 1)) for c in range(q))
    composite = bytearray(q ** d)
    for a in range(1, d // 2 + 1):
        for p in prime_list(field, a):
            for m in ffpoly.monic_polys(field, d - a):
                composite[(p * m).monic_code()] = 1
    return tuple(Poly.monic_from_code(field, d, code) for code in range(q ** d)
                 if not composite[code])


def chi_rows(polys, primes):
    """int8 rows chi_P(f) over polys, one per P in primes, by reciprocity
    (the rows of moments._chi_rows)."""
    return [np.array([ffpoly.jacobi_symbol(f, P) for f in polys], dtype=np.int8)
            for P in primes]


def chi_plain_rows(P, max_deg):
    """Row d-1 holds (Q/P) over the monic primes Q of degree d, by
    reciprocity over the scalar sieve (eulerprod.chi_plain_rows)."""
    return tuple(np.array([ffpoly.jacobi_symbol(Q, P) for Q in prime_list(P.field, d)],
                          dtype=np.int8)
                 for d in range(1, max_deg + 1))


def double_char_total(field, d, n):
    """sum over square-free monic D of degree d and monic primes P of
    degree n of (P/D): the integer behind moments.double_char_sum."""
    return sum(ffpoly.jacobi_symbol(Pr, D)
               for D in ffpoly.enumerate_polys(field, d, "squarefree-monic")
               for Pr in prime_list(field, n))


def trial_factors(f):
    """The prime factors of a monic square-free f by trial division against
    the scalar sieve, ascending by degree and code."""
    out = []
    d = 1
    while f.degree >= 1:
        if 2 * d > f.degree:
            out.append(f)
            break
        for p in prime_list(f.field, d):
            if (f % p).is_zero():
                f = f // p
                out.append(p)
        d += 1
    return out


def squarefree_factors(field, d):
    """(polys, factor sets) for the square-free monic polynomials of degree
    d: each set holds the (degree, code) keys of the polynomial's prime
    factors (the factors behind biquad.squarefree_masks)."""
    polys = tuple(ffpoly.enumerate_polys(field, d, "squarefree-monic"))
    factors = [frozenset((int(p.degree), p.monic_code()) for p in trial_factors(f))
               for f in polys]
    return polys, factors


def prime_char_sum(D, n):
    """sum over the monic primes P of degree n of (P/D), over the scalar
    sieve."""
    return sum(ffpoly.jacobi_symbol(P, D) for P in prime_list(D.field, n))
