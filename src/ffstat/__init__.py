"""Trace-of-Frobenius statistics for biquadratic curve families over F_q[X]."""

from . import biquad, eulerprod, ffpoly, lfunc, moments
from .errors import InvariantError
from .ffpoly import GF, ExtensionField, FiniteField, Poly

__version__ = "0.1.0"

__all__ = [
    "GF",
    "ExtensionField",
    "FiniteField",
    "InvariantError",
    "Poly",
    "biquad",
    "eulerprod",
    "ffpoly",
    "lfunc",
    "moments",
]
