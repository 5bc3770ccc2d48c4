"""Helpers that several test modules share and the package itself does not use.

``regular_hexagon`` builds the regular shape from its gaps, and
``rational_reconstruct`` recovers a fraction from a float within a chosen
tolerance, the looser cousin of ``analysis.stable_dsq_rational``.
"""

import math
from fractions import Fraction

from hexcoloring.geometry import Hexagon, hexagon_from_gaps


def regular_hexagon() -> Hexagon:
    return hexagon_from_gaps(math.pi / 3.0, math.pi / 3.0)


def rational_reconstruct(x: float, max_den: int, tol: float = 1e-9):
    """Closest fraction to ``x`` with denominator at most ``max_den``.

    Returns (num, den) in lowest terms when that fraction lies within
    ``tol`` of x, else None.  The comparison is exact (no float rounding).
    """
    if not math.isfinite(x) or max_den < 1:
        return None
    exact = Fraction(x)
    frac = exact.limit_denominator(max_den)
    if abs(exact - frac) <= Fraction(tol):
        return (frac.numerator, frac.denominator)
    return None
