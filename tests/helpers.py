"""Helpers that several test modules share and the package itself does not use.

``regular_hexagon`` builds the regular shape from its gaps, and
``rational_reconstruct`` recovers a fraction from a float within a chosen
tolerance, the looser cousin of ``analysis.stable_dsq_rational``.
``rotated`` turns a hexagon's vertices, and ``doubled_frame`` builds
``coloring.min_gap``'s frame from the vertices, so that a rotated tiling can
be measured; ``geometry.frame`` builds it from the gaps alone.
``nearest_feature`` finds the vertex or edge nearest a point by its own
search, apart from ``geometry.hexagon_gap``.
"""

import math
from fractions import Fraction

from hexcoloring.coloring import lattice_basis
from hexcoloring.geometry import Hexagon, hexagon_from_gaps


def regular_hexagon() -> Hexagon:
    return hexagon_from_gaps(math.pi / 3.0, math.pi / 3.0)


def rotated(hexagon: Hexagon, angle: float) -> Hexagon:
    """Same shape with all vertices rotated by ``angle`` radians."""
    c, s = math.cos(angle), math.sin(angle)
    verts = tuple((x * c - y * s, x * s + y * c) for x, y in hexagon.vertices)
    return Hexagon(hexagon.gaps, verts, hexagon.class_tag, hexagon.r, hexagon.s)


def doubled_frame(hexagon: Hexagon) -> tuple:
    """(vx, vy, eix, eiy, ejx, ejy): ``hexagon``'s vertices doubled and its tiling's basis."""
    basis = lattice_basis(hexagon)
    vx = tuple(2.0 * x for x, _ in hexagon.vertices)
    vy = tuple(2.0 * y for _, y in hexagon.vertices)
    return (vx, vy, *basis.e_i, *basis.e_j)


def nearest_feature(px: float, py: float, vx, vy) -> tuple:
    """The vertex or edge of the hexagon (vx, vy) nearest (px, py), searched directly:
    ("vertex", m) for v[m], or ("edge", m) for the edge from v[m - 1] to v[m]."""
    best = None
    for m in range(6):
        ax, ay, bx, by = vx[m - 1], vy[m - 1], vx[m], vy[m]
        t = ((px - ax) * (bx - ax) + (py - ay) * (by - ay)) / ((bx - ax) ** 2 + (by - ay) ** 2)
        feature = ("vertex", (m - 1) % 6) if t <= 0 else ("vertex", m) if t >= 1 else ("edge", m)
        t = min(max(t, 0.0), 1.0)
        dist = math.hypot(px - ax - t * (bx - ax), py - ay - t * (by - ay))
        if best is None or dist < best[0]:
            best = (dist, feature)
    return best[1]


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
