"""Helpers that several test modules share and the package itself does not use.

``regular_hexagon`` builds the regular shape from its gaps, and
``rational_reconstruct`` recovers a fraction from a float within a chosen
tolerance, the looser cousin of ``analysis.stable_dsq_rational``.
``rotated`` turns a hexagon's vertices, and ``doubled_frame`` builds
``coloring.min_gap``'s frame from the vertices, so that a rotated tiling can
be measured; ``geometry.frame`` builds it from the gaps alone.
``nearest_feature`` finds the vertex or edge nearest a point by its own
search, apart from ``geometry.hexagon_gap``.  ``lattice_basis`` builds the
tiling's translation vectors from a hexagon's vertices, and ``class_tag``
names the narrowest shape class that a gap pair lies in.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from hexcoloring.geometry import (
    RECTILINEAR,
    REGULAR,
    SEMI_REGULAR,
    Hexagon,
    Point,
    hexagon_from_gaps,
)

# gaps within this of each other (or of pi / 3) count as equal in class_tag
_TAG_TOL = 1e-12


def regular_hexagon() -> Hexagon:
    return hexagon_from_gaps(math.pi / 3.0, math.pi / 3.0)


def rotated(hexagon: Hexagon, angle: float) -> Hexagon:
    """Same shape with all vertices rotated by ``angle`` radians."""
    c, s = math.cos(angle), math.sin(angle)
    verts = tuple((x * c - y * s, x * s + y * c) for x, y in hexagon.vertices)
    return Hexagon(hexagon.gaps, verts, hexagon.r, hexagon.s)


def class_tag(gap1: float, gap2: float) -> str:
    """The narrowest of the classes regular, semi-regular and rectilinear
    that the shape (gap1, gap2) lies in."""
    third = math.pi / 3.0
    if abs(gap1 - third) <= _TAG_TOL and abs(gap2 - third) <= _TAG_TOL:
        return REGULAR
    if abs(gap1 - gap2) <= _TAG_TOL:
        return SEMI_REGULAR
    return RECTILINEAR


@dataclass(frozen=True)
class LatticeBasis:
    e_i: Point
    e_j: Point

    def position(self, i: float, j: float) -> Point:
        return (
            i * self.e_i[0] + j * self.e_j[0],
            i * self.e_i[1] + j * self.e_j[1],
        )


def lattice_basis(hexagon: Hexagon) -> LatticeBasis:
    """Translation vectors of the tiling generated by ``hexagon``, from its vertices.

    e_i spans a row of edge-to-edge tiles; e_j steps to the next row.
    """
    v = hexagon.vertices
    return LatticeBasis(
        e_i=(v[0][0] - v[2][0], v[0][1] - v[2][1]),
        e_j=(v[0][0] + v[1][0], v[0][1] + v[1][1]),
    )


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
