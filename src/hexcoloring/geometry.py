"""Centrally symmetric unit-diameter hexagons, their doubled frame and the one gap kernel.

Every hexagon handled here is convex, centrally symmetric about the origin,
and inscribed in a circle of diameter 1, so each of its three long diagonals
has unit length and opposite edges are parallel.  A shape is pinned down by
two angular gaps (gap1, gap2) between consecutive vertex directions on the
circumscribed circle; the third gap is pi - gap1 - gap2.  The middle vertex
direction is fixed at pi/2, which makes equal-gap shapes mirror symmetric
about the y axis.

Shape classes, each nested in the next:

* regular      gap1 = gap2 = pi/3
* semi_regular gap1 = gap2
* rectilinear  any valid gap pair

The gap between two tiles of a shape is the distance from their offset to
the tile doubled about its centre: ``frame`` builds that doubled hexagon and
the tiling's basis, and ``hexagon_gap`` is the one distance kernel.  The
doubled hexagon is inscribed in the unit circle and v[m + 3] = -v[m]
exactly, so each edge's outward normal points along its midpoint, and a
point on v0's side of the chord from v5 to v2 has its nearest boundary point
on edge 0, 1 or 2; it lies inside exactly when it lies inside those three.
The kernel folds a point on the other side onto its negation and measures
those three edges only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

Point = tuple[float, float]

REGULAR = "regular"
SEMI_REGULAR = "semi_regular"
RECTILINEAR = "rectilinear"
CLASS_TAGS = (REGULAR, SEMI_REGULAR, RECTILINEAR)

# degeneracy margin: gaps must stay this far from 0 and from summing to pi
EPS_GEOM = 1e-9


class DomainError(ValueError):
    """An argument lies outside an operation's domain."""


@dataclass(frozen=True)
class Hexagon:
    """Immutable hexagon shape.

    vertices are listed counterclockwise; vertex m+3 is the negation of
    vertex m.  r is the edge length sin(gap3/2) and s is sin(gap1/2).
    """

    gaps: tuple[float, float]
    vertices: tuple[Point, Point, Point, Point, Point, Point]
    r: float
    s: float


def gaps_valid(gap1: float, gap2: float) -> bool:
    """Whether all three gaps, gap3 = pi - gap1 - gap2 included, exceed EPS_GEOM."""
    return gap1 > EPS_GEOM and gap2 > EPS_GEOM and gap1 + gap2 < math.pi - EPS_GEOM


def hexagon_from_gaps(gap1: float, gap2: float) -> Hexagon:
    """Build the hexagon with the given angular gaps.

    The three vertex directions in the upper half plane are
    pi/2 - gap1, pi/2 and pi/2 + gap2; the remaining vertices are their
    negations.  Raises DomainError unless gap1 > 0, gap2 > 0 and
    gap1 + gap2 < pi, all with margin EPS_GEOM.
    """
    if not gaps_valid(gap1, gap2):
        if gap1 > EPS_GEOM and gap2 > EPS_GEOM:
            raise DomainError(f"gap1 + gap2 must stay below pi: got {gap1 + gap2}")
        raise DomainError(f"gaps must exceed {EPS_GEOM}: got ({gap1}, {gap2})")
    vx, vy, *_ = frame(gap1, gap2)
    verts = tuple((x * 0.5, y * 0.5) for x, y in zip(vx, vy))
    gap3 = math.pi - gap1 - gap2
    return Hexagon(
        gaps=(gap1, gap2),
        vertices=verts,
        r=math.sin(gap3 / 2.0),
        s=math.sin(gap1 / 2.0),
    )


def frame(g1, g2, sin=math.sin, cos=math.cos):
    """The doubled hexagon and the tiling's basis at shape (g1, g2).

    Returns (vx, vy, eix, eiy, ejx, ejy): the vertices of the hexagon doubled
    about its centre, on the unit circle and counterclockwise, and the lattice
    vectors e_i = v0 - v2 and e_j = v0 + v1 of the undoubled tile.  This is
    the ``frame`` argument of ``coloring.min_gap``.  With NumPy's sin and cos
    it takes arrays of shapes.
    """
    s1 = sin(g1)
    c1 = cos(g1)
    s2 = sin(g2)
    c2 = cos(g2)
    vx = (s1, 0.0, -s2, -s1, 0.0, s2)
    vy = (c1, 1.0, c2, -c1, -1.0, -c2)
    eix = (s1 + s2) * 0.5
    eiy = (c1 - c2) * 0.5
    ejx = s1 * 0.5
    ejy = (c1 + 1.0) * 0.5
    return vx, vy, eix, eiy, ejx, ejy


def hexagon_gap(px: float, py: float, vx, vy) -> tuple[float, int, float]:
    """Distance from (px, py) to the convex hexagon with vertices (vx[m], vy[m]).

    The six vertices run counterclockwise on the unit circle, and v[m + 3] =
    -v[m], as ``frame`` gives them.  Returns (gap, m, t): the distance, and
    the nearest boundary point v[m - 1] + t (v[m] - v[m - 1]) as its edge m
    and its position t, clamped to [0, 1].  Points inside the hexagon or on
    its boundary have gap 0.0; a boundary point's (m, t) names the point
    itself, and an inner point's names the nearest point of the three edges
    that are measured.

    Only three edges are measured, after a fold.  Each edge is a chord of the
    unit circle, so its outward normal points along its midpoint, and a point
    on v0's side of the chord from v5 to v2 = -v5 has its nearest boundary
    point on edge 0, 1 or 2; it lies inside exactly when it lies inside
    those three edges.  A point on the other side is replaced by -p, which
    by central symmetry lies as far from the hexagon, and its edge m by edge
    m + 3 at the same t.
    """
    fold = vx[5] * py - vy[5] * px < 0.0
    if fold:
        px = -px
        py = -py
    inside = True
    best = math.inf
    ax = vx[5]
    ay = vy[5]
    for m in range(3):
        bx = vx[m]
        by = vy[m]
        ex = bx - ax
        ey = by - ay
        dx = px - ax
        dy = py - ay
        if ex * dy - ey * dx < 0.0:
            inside = False
        t = (dx * ex + dy * ey) / (ex * ex + ey * ey)
        if t < 0.0:
            t = 0.0
        elif t > 1.0:
            t = 1.0
        qx = dx - t * ex
        qy = dy - t * ey
        d2 = qx * qx + qy * qy
        if d2 < best:
            best = d2
            near = m
            near_t = t
        ax = bx
        ay = by
    return 0.0 if inside else math.sqrt(best), near + 3 * fold, near_t
