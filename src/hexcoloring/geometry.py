"""Centrally symmetric unit-diameter hexagons and the point-to-hexagon distance.

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
_TAG_TOL = 1e-12


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
    class_tag: str
    r: float
    s: float

    def rotated(self, angle: float) -> "Hexagon":
        """Same shape with all vertices rotated by ``angle`` radians."""
        c, s = math.cos(angle), math.sin(angle)
        verts = tuple((x * c - y * s, x * s + y * c) for x, y in self.vertices)
        return Hexagon(self.gaps, verts, self.class_tag, self.r, self.s)


def _class_tag(gap1: float, gap2: float) -> str:
    third = math.pi / 3.0
    if abs(gap1 - third) <= _TAG_TOL and abs(gap2 - third) <= _TAG_TOL:
        return REGULAR
    if abs(gap1 - gap2) <= _TAG_TOL:
        return SEMI_REGULAR
    return RECTILINEAR


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
    u1 = (math.sin(gap1) / 2.0, math.cos(gap1) / 2.0)
    u2 = (0.0, 0.5)
    u3 = (-math.sin(gap2) / 2.0, math.cos(gap2) / 2.0)
    verts = (u1, u2, u3, (-u1[0], -u1[1]), (0.0, -0.5), (-u3[0], -u3[1]))
    gap3 = math.pi - gap1 - gap2
    return Hexagon(
        gaps=(gap1, gap2),
        vertices=verts,
        class_tag=_class_tag(gap1, gap2),
        r=math.sin(gap3 / 2.0),
        s=math.sin(gap1 / 2.0),
    )


def point_to_hexagon_distance(px: float, py: float, vx, vy) -> float:
    """Distance from (px, py) to the convex hexagon with vertices (vx[m], vy[m]).

    The six vertices run counterclockwise.  Points inside the hexagon or on
    its boundary are at distance 0.
    """
    inside = True
    best = math.inf
    ax = vx[5]
    ay = vy[5]
    for m in range(6):
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
        ax = bx
        ay = by
    return 0.0 if inside else math.sqrt(best)
