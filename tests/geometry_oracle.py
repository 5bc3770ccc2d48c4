"""Independent geometry oracle for the tests: polygon-to-polygon distance and area.

The package measures gaps as point-to-doubled-hexagon distances.  These
helpers measure them the long way, edge pair by edge pair, so the tests can
check the package's route against a second one.  Polygons are Hexagon
instances or plain counterclockwise vertex sequences.
"""

import math

Point = tuple[float, float]
Segment = tuple[Point, Point]


def _point_segment_dist2(px: float, py: float, a: Point, b: Point) -> float:
    ax, ay = a
    ex, ey = b[0] - ax, b[1] - ay
    dx, dy = px - ax, py - ay
    ee = ex * ex + ey * ey
    if ee <= 1e-30:
        return dx * dx + dy * dy
    t = (dx * ex + dy * ey) / ee
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    qx, qy = dx - t * ex, dy - t * ey
    return qx * qx + qy * qy


def _orient(a: Point, b: Point, c: Point) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def segment_distance(a: Segment, b: Segment) -> float:
    """Euclidean distance between two closed segments (0 if they meet)."""
    p1, p2 = a
    q1, q2 = b
    d1 = _orient(p1, p2, q1)
    d2 = _orient(p1, p2, q2)
    d3 = _orient(q1, q2, p1)
    d4 = _orient(q1, q2, p2)
    # proper crossing; touching/collinear cases are exact via the pointwise
    # minimum below, since then some endpoint lies on the other segment
    if d1 * d2 < 0.0 and d3 * d4 < 0.0:
        return 0.0
    best = min(
        _point_segment_dist2(q1[0], q1[1], p1, p2),
        _point_segment_dist2(q2[0], q2[1], p1, p2),
        _point_segment_dist2(p1[0], p1[1], q1, q2),
        _point_segment_dist2(p2[0], p2[1], q1, q2),
    )
    return math.sqrt(best)


def _vertices_of(poly) -> tuple[Point, ...]:
    return tuple(getattr(poly, "vertices", poly))


def convex_distance(p, q, offset: Point = (0.0, 0.0)) -> float:
    """Distance between convex polygon ``p`` and polygon ``q`` shifted by ``offset``.

    Computed as the minimum segment-to-segment distance over all edge pairs,
    skipping the remaining pairs once the running minimum cannot be beaten
    (the two circumscribed circles already overlap by at least that much).
    """
    vp = _vertices_of(p)
    vq = _vertices_of(q)
    ox, oy = offset
    vq = tuple((x + ox, y + oy) for x, y in vq)
    rp = max(math.hypot(x, y) for x, y in vp)
    rq = max(math.hypot(x - ox, y - oy) for x, y in vq)
    lower = math.hypot(ox, oy) - rp - rq
    if lower < 0.0:
        lower = 0.0
    best = math.inf
    np_, nq = len(vp), len(vq)
    for i in range(np_):
        ea = (vp[i], vp[(i + 1) % np_])
        for j in range(nq):
            d = segment_distance(ea, (vq[j], vq[(j + 1) % nq]))
            if d < best:
                best = d
                if best <= lower + 1e-15:
                    return best
    return best


def polygon_area(poly) -> float:
    """Unsigned area of a simple polygon (shoelace formula)."""
    verts = _vertices_of(poly)
    total = 0.0
    n = len(verts)
    for m in range(n):
        x0, y0 = verts[m]
        x1, y1 = verts[(m + 1) % n]
        total += x0 * y1 - x1 * y0
    return abs(total) / 2.0
