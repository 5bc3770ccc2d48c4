"""The same-color offset window, and the minimum gap over a fixed offset list.

``tile_by_tile_window`` enumerates the |i| + j window of
``coloring.window_offsets`` one tile at a time, as the package first did, so the tests can check the
vectorised enumerator against it; with ``slack`` above 1 the window is
wider than the package's.  The package's ``coloring.min_gap`` covers
every same-colored tile; the other helpers take the minimum over a given
offset list instead, so the tests can compare the two, or the gap of one
offset at one shape.
"""

import math

from helpers import doubled_frame
from hexcoloring.coloring import TileIndex
from hexcoloring.geometry import frame, hexagon_gap


def window_radius(k: int, slack: int = 1) -> int:
    """Index window radius ceil(2 * sqrt(k)) + slack; slack 1 is ``coloring.window_offsets``'."""
    return math.isqrt(4 * k - 1) + 1 + slack


def half_plane_offsets(scheme, bound: int):
    """Same-colored offsets with |i| + j < bound, one per +/- pair: j > 0, or j = 0 with i > 0."""
    m = scheme.rows_step
    for j in range(0, bound, m):
        a = j // m
        lo = 1 if j == 0 else -(bound - 1 - j)
        hi = bound - 1 - j
        # smallest i >= lo with i = a * h (mod g)
        first = lo + (a * scheme.h - lo) % scheme.g
        for i in range(first, hi + 1, scheme.g):
            yield TileIndex(i, j)


def tile_by_tile_window(scheme, slack: int = 1) -> list:
    """The scheme's window with both generators (g, 0) and (h, k/g) added, sorted by (j, i)."""
    found = set(half_plane_offsets(scheme, window_radius(scheme.k, slack)))
    found.add(TileIndex(scheme.g, 0))
    found.add(TileIndex(scheme.h, scheme.rows_step))
    return sorted(found, key=lambda t: (t.j, t.i))


def offset_dist(g1: float, g2: float, i: int, j: int) -> float:
    """Offset (i, j)'s gap at shape (g1, g2), straight from the distance kernel."""
    vx, vy, eix, eiy, ejx, ejy = frame(g1, g2)
    return hexagon_gap(i * eix + j * ejx, i * eiy + j * ejy, vx, vy)[0]


def min_offset_distance(offsets, frame) -> float:
    """Smallest gap between the base tile and the tiles at ``offsets``.

    ``frame`` is ``coloring.min_gap``'s: the vertices of the tile doubled
    about its center, and the tiling's basis.  Offsets with |c| >= best + 1
    are skipped, since the doubled tile fits in the unit circle.
    """
    vx, vy, eix, eiy, ejx, ejy = frame
    best = lim = 1e300
    for i, j in offsets:
        cx = i * eix + j * ejx
        cy = i * eiy + j * ejy
        # the doubled hexagon fits in the unit circle: d >= |c| - 1
        if cx * cx + cy * cy >= lim:
            continue
        d = hexagon_gap(cx, cy, vx, vy)[0]
        if d < best:
            best = d
            lim = (best + 1.0) * (best + 1.0)
    return best


def min_distance_over_offsets(hexagon, scheme, *, slack: int = 1):
    """Minimum gap over the scheme's ``tile_by_tile_window``, with the first offset realizing it.

    The frame comes from ``hexagon``'s vertices, so a rotated hexagon is
    measured as it lies."""
    doubled = doubled_frame(hexagon)
    offsets = tile_by_tile_window(scheme, slack)
    best = min_offset_distance(offsets, doubled)
    # the pruned scan settles on the first offset that attains the minimum
    return best, next(t for t in offsets if min_offset_distance((t,), doubled) == best)
