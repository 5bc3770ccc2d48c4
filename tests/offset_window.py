"""The minimum gap over a fixed window of same-color offsets.

The package's ``coloring.min_gap`` covers every same-colored tile.  These
helpers take the minimum over a given offset list instead, such as the
|i| + j window of ``same_color_offsets``, so the tests can compare the two,
or the gap of one offset at one shape.
"""

from hexcoloring.coloring import _doubled_frame, same_color_offsets
from hexcoloring.geometry import point_to_hexagon_distance
from hexcoloring.optimizer import _frame


def offset_dist(g1: float, g2: float, i: int, j: int) -> float:
    """Offset (i, j)'s gap at shape (g1, g2), straight from the distance kernel."""
    vx, vy, eix, eiy, ejx, ejy = _frame(g1, g2)
    return point_to_hexagon_distance(i * eix + j * ejx, i * eiy + j * ejy, vx, vy)


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
        d = point_to_hexagon_distance(cx, cy, vx, vy)
        if d < best:
            best = d
            lim = (best + 1.0) * (best + 1.0)
    return best


def min_distance_over_offsets(hexagon, scheme, *, slack: int = 1):
    """Minimum gap over the scheme's window, with the first offset realizing it."""
    frame = _doubled_frame(hexagon)
    offsets = same_color_offsets(scheme, slack=slack)
    best = min_offset_distance(offsets, frame)
    # the pruned scan settles on the first offset that attains the minimum
    return best, next(t for t in offsets if min_offset_distance((t,), frame) == best)
