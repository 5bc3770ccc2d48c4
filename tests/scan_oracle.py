"""The coarse scan as first written, kept as the reference for ``_Field.scan``.

One gap array over the whole n x n square of grid centres per offset, cached,
and each scheme's grid values and upper bound reduced from them one offset at
a time, then read at the field's kept points.  Also the rectilinear field as
it was before the scan kept only the sextant S = {gap3 >= gap1 >= gap2}
(``full_triangle_grid``), and the square layout that the field no longer
stores (``square_layout``, ``square_values``).

The production field gives each grid point the box that holds its own cell;
for n >= 4 points per axis every cell that meets S has a valid centre, since
gap1 + gap2 <= 2 pi / 3 on S, so those boxes cover S.  The whole triangle
needs more: ``_rect_radii`` sends each cell with an invalid centre to a valid
grid point and clips cells to the hypotenuse.  The points of
``full_triangle_grid`` whose boxes pass ``_rect_grid``'s two sextant tests are
``_rect_grid``'s points, with the same radii, at n = 24 to 240; at n = 4, 5
and 12 ``_rect_grid`` keeps fewer.
"""

from __future__ import annotations

import math

import numpy as np

from hexcoloring.geometry import frame
from hexcoloring.optimizer import (
    GRID_MARGIN,
    _Field,
    _lipschitz,
    _offset_gaps,
    _rect_grid,
)


def square_layout(grid):
    """(g1, g2) over the n x n square of ``grid.centers``, in row-major order,
    and the flat square index of each of the field's kept points."""
    n = len(grid.centers)
    a = np.searchsorted(grid.centers, grid.g1)
    b = np.searchsorted(grid.centers, grid.g2)
    assert (grid.centers[a] == grid.g1).all() and (grid.centers[b] == grid.g2).all()
    return np.repeat(grid.centers, n), np.tile(grid.centers, n), a * n + b


def square_values(grid, vals: np.ndarray) -> np.ndarray:
    """A row of kept-point values laid out on the square, -1 at the points not kept."""
    g1, _, points = square_layout(grid)
    out = np.full(g1.size, -1.0)
    out[points] = vals
    return out


def _cell_edges(centers: np.ndarray, top: float) -> np.ndarray:
    """Cell bounds between grid centres; the outer cells reach 0 and ``top``."""
    return np.concatenate(([0.0], 0.5 * (centers[1:] + centers[:-1]), [top]))


def _rect_radii(centers: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Box radii that cover the triangle g1, g2 > 0, g1 + g2 < pi.

    The cells of the grid tile the square [0, pi]^2.  Each cell that meets
    the triangle goes to a valid grid point: its own, or the first valid one
    reached by stepping down its larger index, which moves it along the
    anti-diagonal towards the interior.  A point's radius is the largest max
    norm distance from it to a vertex of an assigned cell clipped to the
    triangle; the distance is convex, so that covers the clipped cell.
    """
    n = len(centers)
    edges = _cell_edges(centers, math.pi)
    a, b = np.divmod(np.arange(n * n), n)
    lo1, hi1, lo2, hi2 = edges[a], edges[a + 1], edges[b], edges[b + 1]
    meets = lo1 + lo2 < math.pi
    a, b = a[meets], b[meets]
    lo1, hi1, lo2, hi2 = lo1[meets], hi1[meets], lo2[meets], hi2[meets]
    bad = ~valid[a * n + b]
    while bad.any():
        down_a = bad & (a >= b)
        a[down_a] -= 1
        b[bad & ~down_a] -= 1
        bad = ~valid[a * n + b]
    # the cell's corners inside the triangle, then where g1 + g2 = pi
    # crosses its four sides
    px = np.stack([lo1, hi1, lo1, hi1, lo1, hi1, math.pi - lo2, math.pi - hi2])
    py = np.stack([lo2, lo2, hi2, hi2, math.pi - lo1, math.pi - hi1, lo2, hi2])
    keep = np.empty(px.shape, bool)
    keep[:4] = px[:4] + py[:4] <= math.pi
    keep[4:6] = (lo2 <= py[4:6]) & (py[4:6] <= hi2)
    keep[6:] = (lo1 <= px[6:]) & (px[6:] <= hi1)
    far = np.maximum(np.abs(px - centers[a]), np.abs(py - centers[b]))
    radius = np.zeros(n * n)
    np.maximum.at(radius, a * n + b, np.where(keep, far, 0.0).max(axis=0))
    return radius


def full_triangle_grid(n: int) -> _Field:
    """``optimizer._rect_grid(n)``'s grid with every valid point kept, its
    ``_rect_radii`` boxes covering the whole triangle."""
    grid = _rect_grid(n)
    g1, g2, _ = square_layout(grid)
    valid = g1 + g2 < math.pi - GRID_MARGIN
    return _Field(grid.centers, g1[valid], g2[valid], _rect_radii(grid.centers, valid)[valid])


class PerOffsetScan:
    """``scheme_min`` and ``scheme_bounds`` over the kept points of a ``_Field``,
    from gap arrays over the whole square of its grid centres.

    Each array is ``optimizer._offset_gaps``'s, the kernel the field fills
    its table with, so the scan's lookup, padding and reductions are checked
    bit for bit; the kernel itself is checked against the scalar one."""

    def __init__(self, grid):
        self.grid = grid
        g1, g2, self.points = square_layout(grid)
        self._frame = frame(g1, g2, np.sin, np.cos)
        self._dist: dict[tuple[int, int], np.ndarray] = {}

    def offset_dist(self, index: tuple[int, int]) -> np.ndarray:
        arr = self._dist.get(index)
        if arr is None:
            i, j = (np.array([[float(n)]]) for n in index)
            arr = _offset_gaps(self._frame, i, j)[0]
            self._dist[index] = arr
        return arr

    def scheme_min(self, offsets) -> np.ndarray:
        out = None
        for index in offsets:
            d = self.offset_dist((index[0], index[1]))
            out = d.copy() if out is None else np.minimum(out, d, out=out)
        return out[self.points]

    def scheme_bounds(self, offsets) -> np.ndarray:
        out = None
        for index in offsets:
            i, j = index[0], index[1]
            u = self.offset_dist((i, j))[self.points] + _lipschitz(i, j) * self.grid.radius
            out = u if out is None else np.minimum(out, u, out=out)
        return out
