"""The coarse scan as first written, kept as the reference for ``_Field.scan``.

One gap array over the whole n x n square of grid centres per offset, cached,
and each scheme's grid values and upper bound reduced from them one offset at
a time, then read at the field's kept points.  Also the rectilinear field as
it was before the scan kept only the sextant gap3 >= gap1 >= gap2
(``full_triangle_grid``), and the square layout that the field no longer
stores (``square_layout``, ``square_values``).
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
    _rect_radii,
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


def full_triangle_grid(n: int) -> _Field:
    """``optimizer._rect_grid(n)`` with every grid point of the triangle kept."""
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
