"""The coarse scan as first written, kept as the reference for ``_Field.scan``.

One gap array over the whole grid per offset, cached, and each scheme's grid
values and upper bound reduced from them one offset at a time.  Also the
rectilinear field as it was before the scan kept only the sextant
gap3 >= gap1 >= gap2 (``full_triangle_grid``).
"""

from __future__ import annotations

import math

import numpy as np

from hexcoloring.optimizer import GRID_MARGIN, _Field, _frame, _lipschitz, _rect_grid


def full_triangle_grid(n: int) -> _Field:
    """``optimizer._rect_grid(n)`` with every grid point of the triangle kept."""
    grid = _rect_grid(n)
    valid = grid.g1 + grid.g2 < math.pi - GRID_MARGIN
    return _Field(grid.centers, grid.g1, grid.g2, valid, grid.radius)


class PerOffsetScan:
    """``scheme_min`` and ``scheme_upper`` over the grid of a ``_Field``."""

    def __init__(self, grid):
        self.grid = grid
        vx, vy, self.eix, self.eiy, self.ejx, self.ejy = _frame(grid.g1, grid.g2, np.sin, np.cos)
        self._edges = []
        for m in range(6):
            ax, ay = vx[m - 1], vy[m - 1]
            ex, ey = vx[m] - ax, vy[m] - ay
            ee = np.maximum(ex * ex + ey * ey, 1e-30)
            self._edges.append((ax, ay, ex, ey, ee))
        self._dist: dict[tuple[int, int], np.ndarray] = {}

    def _point_dist(self, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
        inside = None
        best = None
        for ax, ay, ex, ey, ee in self._edges:
            dx = cx - ax
            dy = cy - ay
            cross = ex * dy - ey * dx
            inside = (cross >= 0.0) if inside is None else inside & (cross >= 0.0)
            t = np.clip((dx * ex + dy * ey) / ee, 0.0, 1.0)
            qx = dx - t * ex
            qy = dy - t * ey
            dd = qx * qx + qy * qy
            best = dd if best is None else np.minimum(best, dd, out=best)
        out = np.sqrt(best, out=best)
        out[inside] = 0.0
        return out

    def offset_dist(self, index: tuple[int, int]) -> np.ndarray:
        arr = self._dist.get(index)
        if arr is None:
            i, j = index
            cx = i * self.eix + j * self.ejx
            cy = i * self.eiy + j * self.ejy
            arr = self._point_dist(cx, cy)
            self._dist[index] = arr
        return arr

    def scheme_min(self, offsets) -> np.ndarray:
        out = None
        for index in offsets:
            d = self.offset_dist((index[0], index[1]))
            out = d.copy() if out is None else np.minimum(out, d, out=out)
        out[~self.grid.valid] = -1.0
        return out

    def scheme_upper(self, offsets) -> float:
        out = None
        for index in offsets:
            i, j = index[0], index[1]
            u = self.offset_dist((i, j)) + _lipschitz(i, j) * self.grid.radius
            out = u if out is None else np.minimum(out, u, out=out)
        return float(out[self.grid.valid].max())
