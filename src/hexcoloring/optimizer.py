"""Maximize the minimum same-color gap over hexagon shapes, per scheme and class.

The objective for a fixed coloring is the minimum over finitely many smooth
offset-distance functions of the shape parameters, hence piecewise smooth
with kinks where the active offset changes.  Everything here is
deterministic: a fixed coarse grid seeds Nelder-Mead starts, run coarse to
fine (of the rectilinear starts only the best is finished), and an active-set
Newton step on closed-form offset derivatives sharpens the result to near
machine precision so rational squared gaps can be reconstructed from the floats.
"""

from __future__ import annotations

import logging
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .analysis import stable_dsq_rational
from .coloring import (
    SYMMETRIES,
    ColorScheme,
    NoTripleError,
    Symmetry,
    TripleRepresentation,
    canonical_triple,
    min_offset_distance,
    same_color_offsets,
    schemes,
)
from .evaluator import QUARTICS, cubic_f, quartic_dsq, regular_dsq
from .geometry import (
    CLASS_TAGS,
    EPS_GEOM,
    RECTILINEAR,
    REGULAR,
    SEMI_REGULAR,
    DomainError,
    gaps_valid,
    hexagon_from_gaps,
    point_to_hexagon_distance,
)

# coarse grids stay this far from the degenerate boundary; EPS_GEOM remains
# the hard validity limit during refinement
GRID_MARGIN = 0.02

_log = logging.getLogger("hexcoloring.optimizer")

_REGULAR_GAP = math.pi / 3.0


@dataclass(frozen=True)
class SolveOptions:
    starts_per_axis: int = 12
    coarse_grid: int = 48
    value_tol: float = 1e-12
    param_tol: float = 1e-12
    max_iters: int = 400
    enumeration_slack: int = 1

    def __post_init__(self) -> None:
        if self.starts_per_axis < 1:
            raise DomainError("starts_per_axis must be positive")
        if self.coarse_grid < 4:
            raise DomainError("coarse_grid must be at least 4")
        if self.max_iters < 1:
            raise DomainError("max_iters must be positive")
        if self.enumeration_slack < 0:
            raise DomainError("enumeration_slack must be non-negative")
        for name in ("value_tol", "param_tol"):
            tol = getattr(self, name)
            if not 0.0 < tol < 1e-6:
                raise DomainError(f"{name} must lie in (0, 1e-6)")


_DEFAULT_OPTIONS = SolveOptions()


@dataclass(frozen=True)
class SolveResult:
    k: int
    class_tag: str
    scheme: ColorScheme
    gaps: tuple[float, float]
    r: float
    s: float
    d: float
    dsq: float
    triple: TripleRepresentation
    dsq_rational: tuple[int, int] | None
    closed_form_tag: str
    # no valid shape in the class does better than this (see ``solve``)
    d_upper: float = field(compare=False)


@dataclass(frozen=True)
class SolveAllResult:
    k: int
    per_class: Mapping[str, SolveResult]
    champion_class: str

    @property
    def champion(self) -> SolveResult:
        return self.per_class[self.champion_class]


def _frame(g1, g2, sin=math.sin, cos=math.cos):
    """Doubled-hexagon vertices and lattice basis at shape (g1, g2).

    This is the ``frame`` argument of ``min_offset_distance``.
    With NumPy's sin and cos it takes arrays of shapes.
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


def _eval_min(g1: float, g2: float, offsets) -> float:
    """Minimum same-color gap at shape (g1, g2); -1.0 outside the valid triangle."""
    if not gaps_valid(g1, g2):
        return -1.0
    return min_offset_distance(offsets, _frame(g1, g2))


def _eval_dists(g1: float, g2: float, offsets):
    """Per-offset gaps at shape (g1, g2), or None outside the valid triangle."""
    if not gaps_valid(g1, g2):
        return None
    frame = _frame(g1, g2)
    return [min_offset_distance((off,), frame) for off in offsets]


def _offset_dist(g1: float, g2: float, i: int, j: int) -> float:
    vx, vy, eix, eiy, ejx, ejy = _frame(g1, g2)
    return point_to_hexagon_distance(i * eix + j * ejx, i * eiy + j * ejy, vx, vy)


def _offset_jet(g1: float, g2: float, i: int, j: int):
    """Offset (i, j)'s gap at shape (g1, g2), its gradient and its Hessian in the gaps.

    The gap is ``_offset_dist``'s, bit for bit: the kernel's distance from c
    to its nearest boundary point q = a + t (b - a), t clamped to [0, 1].  By
    the envelope theorem the gradient is u . M, with u = (c - q) / gap and
    M = dc - (1 - t) da - t db.  With gap1, c moves by (i + j) / 2 (cos g1,
    -sin g1) and v0, v3 turn clockwise; with gap2, c moves by i / 2 (cos g2,
    sin g2) and v2, v5 turn counterclockwise.  All of them turn at unit rate,
    so dM is M turned a quarter, and the Hessian is u . dM + (P P' - Q Q') /
    gap, with P the part of M along the boundary and Q = |b - a| dt, zero at
    a vertex.  Points are complex numbers; inside the hexagon all are zero.
    """
    vx, vy, eix, eiy, ejx, ejy = _frame(g1, g2)
    px, py = i * eix + j * ejx, i * eiy + j * ejy
    inside, best = True, math.inf
    for m in range(6):
        ax, ay = vx[m - 1], vy[m - 1]
        ex, ey = vx[m] - ax, vy[m] - ay
        dx, dy = px - ax, py - ay
        inside &= ex * dy - ey * dx >= 0.0
        t = min(max((dx * ex + dy * ey) / (ex * ex + ey * ey), 0.0), 1.0)
        qx, qy = dx - t * ex, dy - t * ey
        d2 = qx * qx + qy * qy
        if d2 < best:
            best, near = d2, (m, t, complex(ex, ey))
    if inside:
        return 0.0, (0.0, 0.0), ((0.0, 0.0), (0.0, 0.0))
    m, t, e = near
    gap, edge = math.sqrt(best), 0.0 < t < 1.0
    v = [complex(x, y) for x, y in zip(vx, vy)]
    dot = lambda z, w: z.real * w.real + z.imag * w.imag
    # u from the edge's normal or the vertex itself, not the rounded q, so an
    # offset and its mirror image on the diagonal get mirrored slopes
    u = -1j * e / abs(e) if edge else (complex(px, py) - v[m if t == 1.0 else m - 1]) / gap
    rows = []
    for spin, h, n in (-1j, 0.5 * (i + j), 0), (1j, 0.5 * i, 2):
        da, db = (spin * v[a] if a % 3 == n else 0.0 for a in (m - 1, m))
        mk = -1j * h * v[n] - (1.0 - t) * da - t * db
        pk = dot(1j * u, mk)
        qk = pk + gap * dot(u, db - da) / abs(e) if edge else 0.0
        rows.append((dot(u, mk), dot(u, spin * mk), pk, qk))
    (ga, ca, pa, qa), (gb, cb, pb, qb) = rows
    cross = (pa * pb - qa * qb) / gap
    hess = ((ca + (pa * pa - qa * qa) / gap, cross), (cross, cb + (pb * pb - qb * qb) / gap))
    return gap, (ga, gb), hess


def _lipschitz(i: int, j: int) -> float:
    """Bound on how fast offset (i, j)'s gap moves with the gaps, in the max norm.

    The offset point c = i e_i + j e_j moves by |i + j| / 2 per unit of gap1
    and |i| / 2 per unit of gap2, and the doubled hexagon's vertices move on
    the unit circle by at most the larger gap change.  (Measured, the bound
    without the + 1 also holds, since the vertex nearest c moves with c; the
    + 1 is what the triangle inequality proves.)
    """
    return 0.5 * (abs(i + j) + abs(i)) + 1.0


class _Field:
    """Lazy per-offset gap arrays over a fixed grid of shapes.

    The grid is shape-only, so one field serves every k; offset arrays are
    cached and shared between schemes that use the same offset.  ``radius``
    gives each grid point a box, in the max norm over the gaps, and the boxes
    of the valid points cover every valid shape of the class.
    """

    def __init__(
        self,
        centers: np.ndarray,
        g1: np.ndarray,
        g2: np.ndarray,
        valid: np.ndarray,
        radius: np.ndarray,
    ):
        self.centers = centers
        self.cell = float(centers[1] - centers[0])
        self.g1 = g1
        self.g2 = g2
        self.valid = valid
        self.radius = radius
        vx, vy, self.eix, self.eiy, self.ejx, self.ejy = _frame(g1, g2, np.sin, np.cos)
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
        out[~self.valid] = -1.0
        return out

    def scheme_upper(self, offsets) -> float:
        """No valid shape has a larger minimum gap over ``offsets`` than this.

        On the box around grid point p, each offset's gap is at most its
        value at p plus radius(p) times its Lipschitz bound, and so is the
        minimum over offsets; the bound is the largest of these over the
        valid points.
        """
        out = None
        for index in offsets:
            i, j = index[0], index[1]
            u = self.offset_dist((i, j)) + _lipschitz(i, j) * self.radius
            out = u if out is None else np.minimum(out, u, out=out)
        return float(out[self.valid].max())


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


def _rect_grid(n: int) -> _Field:
    span = math.pi - 2.0 * GRID_MARGIN
    centers = GRID_MARGIN + span * (np.arange(n) + 0.5) / n
    g1 = np.repeat(centers, n)
    g2 = np.tile(centers, n)
    valid = g1 + g2 < math.pi - GRID_MARGIN
    return _Field(centers, g1, g2, valid, _rect_radii(centers, valid))


def _semi_grid(n: int) -> _Field:
    hi = (math.pi - GRID_MARGIN) / 2.0
    centers = GRID_MARGIN + (hi - GRID_MARGIN) * (np.arange(n) + 0.5) / n
    valid = np.ones(n, bool)
    # each point's cell, the outer ones reaching 0 and pi / 2
    edges = _cell_edges(centers, math.pi / 2.0)
    radius = np.maximum(centers - edges[:-1], edges[1:] - centers)
    return _Field(centers, centers, centers.copy(), valid, radius)


_FIELD_CACHE: OrderedDict = OrderedDict()
_FIELD_CACHE_MAX = 4


def _get_field(class_tag: str, n: int) -> _Field:
    key = (class_tag, n)
    hit = _FIELD_CACHE.get(key)
    if hit is None:
        hit = _semi_grid(n) if class_tag == SEMI_REGULAR else _rect_grid(n)
        _FIELD_CACHE[key] = hit
        while len(_FIELD_CACHE) > _FIELD_CACHE_MAX:
            _FIELD_CACHE.popitem(last=False)
    else:
        _FIELD_CACHE.move_to_end(key)
    return hit


def _local_maxima_2d(vals: np.ndarray, n: int) -> np.ndarray:
    """Flat indices of strict-or-plateau grid maxima, best first, ties by index."""
    grid = vals.reshape(n, n)
    padded = np.full((n + 2, n + 2), -np.inf)
    padded[1:-1, 1:-1] = grid
    ok = np.ones((n, n), bool)
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr == 0 and dc == 0:
                continue
            ok &= grid >= padded[1 + dr : n + 1 + dr, 1 + dc : n + 1 + dc]
    idx = np.flatnonzero(ok.ravel() & (vals > 0.0))
    order = np.argsort(-vals[idx], kind="stable")
    return idx[order]


def _local_maxima_1d(vals: np.ndarray) -> np.ndarray:
    padded = np.concatenate(([-np.inf], vals, [-np.inf]))
    ok = (vals >= padded[:-2]) & (vals >= padded[2:]) & (vals > 0.0)
    idx = np.flatnonzero(ok)
    order = np.argsort(-vals[idx], kind="stable")
    return idx[order]


def _sorted_by_distance(offsets, g1: float, g2: float):
    """Offsets nearest-first at a reference shape, so pruning fires early."""
    dists = _eval_dists(g1, g2, offsets)
    if dists is None:
        return list(offsets)
    return [off for _, off in sorted(zip(dists, offsets), key=lambda p: (p[0], p[1]))]


# 47% of Nelder-Mead's evaluations over rectilinear k = 3..30 fall below this
# size; the start leading there finishes highest, within 1e-12 off the shape edge
_NM_COARSE = 1e-5


def _nm_max(fn, x0: float, y0: float, step: float, options: SolveOptions, pause: float):
    """Deterministic Nelder-Mead ascent from a fixed right-triangle simplex.

    Yields (best vertex, its value, finished) when the simplex first shrinks
    to ``pause`` and when the exit test passes or ``max_iters`` have run.
    """
    exit_size = max(options.param_tol, 1e-9)
    simplex = [(x0, y0), (x0 + step, y0), (x0, y0 + step)]
    vals = [fn(x, y) for x, y in simplex]
    for _ in range(options.max_iters):
        order = sorted(range(3), key=lambda m: -vals[m])
        simplex = [simplex[m] for m in order]
        vals = [vals[m] for m in order]
        size = max(
            abs(simplex[0][0] - simplex[2][0]),
            abs(simplex[0][1] - simplex[2][1]),
            abs(simplex[0][0] - simplex[1][0]),
            abs(simplex[0][1] - simplex[1][1]),
        )
        if vals[0] - vals[2] <= options.value_tol and size <= exit_size:
            break
        if size <= pause:
            pause = -1.0
            yield simplex[0], vals[0], False
        (bx, by), (wx, wy) = simplex[0], simplex[2]
        cx = (bx + simplex[1][0]) * 0.5
        cy = (by + simplex[1][1]) * 0.5
        rx, ry = cx + (cx - wx), cy + (cy - wy)
        fr = fn(rx, ry)
        if fr > vals[0]:
            ex_, ey_ = cx + 2.0 * (cx - wx), cy + 2.0 * (cy - wy)
            fe = fn(ex_, ey_)
            if fe > fr:
                simplex[2], vals[2] = (ex_, ey_), fe
            else:
                simplex[2], vals[2] = (rx, ry), fr
        elif fr > vals[1]:
            simplex[2], vals[2] = (rx, ry), fr
        else:
            if fr > vals[2]:
                px, py = cx + 0.5 * (rx - cx), cy + 0.5 * (ry - cy)
            else:
                px, py = cx + 0.5 * (wx - cx), cy + 0.5 * (wy - cy)
            fc = fn(px, py)
            if fc > max(fr, vals[2]):
                simplex[2], vals[2] = (px, py), fc
            else:
                for m in (1, 2):
                    sx = (bx + simplex[m][0]) * 0.5
                    sy = (by + simplex[m][1]) * 0.5
                    simplex[m] = (sx, sy)
                    vals[m] = fn(sx, sy)
    top = max(range(3), key=lambda m: (vals[m], -m))
    yield simplex[top], vals[top], True


def _active_set(x: float, y: float, offsets, tol: float = 1e-6):
    dists = _eval_dists(x, y, offsets)
    if dists is None:
        return None, []
    dmin = min(dists)
    active = [off for off, dd in zip(offsets, dists) if dd <= dmin + tol]
    return dmin, active


def _newton_loop(system, x: float, y: float, offsets, val: float, max_rounds: int = 30):
    """Damped Newton on system(x, y) -> (values, Jacobian rows), guarded by the objective.

    Returns (x, y, val) of the best accepted point.  Steps that leave the
    valid triangle or reduce the minimum gap are halved, then abandoned.
    """
    for _ in range(max_rounds):
        f0, jac = system(x, y)
        if max(abs(v) for v in f0) <= 1e-14:
            break
        try:
            step, *_ = np.linalg.lstsq(np.asarray(jac), -np.asarray(f0), rcond=None)
        except np.linalg.LinAlgError:
            break
        dx, dy = float(step[0]), float(step[1])
        if not math.isfinite(dx) or not math.isfinite(dy):
            break
        scale = 1.0
        accepted = False
        for _ in range(3):
            cand = (x + scale * dx, y + scale * dy)
            cand_val = _eval_min(cand[0], cand[1], offsets)
            if cand_val >= val - 1e-12:
                x, y = cand
                val = max(val, cand_val)
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            break
        if math.hypot(scale * dx, scale * dy) <= 1e-13:
            break
    return x, y, val


def _polish_rect(x: float, y: float, val: float, offsets, max_rounds: int = 3):
    """Sharpen a simplex result by solving the active kink equations."""
    for _ in range(max_rounds):
        _, active = _active_set(x, y, offsets)
        if len(active) <= 1:
            break
        jets = lambda px, py: [_offset_jet(px, py, i, j) for i, j in active]
        if len(active) >= 3:
            def system(px: float, py: float):
                (d0, (gx0, gy0), _), *rest = jets(px, py)
                jac = [(gx - gx0, gy - gy0) for _, (gx, gy), _ in rest]
                return [d - d0 for d, _, _ in rest], jac
        else:
            (_, ga, _), (_, gb, _) = jets(x, y)
            nx_, ny_ = ga[0] - gb[0], ga[1] - gb[1]
            norm = math.hypot(nx_, ny_)
            if norm <= 1e-9:
                # the two branches vary identically (mirror pair); treat the
                # common value as smooth and accept the simplex point
                break
            tx, ty = -ny_ / norm, nx_ / norm

            def system(px: float, py: float):
                (da, (gax, gay), (ha0, ha1)), (db, (gbx, gby), _) = jets(px, py)
                tha = (tx * ha0[0] + ty * ha1[0], tx * ha0[1] + ty * ha1[1])
                return [da - db, tx * gax + ty * gay], [(gax - gbx, gay - gby), tha]

        nx, ny, nval = _newton_loop(system, x, y, offsets, val)
        moved = math.hypot(nx - x, ny - y)
        x, y, val = nx, ny, max(val, nval)
        if moved <= 1e-13:
            break
    return x, y, val


def _golden_max(fn, lo: float, hi: float, tol: float = 1e-12):
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - inv * (b - a)
    x2 = a + inv * (b - a)
    f1, f2 = fn(x1), fn(x2)
    while b - a > tol:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv * (b - a)
            f2 = fn(x2)
    if f1 >= f2:
        return x1, f1
    return x2, f2


def _illinois_root(fn, a: float, b: float, fa: float, fb: float, iters: int = 80):
    """Root of fn on [a, b] with fa*fb < 0, modified regula falsi."""
    for _ in range(iters):
        if fb == fa:
            break
        c = b - fb * (b - a) / (fb - fa)
        if not (min(a, b) < c < max(a, b)):
            c = 0.5 * (a + b)
        fc = fn(c)
        if fc == 0.0 or abs(b - a) <= 1e-15 * max(1.0, abs(b)):
            return c
        if (fc > 0.0) != (fb > 0.0):
            a, fa = b, fb
        else:
            fa *= 0.5
        b, fb = c, fc
    return b


def _polish_semi(gamma: float, val: float, offsets, cell: float):
    """Resolve the kink where the two leading branches cross, if any."""
    line = lambda g: _eval_min(g, g, offsets)
    _, active = _active_set(gamma, gamma, offsets)
    if len(active) <= 1:
        return gamma, val
    slopes = [sum(_offset_jet(gamma, gamma, *off)[1]) for off in active]
    best_pair = None
    best_gap = 0.0
    for a in range(len(active)):
        for b in range(a + 1, len(active)):
            gap = abs(slopes[a] - slopes[b])
            if gap > best_gap:
                best_gap = gap
                best_pair = (active[a], active[b])
    if best_pair is None or best_gap < 1e-3:
        # all active branches run parallel along the diagonal (mirror
        # images); the golden-section point already is the maximum
        return gamma, val
    offa, offb = best_pair

    def diff(g):
        return _offset_dist(g, g, offa[0], offa[1]) - _offset_dist(
            g, g, offb[0], offb[1]
        )

    delta = 1e-9
    while delta < cell:
        a, b = gamma - delta, gamma + delta
        fa, fb = diff(a), diff(b)
        if fa == 0.0 and fb == 0.0:
            return gamma, val
        if (fa > 0.0) != (fb > 0.0):
            root = _illinois_root(diff, a, b, fa, fb)
            rval = line(root)
            if rval >= val - 1e-12:
                return root, max(val, rval)
            return gamma, val
        delta *= 10.0
    return gamma, val


def _refine_rect(offsets, seeds, options: SolveOptions, cell: float, starts: list):
    """Best (value, gap pair) over deterministic simplex starts plus polish.

    Only the start leading at _NM_COARSE, the first on ties, is finished.
    ``starts`` counts the starts run and finished.
    """
    ordered = _sorted_by_distance(offsets, *seeds[0])
    fn = lambda a, b: _eval_min(a, b, ordered)
    best_pt, best_val = seeds[0], fn(*seeds[0])
    runs = [_nm_max(fn, sx, sy, 0.6 * cell, options, _NM_COARSE) for sx, sy in seeds]
    coarse = [next(run) for run in runs]
    lead = max(range(len(runs)), key=lambda m: (coarse[m][1], -m))
    pt, pv, _ = next(runs[lead], coarse[lead])
    starts[0] += len(runs)
    starts[1] += sum(c[2] for c in coarse) + (not coarse[lead][2])
    if pv > best_val:
        best_pt, best_val = pt, pv
    x, y, val = _polish_rect(best_pt[0], best_pt[1], best_val, ordered)
    if val > best_val:
        best_pt, best_val = (x, y), val
    return best_val, best_pt


def _refine_semi(offsets, gamma0: float, options: SolveOptions, cell: float):
    ordered = _sorted_by_distance(offsets, gamma0, gamma0)
    line = lambda g: _eval_min(g, g, ordered)
    hi_edge = (math.pi - EPS_GEOM) / 2.0
    lo = max(EPS_GEOM * 2.0, gamma0 - cell)
    hi = min(hi_edge - EPS_GEOM, gamma0 + cell)
    gamma, val = _golden_max(line, lo, hi, tol=max(options.param_tol, 1e-12))
    gamma, val = _polish_semi(gamma, val, ordered, cell)
    return val, (gamma, gamma)


def _refine_semi_multi(offsets, vals, centers, options: SolveOptions, cell: float):
    best_val, best_pt = -1.0, (_REGULAR_GAP, _REGULAR_GAP)
    for idx in _local_maxima_1d(vals)[:3]:
        v, pt = _refine_semi(offsets, float(centers[idx]), options, cell)
        if v > best_val:
            best_val, best_pt = v, pt
    v, pt = _refine_semi(offsets, _REGULAR_GAP, options, cell)
    if v > best_val:
        best_val, best_pt = v, pt
    return best_val, best_pt


# no fixed |i|+j window is safe at every shape: near-degenerate slivers put
# the nearest same-color tile at arbitrarily large index.  Check each refined
# optimum against wider windows and re-refine honestly when one contradicts it.
# A window of _RECHECK_STEP past the default one also rechecks mapped orbit
# optima and the final winner.
_RECHECK_STEP = 3
_HONEST_STEPS = (_RECHECK_STEP, 6, 9)


def _honest_refine(scheme, offsets, refine, options: SolveOptions):
    """refine(offsets) -> (value, point), re-run on the first wider window that lowers it."""
    val, pt = refine(offsets)
    for step in _HONEST_STEPS:
        slack = options.enumeration_slack + step
        wide = same_color_offsets(scheme, slack=slack)
        wide_val = _eval_min(pt[0], pt[1], wide)
        if wide_val >= val - 1e-12:
            break
        _log.debug(
            "honest-window re-refinement: k=%d scheme=(%d, %d) slack %d drops %.12g to %.12g",
            scheme.k, scheme.g, scheme.h, slack, val, wide_val,
        )
        val, pt = refine(wide)
    return val, pt


def _orbit_image(scheme, offsets, rep, rep_val: float, rep_pt, sym: Symmetry, options):
    """The representative's optimum moved onto ``scheme``, or None if it fails there.

    The move is exact, d(rep, x) = d(scheme, sym(x)), but the fixed index
    windows of the two schemes cover different tiles.  So the value over the
    scheme's own window must not fall below the representative's, and the
    first honest window must not lower it, as after a full refinement.
    """
    pt = sym.image_gaps(rep_pt[0], rep_pt[1])
    val = _eval_min(pt[0], pt[1], offsets)
    if val < rep_val - 1e-12:
        reason = "value too low"
    else:
        wide = same_color_offsets(scheme, slack=options.enumeration_slack + _RECHECK_STEP)
        if _eval_min(pt[0], pt[1], wide) >= val - 1e-12:
            return val, pt
        reason = "a wider window drops it"
    _log.debug(
        "orbit fallback: k=%d scheme=(%d, %d) representative=(%d, %d): %s",
        scheme.k, scheme.g, scheme.h, rep.g, rep.h, reason,
    )
    return None


def _closed_form_tag(k: int, dsq: float, tol: float = 1e-7) -> str:
    """The closed form that ``dsq`` matches for k colors, or "none".

    One of "loeschian", "cubic_f", "quartic", "none".  No two of these forms
    lie within 1e-6 of each other for any k < 400, so the order of the checks
    does not decide the tag.
    """
    reg = regular_dsq(k)
    if reg is not None and abs(dsq - float(reg)) < tol:
        return "loeschian"
    try:
        if abs(dsq - cubic_f(k)[1]) < tol:
            return "cubic_f"
    except DomainError:
        pass
    if k in QUARTICS and abs(dsq - quartic_dsq(k)) < tol:
        return "quartic"
    return "none"


def _finalize(
    k: int,
    class_tag: str,
    scheme: ColorScheme,
    point: tuple[float, float],
    val: float,
    options: SolveOptions,
    d_upper: float,
    triple: TripleRepresentation | None = None,
) -> SolveResult:
    point = (float(point[0]), float(point[1]))
    hexagon = hexagon_from_gaps(point[0], point[1])
    triple = triple or canonical_triple(hexagon, scheme, slack=options.enumeration_slack)
    val = float(val)
    dsq = val * val
    return SolveResult(
        k=k,
        class_tag=class_tag,
        scheme=scheme,
        gaps=point,
        r=hexagon.r,
        s=hexagon.s,
        d=val,
        dsq=dsq,
        triple=triple,
        dsq_rational=stable_dsq_rational(dsq),
        closed_form_tag=_closed_form_tag(k, dsq),
        d_upper=float(d_upper),
    )


def _rect_seeds(vals: np.ndarray, centers: np.ndarray, n: int, count: int):
    maxima = _local_maxima_2d(vals, n)[:count]
    seeds = [(centers[f // n], centers[f % n]) for f in maxima]
    diag = np.arange(len(centers)) * (n + 1)
    dvals = vals[diag]
    if dvals.max() > 0.0:
        c = centers[int(np.argmax(dvals))]
        seeds.append((c, c))
    seeds.append((_REGULAR_GAP, _REGULAR_GAP))
    return seeds


def _nm_start_count(options: SolveOptions) -> int:
    return max(3, options.starts_per_axis**2 // 24)


def _refine(class_tag: str, scheme, offsets, vals, grid: _Field, options: SolveOptions, starts):
    """Full refinement of one scheme from its coarse values: (value, gap pair)."""
    if class_tag == SEMI_REGULAR:
        refine = lambda offs: _refine_semi_multi(offs, vals, grid.centers, options, grid.cell)
    else:
        seeds = _rect_seeds(vals, grid.centers, len(grid.centers), _nm_start_count(options))
        refine = lambda offs: _refine_rect(offs, seeds, options, grid.cell, starts)
    return _honest_refine(scheme, offsets, refine, options)


def optimize_scheme(
    k: int,
    scheme: ColorScheme,
    class_tag: str = RECTILINEAR,
    options: SolveOptions | None = None,
) -> SolveResult:
    """Best shape in the class for one fixed coloring scheme."""
    options = options or _DEFAULT_OPTIONS
    if class_tag not in CLASS_TAGS:
        raise DomainError(f"unknown class {class_tag!r}")
    if scheme.k != k:
        raise DomainError(f"scheme {scheme} does not color k={k}")
    if class_tag == REGULAR:
        return _solve_regular(k, [scheme], options)

    offsets = same_color_offsets(scheme, slack=options.enumeration_slack)
    grid = _get_field(class_tag, options.coarse_grid)
    vals = grid.scheme_min(offsets)
    val, pt = _refine(class_tag, scheme, offsets, vals, grid, options, [0, 0])
    return _finalize(k, class_tag, scheme, pt, val, options, grid.scheme_upper(offsets))


# several schemes often tie at the optimum (mirror images of one another at
# mirrored shapes).  Report the one whose triple starts nearest the axis row.
_TIE_TOL = 1e-9


def _pick_tied(cands, options: SolveOptions):
    """cands: list of (val, scheme, point).  Returns the preferred entry and
    its triple, None when nothing tied or the entry has none."""
    vmax = max(c[0] for c in cands)
    tied = [c for c in cands if c[0] >= vmax - _TIE_TOL]
    if len(tied) == 1:
        return tied[0], None

    def pref(entry):
        val, scheme, point = entry
        try:
            t = canonical_triple(
                hexagon_from_gaps(point[0], point[1]),
                scheme,
                slack=options.enumeration_slack,
            )
        except NoTripleError:
            return (False, 0, 0, 0, 0, -scheme.g, -scheme.h), entry, None
        return (True, t.t1.j, t.t1.i, -t.t2.j, -t.t2.i, -scheme.g, -scheme.h), entry, t

    return max(map(pref, tied), key=lambda ranked: ranked[0])[1:]


def _solve_regular(k: int, candidates, options: SolveOptions) -> SolveResult:
    """The best of the ``candidates`` schemes on the regular hexagon."""
    pt = (_REGULAR_GAP, _REGULAR_GAP)
    cands = []
    for scheme in candidates:
        offsets = same_color_offsets(scheme, slack=options.enumeration_slack)
        cands.append((_eval_min(pt[0], pt[1], offsets), scheme, pt))
    (val, scheme, pt), triple = _pick_tied(cands, options)
    return _finalize(k, REGULAR, scheme, pt, val, options, val, triple)


def solve(
    k: int, class_tag: str = RECTILINEAR, options: SolveOptions | None = None
) -> SolveResult:
    """Best shape and coloring for k colors within one shape class.

    A coarse scan gives every scheme its peak over the grid and an upper
    bound U_s on its objective over every valid shape.  Schemes are refined
    in descending order of peak, and a scheme is skipped once U_s falls
    below the best refined value so far by more than the tie tolerance.
    Every refined value is the window objective at a valid shape, or a lower
    value over a wider window, so a skipped scheme could not have won or
    tied.  The result's ``d_upper`` is the largest U_s.

    U_s is ``_Field.scheme_upper``: on boxes around the grid points that
    cover every valid shape (``_rect_radii``), each offset's gap moves by at
    most ``_lipschitz`` times the max norm of the gap change.

    For the rectilinear class, relabelling the hexagon's gap directions maps
    each scheme's optimum onto the optimum of every scheme in its orbit (see
    ``coloring.SYMMETRIES``).  Only the first scheme of an orbit to be
    refined gets a full refinement; later ones take its optimum, moved onto
    their own shape and checked there, and are refined in full only if that
    check fails.
    """
    options = options or _DEFAULT_OPTIONS
    if k < 3:
        raise DomainError(f"k must be at least 3: got {k}")
    if class_tag not in CLASS_TAGS:
        raise DomainError(f"unknown class {class_tag!r}")

    if class_tag == REGULAR:
        return _solve_regular(k, schemes(k), options)

    slack = options.enumeration_slack
    grid = _get_field(class_tag, options.coarse_grid)
    coarse = []
    for scheme in schemes(k):
        offsets = same_color_offsets(scheme, slack=slack)
        vals = grid.scheme_min(offsets)
        coarse.append((float(vals.max()), grid.scheme_upper(offsets), scheme, offsets, vals))
    coarse.sort(key=lambda entry: -entry[0])
    d_upper = max(entry[1] for entry in coarse)

    refined = []
    mapped_count = 0
    starts = [0, 0]
    best = -math.inf
    # orbit member -> (representative, its value and point, the symmetry
    # taking the representative to the member); rectilinear only
    images = {}
    for _, upper, scheme, offsets, vals in coarse:
        if upper < best - _TIE_TOL:
            continue
        rep = images.get(scheme)
        mapped = _orbit_image(scheme, offsets, *rep, options) if rep else None
        if mapped is None:
            v, pt = _refine(class_tag, scheme, offsets, vals, grid, options, starts)
            if class_tag == RECTILINEAR and rep is None:
                for sym in SYMMETRIES[1:]:
                    images.setdefault(sym.image_scheme(scheme), (scheme, v, pt, sym))
        else:
            v, pt = mapped
            mapped_count += 1
        refined.append((v, scheme, pt))
        best = max(best, v)
    _log.debug(
        "solve: k=%d %s refined %d, mapped %d, skipped %d by the bound; "
        "best %.12g, d_upper %.12g%s",
        k, class_tag, len(refined) - mapped_count, mapped_count,
        len(coarse) - len(refined), best, d_upper,
        "; NM starts run %d, finished %d" % tuple(starts) if class_tag == RECTILINEAR else "",
    )

    (val, scheme, point), triple = _pick_tied(refined, options)
    # recheck the winner with a wider index window; a drop would mean the
    # enumeration bound clipped a nearer offset at this shape
    wide = same_color_offsets(scheme, slack=slack + _RECHECK_STEP)
    wide_val = _eval_min(point[0], point[1], wide)
    if wide_val < val - 1e-12:
        _log.debug(
            "wide-window drop: k=%d %s scheme=(%d, %d) d %.12g to %.12g",
            k, class_tag, scheme.g, scheme.h, val, wide_val,
        )
        val = wide_val
    return _finalize(k, class_tag, scheme, point, val, options, d_upper, triple)


def solve_all(
    k: int, options: SolveOptions | None = None, classes: Sequence[str] = CLASS_TAGS
) -> SolveAllResult:
    """Solve each class in ``classes`` and crown the most restricted one that ties the best d."""
    options = options or _DEFAULT_OPTIONS
    unknown = [tag for tag in classes if tag not in CLASS_TAGS]
    if unknown or not classes:
        raise DomainError(f"classes must be a non-empty subset of {CLASS_TAGS}: got {classes!r}")
    # CLASS_TAGS runs from the most restricted class to the least
    per_class = {tag: solve(k, tag, options) for tag in CLASS_TAGS if tag in classes}
    best_d = max(res.d for res in per_class.values())
    champion = next(tag for tag, res in per_class.items() if res.d >= best_d - 1e-9)
    return SolveAllResult(k=k, per_class=per_class, champion_class=champion)
