"""Maximize the minimum same-color gap over hexagon shapes, per scheme and class.

The objective for a fixed coloring is ``coloring.min_gap``, the minimum gap
over every same-colored tile: near any shape, the minimum of finitely many
smooth offset-distance functions of the shape parameters, hence piecewise
smooth with kinks where the active offset changes.  Everything here is
deterministic.  The regular class has one shape, and its schemes are
evaluated in descending order of a bound from their shortest sublattice
vector until no later one can tie.  For the other classes a fixed coarse
grid (``COARSE_GRID`` points per axis; the solver has no settings) gives
each scheme its best grid point, and its Lipschitz bounds, bisected for
semi-regular schemes, skip the schemes that cannot win.  The rectilinear
grid covers one sixth of the shapes, the sextant gap3 >= gap1 >= gap2, and
one scheme of each symmetry orbit is refined for all.  One refinement,
``_refine``, serves both shape classes: one local search from that grid
point, which may end at a local maximum only, after which Newton on
closed-form offset derivatives sharpens the result to near machine
precision, so that rational squared gaps can be reconstructed from the
floats.  A rectilinear search is a trust-region ascent on closed-form
offset gradients, and its polish solves one exact system for the kind of
maximum its active offsets make: equal gaps at a vertex, equal gaps and
parallel gradients (a zero cross product) on a ridge, a zero gradient at a
smooth maximum.  A semi-regular search is a golden section along the
diagonal that hands over to Newton on the crossing of two branches once
its bracket is 1e-7 wide; where Newton ends on no crossing there, the
golden section continues to 1e-12 and its point is polished.  Both
polishes run on one solver, ``_newton_loop``.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from .analysis import stable_dsq_rational
from .coloring import (
    SYMMETRIES,
    ColorScheme,
    TripleRepresentation,
    _reduced_basis,
    canonical_triple,
    min_gap,
    # not called here; bench/tracer.py counts calls made through this name
    same_color_offsets,
    schemes,
    window_offsets,
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
)

# coarse grids stay this far from the degenerate boundary; EPS_GEOM remains
# the hard validity limit during refinement
GRID_MARGIN = 0.02

_log = logging.getLogger("hexcoloring.optimizer")

_REGULAR_GAP = math.pi / 3.0
# the inradius of the doubled regular hexagon, whose vertices lie on the unit circle
_REGULAR_INRADIUS = math.sqrt(3.0) / 2.0

# the coarse scan's points per axis
COARSE_GRID = 48


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

    This is the ``frame`` argument of ``coloring.min_gap``.
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


def _eval_min(g1: float, g2: float, scheme: ColorScheme, tol: float | None = None):
    """``coloring.min_gap`` at (g1, g2); -1.0, with no offsets, outside the valid triangle."""
    if not gaps_valid(g1, g2):
        return -1.0 if tol is None else (-1.0, [])
    return min_gap(scheme, _frame(g1, g2), tol)


def _offset_jet(g1: float, g2: float, i: int, j: int, hessian: bool = True):
    """Offset (i, j)'s gap at shape (g1, g2), its gradient and its Hessian in the gaps.

    The gap is ``geometry.point_to_hexagon_distance``'s from c = i e_i + j e_j
    to the doubled hexagon of ``_frame``, bit for bit: the distance from c to
    its nearest boundary point q = a + t (b - a), t clamped to [0, 1].  By
    the envelope theorem the gradient is u . M, with u = (c - q) / gap and
    M = dc - (1 - t) da - t db.  With gap1, c moves by (i + j) / 2 (cos g1,
    -sin g1) and v0, v3 turn clockwise; with gap2, c moves by i / 2 (cos g2,
    sin g2) and v2, v5 turn counterclockwise.  All of them turn at unit rate,
    so dM is M turned a quarter, and the Hessian is u . dM + (P P' - Q Q') /
    gap, with P the part of M along the boundary and Q = |b - a| dt, zero at
    a vertex.  Points are complex numbers; inside the hexagon all are zero.
    Without ``hessian``, returns only the gap and the gradient.
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
        return (0.0, (0.0, 0.0), ((0.0, 0.0), (0.0, 0.0)))[: 2 + hessian]
    m, t, e = near
    gap, edge = math.sqrt(best), 0.0 < t < 1.0
    v = lambda a: complex(vx[a], vy[a])
    dot = lambda z, w: z.real * w.real + z.imag * w.imag
    # u from the edge's normal or the vertex itself, not the rounded q, so an
    # offset and its mirror image on the diagonal get mirrored slopes
    u = -1j * e / abs(e) if edge else (complex(px, py) - v(m if t == 1.0 else m - 1)) / gap
    grad, rows = [], []
    for spin, h, n in (-1j, 0.5 * (i + j), 0), (1j, 0.5 * i, 2):
        da, db = (spin * v(a) if a % 3 == n else 0.0 for a in (m - 1, m))
        mk = -1j * h * v(n) - (1.0 - t) * da - t * db
        grad.append(dot(u, mk))
        if hessian:
            pk = dot(1j * u, mk)
            rows.append((dot(u, spin * mk), pk, pk + gap * dot(u, db - da) / abs(e) if edge else 0.0))
    if not hessian:
        return gap, tuple(grad)
    (ca, pa, qa), (cb, pb, qb) = rows
    cross = (pa * pb - qa * qb) / gap
    hess = ((ca + (pa * pa - qa * qa) / gap, cross), (cross, cb + (pb * pb - qb * qb) / gap))
    return gap, tuple(grad), hess


def _lipschitz(i: int, j: int) -> float:
    """Bound on how fast offset (i, j)'s gap moves with the gaps, in the max norm.

    The offset point c = i e_i + j e_j moves by |i + j| / 2 per unit of gap1
    and |i| / 2 per unit of gap2, and the doubled hexagon's vertices move on
    the unit circle by at most the larger gap change.  (Measured, the bound
    without the + 1 also holds, since the vertex nearest c moves with c; the
    + 1 is what the triangle inequality proves.)
    """
    return 0.5 * (abs(i + j) + abs(i)) + 1.0


# elements in each of the scan's chunk temporaries: 128 KB of float64
_CHUNK = 16384


def _offset_gaps(frame, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Offset (i[r], j[r])'s gap at each shape of ``frame``, as row r; i, j are columns.

    ``frame`` is ``_frame``'s over arrays of shapes.  Each element is the
    scalar kernel's, operation for operation; the operations run in place
    where that saves a temporary."""
    vx, vy, eix, eiy, ejx, ejy = frame
    cx = i * eix + j * ejx
    cy = i * eiy + j * ejy
    inside = True
    best = None
    for m in range(6):
        ax, ay = vx[m - 1], vy[m - 1]
        ex, ey = vx[m] - ax, vy[m] - ay
        ee = np.maximum(ex * ex + ey * ey, 1e-30)
        dx = cx - ax
        dy = cy - ay
        t = ex * dy
        t -= ey * dx
        inside &= t >= 0.0
        np.multiply(dx, ex, out=t)
        t += dy * ey
        t /= ee
        np.clip(t, 0.0, 1.0, out=t)
        # dx, dy become q, then dx its squared length
        dx -= t * ex
        dy -= t * ey
        dx *= dx
        dy *= dy
        dx += dy
        best = dx if best is None else np.minimum(best, dx, out=best)
    out = np.sqrt(best, out=best)
    out[inside] = 0.0
    return out


class _Field:
    """A table of offset gaps over a fixed grid of shapes, filled lazily.

    The grid is shape-only, so one field serves every k.  It keeps some of
    the points spanned by ``centers`` on each gap axis, in ascending order of
    (g1, g2), and holds every per-point array at those points only: ``g1``,
    ``g2``, ``radius``, the frame and the table.  Row r of the table holds one
    offset's gap at each point, ``index`` maps the offset (i, j) to r and
    ``weight[r]`` is its ``_lipschitz`` bound; rows are shared by every scheme
    and k that use the offset.  ``radius`` gives each point a box, in the max
    norm over the gaps, and the boxes cover every shape the class scans: the
    diagonal, or the rectilinear sextant of ``_rect_grid``.  ``scan`` fills
    and reads the table.
    """

    def __init__(self, centers: np.ndarray, g1: np.ndarray, g2: np.ndarray, radius: np.ndarray):
        self.centers = centers
        self.cell = float(centers[1] - centers[0])
        self.g1 = g1
        self.g2 = g2
        self.radius = radius
        # each element is the scalar kernel's where NumPy's sin and cos match math's
        self._frame = _frame(g1, g2, np.sin, np.cos)
        # the table: rows are views into the blocks ``_offset_gaps`` returned,
        # so it grows without copying or spare capacity
        self.table: list[np.ndarray] = []
        self.index: dict[tuple[int, int], int] = {}
        self.weight = np.empty(0)

    def scan(self, owner: np.ndarray, i: np.ndarray, j: np.ndarray):
        """Each scheme's minimum gap over the grid, and a bound on it.

        Offset (i[e], j[e]) belongs to scheme owner[e], as
        ``coloring.window_offsets`` gives them: owners ascend from 0.
        Returns (vals, upper, rows).  Row s of vals is the minimum of scheme
        s's offsets' gaps at each kept grid point, one column per point, and
        rows[e] is offset e's table row.  No valid shape has a larger minimum
        gap over the offsets than upper[s]: on the box around point p, each
        offset's gap is at most its value at p plus radius(p) times its
        Lipschitz bound, and so is the minimum over offsets; upper[s] is the
        largest of these over the points.

        Each distinct offset is looked up once, and those without a row get
        one, a chunk of rows at a time.  The schemes, ordered by their number
        of offsets, are reduced a chunk at a time: each one's rows are padded
        to the chunk's longest list by repeating its first row, which leaves
        its minimum unchanged, so one reduction over an (offsets, schemes,
        points) block serves the chunk.
        """
        # (i, j) as one integer, for |j| < 2**31
        _, first, inverse = np.unique(i * 2**32 + j, return_index=True, return_inverse=True)
        keys = list(zip(i[first].tolist(), j[first].tolist()))
        found = np.array([self.index.get(key, -1) for key in keys], dtype=np.int64)
        new = np.flatnonzero(found < 0)
        found[new] = np.arange(len(self.table), len(self.table) + new.size)
        self.index.update(zip([keys[n] for n in new.tolist()], found[new].tolist()))
        width = self.g1.size
        step = max(1, _CHUNK // width)
        new_i, new_j = i[first[new], None].astype(float), j[first[new], None].astype(float)
        for a in range(0, new.size, step):
            self.table.extend(_offset_gaps(self._frame, new_i[a : a + step], new_j[a : a + step]))
        self.weight = np.concatenate((self.weight, _lipschitz(new_i[:, 0], new_j[:, 0])))
        rows = found[inverse]

        count = np.bincount(owner)
        # the schemes by their number of offsets, so that little padding is needed
        order = np.argsort(count, kind="stable")
        start, count = (np.cumsum(count) - count)[order], count[order]
        vals = np.empty((count.size, width))
        upper = np.empty(count.size)
        a = 0
        while a < count.size:
            # the most schemes from a whose padded block fits in a chunk
            block = count[a:] * np.arange(1, count.size - a + 1) * width
            b = a + max(1, int((block <= _CHUNK).sum()))
            t = np.arange(count[b - 1])[:, None]
            # row t of each scheme, or its first row once t passes its last
            idx = rows[start[a:b] + np.where(t < count[a:b], t, 0)]
            gaps = np.concatenate(list(map(self.table.__getitem__, idx.ravel().tolist())))
            gaps = gaps.reshape(*idx.shape, width)
            vals[order[a:b]] = gaps.min(axis=0)
            gaps += self.weight[idx][..., None] * self.radius
            upper[order[a:b]] = gaps.min(axis=0).max(axis=1)
            a = b
        return vals, upper, rows


# halvings of a cell in ``_bisected_bound``: the skips they add saturate at 4 to 5
_BISECT_DEPTH = 5


def _bisected_bound(grid: _Field, i, j, rows, target: float = -math.inf) -> float:
    """A bound on one scheme's semi-regular objective, at most its scan bound.

    The scheme's offsets are (i[e], j[e]), rows[e] their rows in the table of
    ``grid``, the semi-regular field.  A cell's scan bound is the minimum over
    the offsets of row plus weight times radius.  Each cell whose bound
    reaches ``target`` is halved _BISECT_DEPTH times over, in one pass
    (Piyavskii 1972), and each part bounded in the same way at its centre
    with its radius, and by its cell's bound.  The parts cover their cell,
    so the largest bound, returned, holds by the argument of ``_Field.scan``.
    """
    weight = grid.weight[rows][:, None]
    gaps = np.stack(list(map(grid.table.__getitem__, rows.tolist())))
    bound = (gaps + weight * grid.radius).min(axis=0)
    split = bound >= target
    parts = 2**_BISECT_DEPTH
    radius = np.tile(grid.radius[split] / parts, parts)
    gamma = np.tile(grid.g1[split], parts) + radius * np.repeat(
        np.arange(1 - parts, parts, 2), split.sum())
    gaps = _offset_gaps(_frame(gamma, gamma, np.sin, np.cos), i[:, None] * 1.0, j[:, None] * 1.0)
    fine = np.minimum((gaps + weight * radius).min(axis=0), np.tile(bound[split], parts))
    return float(max(bound.max(initial=-math.inf, where=~split), fine.max(initial=-math.inf)))


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
    """A field of only the n x n grid points whose ``_rect_radii`` boxes
    meet the sextant S = {gap3 >= gap1 >= gap2}, gap3 = pi - gap1 - gap2.

    A box of radius r around p holds a shape with gap1 >= gap2 only if
    p's gap1 - gap2 + 2 r >= 0, and one with gap3 >= gap1 only if p's
    2 gap1 + gap2 - 3 r <= pi.  The boxes cover the triangle, so the kept
    ones cover S."""
    span = math.pi - 2.0 * GRID_MARGIN
    centers = GRID_MARGIN + span * (np.arange(n) + 0.5) / n
    g1, g2 = np.repeat(centers, n), np.tile(centers, n)
    valid = g1 + g2 < math.pi - GRID_MARGIN
    radius = _rect_radii(centers, valid)
    keep = valid & (g1 - g2 + 2.0 * radius >= 0.0) & (2.0 * g1 + g2 - 3.0 * radius <= math.pi)
    return _Field(centers, g1[keep], g2[keep], radius[keep])


def _semi_grid(n: int) -> _Field:
    """The n points of the diagonal gap1 = gap2, all kept, each with its cell's radius."""
    hi = (math.pi - GRID_MARGIN) / 2.0
    centers = GRID_MARGIN + (hi - GRID_MARGIN) * (np.arange(n) + 0.5) / n
    # each point's cell, the outer ones reaching 0 and pi / 2
    edges = _cell_edges(centers, math.pi / 2.0)
    radius = np.maximum(centers - edges[:-1], edges[1:] - centers)
    return _Field(centers, centers, centers.copy(), radius)


@functools.cache
def _get_field(class_tag: str) -> _Field:
    return _semi_grid(COARSE_GRID) if class_tag == SEMI_REGULAR else _rect_grid(COARSE_GRID)


# the ascent keeps shapes _EDGE inside the valid triangle and stops once its
# trust radius falls below _FINE or after _MAX_STEPS steps
_EDGE, _FINE, _MAX_STEPS = 2.0 * EPS_GEOM, 1e-9, 400


def _lp_step(x: float, y: float, rows, radius: float):
    """The step (dx, dy) and value of the highest point of the model min over
    rows (a, gx, gy) of a + gx dx + gy dy, with |dx|, |dy| <= radius and
    (x + dx, y + dy) at least _EDGE inside the valid triangle.

    The model is concave and piecewise linear, so it peaks at a vertex of the
    arrangement of the feasible polygon's edges and the lines where two rows
    are equal: a corner, a crossing of such a line with an edge, or a point
    where three rows are equal.  Every crossing is tried."""
    lo1, lo2, cut = max(-radius, _EDGE - x), max(-radius, _EDGE - y), math.pi - _EDGE - x - y
    # the box's edges, and the triangle's third edge where it can cut the box
    lines = [(1.0, 0.0, lo1), (1.0, 0.0, radius), (0.0, 1.0, lo2), (0.0, 1.0, radius)]
    lines += [(1.0, 1.0, cut)] * (cut < 2.0 * radius)
    lines += [(gx - hx, gy - hy, b - a) for (a, gx, gy), (b, hx, hy) in combinations(rows, 2)]
    slack, best = 1e-9 * radius, (0.0, 0.0, -math.inf)
    for (a1, b1, c1), (a2, b2, c2) in combinations(lines, 2):
        det = a1 * b2 - a2 * b1
        if det == 0.0:
            continue
        dx, dy = (c1 * b2 - c2 * b1) / det, (a1 * c2 - a2 * c1) / det
        if lo1 - slack <= dx <= radius + slack and lo2 - slack <= dy <= radius + slack:
            if dx + dy <= cut + slack:
                dx, dy = min(max(dx, lo1), radius), min(max(dy, lo2), radius)
                value = min(a + gx * dx + gy * dy for a, gx, gy in rows)
                if value > best[2]:
                    best = (dx, dy, value)
    return best


def _ascend(fn, x: float, y: float, radius: float):
    """Trust-region minimax ascent of fn(x, y, tol) from (x, y) (Madsen 1975).

    Each step maximises the linear model of the offsets within 2 radius of
    the minimum (``_lp_step``) and is taken if it gains over 0.01 of the
    predicted gain.  The radius doubles after a full-length step gaining
    over 0.75 of it, else shrinks fourfold.  Returns ((x, y), value) once the
    model predicts no gain, the radius falls below _FINE or _MAX_STEPS steps
    have run.  Only accepted points list their offsets within 4 radius; a
    trial point, which may be a sliver with millions of them, gives its value.
    """
    val, near = fn(x, y, 4.0 * radius)
    rows = None
    for _ in range(_MAX_STEPS):
        if radius < _FINE:
            break
        if rows is None:
            rows = [(g, *grad) for g, grad in (_offset_jet(x, y, i, j, False) for i, j in near)]
        dx, dy, model = _lp_step(x, y, [r for r in rows if r[0] <= val + 2.0 * radius], radius)
        if model <= val:
            break
        gain = (fn(x + dx, y + dy) - val) / (model - val)
        if gain > 0.01:
            x, y, rows = x + dx, y + dy, None
            val, near = fn(x, y, 4.0 * radius)
        radius *= 2.0 if gain > 0.75 and max(abs(dx), abs(dy)) == radius else 0.25
    return (x, y), val


# offsets within _ACTIVE of the minimum make up either polish's active set
_ACTIVE = 1e-6


def _newton_loop(system, pt: tuple, fn, val: float):
    """Damped Newton on system(*pt) -> (values, Jacobian rows), guarded by the objective fn(*pt).

    Works in any dimension; val is fn(*pt).  Steps that leave the valid
    shapes or fall more than 1e-12 below the best value seen are halved,
    then abandoned with a DEBUG event.  Returns (pt, val) with val the
    objective at the last accepted point, after at most 30 steps.
    """
    top = val
    for _ in range(30):
        f0, jac = system(*pt)
        if max(abs(v) for v in f0) <= 1e-14:
            break
        try:
            step, *_ = np.linalg.lstsq(np.asarray(jac), -np.asarray(f0), rcond=None)
        except np.linalg.LinAlgError:
            break
        step = [float(v) for v in step]
        if not all(map(math.isfinite, step)):
            break
        for scale in (1.0, 0.5, 0.25):
            cand = tuple(x + scale * dx for x, dx in zip(pt, step))
            cand_val = fn(*cand)
            if cand_val >= top - 1e-12:
                pt, val, top = cand, cand_val, max(top, cand_val)
                break
        else:
            _log.debug("newton: step abandoned at %r: %.17g below best %.17g", pt, cand_val, top)
            break
        if math.hypot(*(scale * dx for dx in step)) <= 1e-13:
            break
    return pt, val


def _polish_rect(fn, x: float, y: float, val: float):
    """Sharpen an ascent's end by one Newton run on the offsets within _ACTIVE of its minimum.

    Three or more such offsets meet at a vertex, where their gaps are equal.
    Two whose gradients differ meet on a ridge, where their gaps are equal
    and their gradients parallel: the cross product is zero.  A single one,
    or a mirror pair varying identically, has gradient zero at a smooth
    maximum.  Returns the point and the objective there."""
    _, active = fn(x, y, _ACTIVE)
    jets = lambda px, py: [_offset_jet(px, py, i, j) for i, j in active]
    (_, ga, _), *rest = jets(x, y)
    if len(active) >= 3:
        def system(px: float, py: float):
            (d0, (gx0, gy0), _), *rest = jets(px, py)
            return [d - d0 for d, _, _ in rest], [(gx - gx0, gy - gy0) for _, (gx, gy), _ in rest]
    elif rest and math.hypot(ga[0] - rest[0][1][0], ga[1] - rest[0][1][1]) > 1e-9:
        def system(px: float, py: float):
            (da, (gax, gay), ha), (db, (gbx, gby), hb) = jets(px, py)
            # the cross product's derivative in each gap, from both Hessians
            cross = [ha[0][n] * gby + gax * hb[1][n] - ha[1][n] * gbx - gay * hb[0][n] for n in (0, 1)]
            return [da - db, gax * gby - gay * gbx], [(gax - gbx, gay - gby), cross]
    else:
        def system(px: float, py: float):
            _, grad, hess = _offset_jet(px, py, *active[0])
            return list(grad), hess
    (x, y), val = _newton_loop(system, (x, y), fn, val)
    return x, y, val


# the golden section narrows its bracket to _HANDOVER before the crossing
# polish, and to _GOLDEN_TOL where there is no crossing to polish
_HANDOVER, _GOLDEN_TOL = 1e-7, 1e-12


def _golden_sections(fn, lo: float, hi: float):
    """Golden-section search for a maximum of fn on [lo, hi], one bracket at a time.

    Yields (width, x, value) for each bracket, the better of its two interior
    points; fn is evaluated once between two yields.  The brackets do not
    depend on where the search stops, so stopping at a narrower width passes
    through every bracket of a wider one."""
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - inv * (b - a)
    x2 = a + inv * (b - a)
    f1, f2 = fn(x1), fn(x2)
    while True:
        yield (b - a, x1, f1) if f1 >= f2 else (b - a, x2, f2)
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv * (b - a)
            f2 = fn(x2)


def _golden_max(sections, tol: float):
    """(x, value) at the first bracket of ``_golden_sections`` at most ``tol`` wide.

    Called again on the same sections with a smaller tol, the search goes on
    from the bracket after the one it stopped at."""
    for width, x, val in sections:
        if width <= tol:
            return x, val


def _polish_semi(fn, gamma: float, val: float):
    """Newton on the crossing of the two leading branches near gamma on the diagonal.

    The branches are the offsets within _ACTIVE of the minimum whose slopes
    along the diagonal differ most; Newton on the difference of their gaps
    runs on ``_newton_loop``, guarded by the objective fn(g, g).  Returns
    (gamma, val, crossed), where crossed says that the two gaps agree within
    1e-14 at gamma, ``_newton_loop``'s own test of convergence.  With one
    active offset, or with active branches that all run parallel along the
    diagonal (mirror images), there is no crossing: the input comes back
    with crossed False."""
    line = lambda g: fn(g, g)
    _, active = fn(gamma, gamma, _ACTIVE)
    if len(active) <= 1:
        return gamma, val, False
    slopes = [sum(_offset_jet(gamma, gamma, *off, False)[1]) for off in active]
    # the first pair whose slopes differ most
    a, b = max(combinations(range(len(active)), 2), key=lambda p: abs(slopes[p[0]] - slopes[p[1]]))
    if abs(slopes[a] - slopes[b]) < 1e-3:
        return gamma, val, False
    offa, offb = active[a], active[b]

    def system(g: float):
        (da, ga), (db, gb) = (_offset_jet(g, g, *off, False) for off in (offa, offb))
        return [da - db], [[sum(ga) - sum(gb)]]

    (gamma,), val = _newton_loop(system, (gamma,), line, val)
    return gamma, val, abs(system(gamma)[0][0]) <= 1e-14


def _search_semi(fn, lo: float, hi: float):
    """(gamma, value) of the semi-regular search along the diagonal within [lo, hi].

    A golden section narrows the bracket to _HANDOVER, and ``_polish_semi``
    takes over.  When its Newton ends on a crossing within _HANDOVER of the
    golden-section point, that crossing is the answer: a narrower bracket
    would only move Newton's start.  Otherwise (a maximum on one branch,
    parallel mirror branches, or a maximum pressed against gamma = pi / 2)
    the golden section continues to _GOLDEN_TOL and its point is polished.
    """
    sections = _golden_sections(lambda g: fn(g, g), lo, hi)
    start, val = _golden_max(sections, _HANDOVER)
    gamma, val, crossed = _polish_semi(fn, start, val)
    if crossed and abs(gamma - start) <= _HANDOVER:
        return gamma, val
    gamma, val, _ = _polish_semi(fn, *_golden_max(sections, _GOLDEN_TOL))
    return gamma, val


# a squared gap within this of a closed form's value matches it
_CLOSED_FORM_TOL = 1e-7


def _closed_form_tag(k: int, dsq: float) -> str:
    """The closed form that ``dsq`` matches for k colors, or "none".

    One of "loeschian", "cubic_f", "quartic", "none".  No two of these forms
    lie within 1e-6 of each other for any k < 400, so the order of the checks
    does not decide the tag.
    """
    reg = regular_dsq(k)
    if reg is not None and abs(dsq - float(reg)) < _CLOSED_FORM_TOL:
        return "loeschian"
    try:
        if abs(dsq - cubic_f(k)[1]) < _CLOSED_FORM_TOL:
            return "cubic_f"
    except DomainError:
        pass
    if k in QUARTICS and abs(dsq - quartic_dsq(k)) < _CLOSED_FORM_TOL:
        return "quartic"
    return "none"


def _finalize(k: int, class_tag: str, scheme: ColorScheme, point: tuple[float, float], val: float,
              d_upper: float, triple: TripleRepresentation | None = None) -> SolveResult:
    point = (float(point[0]), float(point[1]))
    hexagon = hexagon_from_gaps(point[0], point[1])
    triple = triple or canonical_triple(hexagon, scheme)
    if not triple.canonical:
        _log.debug("finalize: k=%d %s scheme (%d, %d) has a non-canonical triple t1=%s t2=%s",
                   k, class_tag, scheme.g, scheme.h, tuple(triple.t1), tuple(triple.t2))
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


def _start(vals: np.ndarray, grid: _Field) -> tuple[float, float]:
    """Where a scheme's local search starts: its best grid point, from its
    row of ``_Field.scan`` values, the first on ties, or the regular shape
    when no grid value is positive."""
    top = int(np.argmax(vals))
    if vals[top] <= 0.0:
        return _REGULAR_GAP, _REGULAR_GAP
    return float(grid.g1[top]), float(grid.g2[top])


def _refine(class_tag: str, scheme: ColorScheme, vals, grid: _Field, counts: list):
    """(value, gap pair) of one local search from ``_start``, maybe a local maximum only.

    A rectilinear search is ``_ascend`` then ``_polish_rect``; a semi-regular
    one ``_search_semi`` within a grid cell of its start along the diagonal.
    counts[0] counts the objective evaluations.
    """
    def fn(a: float, b: float, tol: float | None = None):
        counts[0] += 1
        return _eval_min(a, b, scheme, tol)

    x, y = _start(vals, grid)
    if class_tag == SEMI_REGULAR:
        lo = max(EPS_GEOM * 2.0, x - grid.cell)
        hi = min((math.pi - EPS_GEOM) / 2.0 - EPS_GEOM, x + grid.cell)
        gamma, val = _search_semi(fn, lo, hi)
        return val, (gamma, gamma)
    (x, y), val = _ascend(fn, x, y, 0.6 * grid.cell)
    x, y, val = _polish_rect(fn, x, y, val)
    return val, (x, y)


def _orbit(scheme: ColorScheme) -> list[ColorScheme]:
    """The distinct images of ``scheme`` under ``coloring.SYMMETRIES``, in the
    (g, h) order of ``schemes``."""
    return sorted({sym.image_scheme(scheme) for sym in SYMMETRIES}, key=lambda s: (s.g, s.h))


def optimize_scheme(k: int, scheme: ColorScheme, class_tag: str = RECTILINEAR) -> SolveResult:
    """Best shape in the class for one fixed coloring scheme.

    The answer is one local search (``_refine``) from a best coarse grid
    point, so it may be a local maximum only.  For the rectilinear class, as
    in ``solve``, the search is the orbit's: it runs for the member with the
    highest grid value, the first of the orbit in ``schemes`` order on ties,
    and its optimum is mapped onto ``scheme``.  When that image is not a
    valid shape (a sliver optimum whose third gap rounds to EPS_GEOM), the
    search runs from the scheme's own best grid point instead.  ``d_upper``
    bounds the scheme's true maximum: it is the scheme's bound U_s from
    ``solve``, so for the rectilinear class the largest scan bound over the
    scheme's orbit."""
    if class_tag not in CLASS_TAGS:
        raise DomainError(f"unknown class {class_tag!r}")
    if scheme.k != k:
        raise DomainError(f"scheme {scheme} does not color k={k}")
    if class_tag == REGULAR:
        return _solve_regular(k, [scheme], [0])

    grid = _get_field(class_tag)
    # in the order of ``schemes``, so that ties in peak go as in ``solve``
    orbit = _orbit(scheme) if class_tag == RECTILINEAR else [scheme]
    vals, upper, _ = grid.scan(*window_offsets(k, orbit))
    top = int(np.argmax(vals.max(axis=1)))
    val, pt = _refine(class_tag, orbit[top], vals[top], grid, [0])
    if orbit[top] != scheme:
        sym = next(sym for sym in SYMMETRIES if sym.image_scheme(orbit[top]) == scheme)
        pt = sym.image_gaps(*pt)
        if gaps_valid(*pt):
            val = _eval_min(pt[0], pt[1], scheme)
        else:
            val, pt = _refine(class_tag, scheme, vals[orbit.index(scheme)], grid, [0])
    return _finalize(k, class_tag, scheme, pt, val, upper.max())


# several schemes often tie at the optimum (mirror images of one another at
# mirrored shapes).  Report the one whose triple starts nearest the axis row.
_TIE_TOL = 1e-9


def _pick_tied(cands):
    """cands: list of (val, scheme, point).  Returns the preferred entry and
    its triple, None when nothing tied."""
    vmax = max(c[0] for c in cands)
    tied = [c for c in cands if c[0] >= vmax - _TIE_TOL]
    if len(tied) == 1:
        return tied[0], None

    def pref(entry):
        val, scheme, point = entry
        t = canonical_triple(hexagon_from_gaps(point[0], point[1]), scheme)
        return (t.t1.j, t.t1.i, -t.t2.j, -t.t2.i, -scheme.g, -scheme.h), entry, t

    return max(map(pref, tied), key=lambda ranked: ranked[0])[1:]


def _solve_regular(k: int, candidates, counts: list) -> SolveResult:
    """The best of the ``candidates`` schemes on the regular hexagon.

    The doubled regular hexagon holds the disc of radius sqrt(3) / 2 about
    its centre, so an offset c's gap is at most |c| - sqrt(3) / 2, and a
    scheme's minimum gap is at most U_s = |b1| - sqrt(3) / 2, with b1 the
    first vector of its reduced basis (``coloring._reduced_basis``).  The
    schemes are evaluated in descending order of U_s, the first on ties,
    until U_s falls below the best value by more than the tie tolerance: no
    later scheme can win or tie.  counts[0] counts the evaluations.
    """
    pt = (_REGULAR_GAP, _REGULAR_GAP)
    frame = _frame(*pt)
    bounds = [math.sqrt(_reduced_basis(scheme, *frame[2:])[4]) - _REGULAR_INRADIUS
              for scheme in candidates]
    cands = []
    best = -math.inf
    for bound, scheme in sorted(zip(bounds, candidates), key=lambda pair: -pair[0]):
        if bound < best - _TIE_TOL:
            break
        val = min_gap(scheme, frame)
        cands.append((val, scheme, pt))
        best = max(best, val)
    counts[0] += len(cands)
    (val, scheme, pt), triple = _pick_tied(cands)
    return _finalize(k, REGULAR, scheme, pt, val, val, triple)


# the one DEBUG line that ``solve`` logs for each class
_SUMMARY = ("solve: k=%d %s refined %d, mapped %d, skipped %d by the bound%s; "
            "best %.12g, d_upper %.12g; table rows computed %d; evaluations %d")


def solve(k: int, class_tag: str = RECTILINEAR) -> SolveResult:
    """Best shape and coloring for k colors within one shape class.

    The regular class has one shape and no scan (``_solve_regular``).  For
    the others, one ``coloring.window_offsets`` and one ``_Field.scan`` call
    give every scheme of k its peak over the grid and an upper bound U_s on
    its objective over every valid shape, the scan computing only the table
    rows that no earlier solve on the field used.  Schemes are refined in
    descending order of peak, and a scheme is skipped once U_s falls below
    the best refined value so far by more than the tie tolerance.  Every
    refined value is the objective at a valid shape, so a skipped scheme
    could not have won or tied.  The result's ``d_upper`` is the
    largest U_s.

    The scan's bound holds because on boxes around the grid points that
    cover every shape scanned, each offset's gap moves by at most
    ``_lipschitz`` times the max norm of the gap change, and the scan's
    fixed offsets can only overstate the minimum.  Outside the rectilinear
    class U_s is that bound.  A semi-regular scheme is also skipped when
    ``_bisected_bound``, the same argument on its cells halved five times
    over, puts it below the threshold.

    For the rectilinear class, relabelling the hexagon's gap directions maps
    each scheme's objective exactly onto that of every scheme in its orbit
    (see ``coloring.SYMMETRIES``), and valid shapes onto valid shapes, so the
    members of an orbit share one maximum M.  The scan covers only the
    sextant S = {gap3 >= gap1 >= gap2}: every x in S lies in the
    ``_rect_radii`` box of a grid point that ``_rect_grid`` keeps, so each
    member's scan bound bounds its objective on S.  One relabelling sorts
    any gap triple into S, so if M is attained by s at x, the relabelling
    sorting x moves it to a point of S where s's image attains M; that
    image's scan bound is at least M.  So U_s is the largest scan bound in
    the orbit of s, shared by the orbit: once a member is skipped, so are
    the members after it.  The first member in descending order of peak
    over S gets a full refinement; later ones take its optimum, moved onto
    their own shape.
    """
    if k < 3:
        raise DomainError(f"k must be at least 3: got {k}")
    if class_tag not in CLASS_TAGS:
        raise DomainError(f"unknown class {class_tag!r}")

    candidates = schemes(k)
    # objective evaluations
    counts = [0]
    if class_tag == REGULAR:
        res = _solve_regular(k, candidates, counts)
        _log.debug(_SUMMARY, k, class_tag, counts[0], 0, len(candidates) - counts[0], "",
                   res.d, res.d_upper, 0, counts[0])
        return res

    grid = _get_field(class_tag)
    table_rows = len(grid.table)
    owner, i, j = window_offsets(k, candidates)
    vals, upper, rows = grid.scan(owner, i, j)
    table_rows = len(grid.table) - table_rows
    bound = dict(zip(candidates, upper.tolist()))
    if class_tag == RECTILINEAR:
        shared = {}
        for scheme in candidates:
            if scheme not in shared:
                orbit = _orbit(scheme)
                shared.update(dict.fromkeys(orbit, max(bound[member] for member in orbit)))
        bound = shared
    d_upper = max(bound.values())
    # scheme n's offsets are the slice edges[n] : edges[n + 1], as owners ascend
    edges = [0, *np.cumsum(np.bincount(owner)).tolist()]

    refined = []
    mapped_count = 0
    # semi-regular schemes that only the bisected bound skipped
    late_skips = 0
    best = -math.inf
    # orbit member -> its representative's optimum, moved onto the member's
    # shape; rectilinear only
    images = {}
    for n in np.argsort(-vals.max(axis=1), kind="stable").tolist():
        scheme, target = candidates[n], best - _TIE_TOL
        if bound[scheme] < target:
            continue
        if class_tag == SEMI_REGULAR and refined and _bisected_bound(
                grid, *(a[edges[n] : edges[n + 1]] for a in (i, j, rows)), target) < target:
            late_skips += 1
            continue
        pt = images.get(scheme)
        if pt is None:
            v, pt = _refine(class_tag, scheme, vals[n], grid, counts)
            if class_tag == RECTILINEAR:
                for sym in SYMMETRIES[1:]:
                    images.setdefault(sym.image_scheme(scheme), sym.image_gaps(*pt))
        else:
            v = _eval_min(pt[0], pt[1], scheme)
            mapped_count += 1
            counts[0] += 1
        refined.append((v, scheme, pt))
        best = max(best, v)
    _log.debug(
        _SUMMARY, k, class_tag, len(refined) - mapped_count, mapped_count,
        len(candidates) - len(refined),
        f" ({late_skips} only after bisection)" if class_tag == SEMI_REGULAR else "",
        best, d_upper, table_rows, counts[0],
    )

    (val, scheme, point), triple = _pick_tied(refined)
    return _finalize(k, class_tag, scheme, point, val, d_upper, triple)


def solve_all(k: int, classes: Sequence[str] = CLASS_TAGS) -> SolveAllResult:
    """Solve each class in ``classes`` and crown the most restricted one that ties the best d."""
    unknown = [tag for tag in classes if tag not in CLASS_TAGS]
    if unknown or not classes:
        raise DomainError(f"classes must be a non-empty subset of {CLASS_TAGS}: got {classes!r}")
    # CLASS_TAGS runs from the most restricted class to the least
    per_class = {tag: solve(k, tag) for tag in CLASS_TAGS if tag in classes}
    best_d = max(res.d for res in per_class.values())
    champion = next(tag for tag, res in per_class.items() if res.d >= best_d - 1e-9)
    return SolveAllResult(k=k, per_class=per_class, champion_class=champion)
