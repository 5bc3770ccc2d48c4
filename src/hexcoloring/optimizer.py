"""Maximize the minimum same-color gap over hexagon shapes, per scheme and class.

The objective for a fixed coloring is ``coloring.min_gap``, the minimum gap
over every same-colored tile: near any shape, the minimum of finitely many
smooth offset-distance functions of the shape parameters, hence piecewise
smooth with kinks where the active offset changes.  Everything here is
deterministic.  The regular class has one shape, and its schemes are
evaluated in descending order of a bound from their shortest sublattice
vector until no later one can tie.  For the other classes a fixed coarse
grid (``COARSE_GRID`` points per axis; the solver has no settings) gives
each scheme its best grid point and a Lipschitz bound around each point;
those bounds, refined for semi-regular schemes by a branch and bound on
exact cell-centre values, skip the schemes that cannot win.  The rectilinear
grid covers one sixth of the shapes, the sextant gap3 >= gap1 >= gap2.  A
refined scheme's optimum is mapped onto its images under the relabellings
that keep the class: the rest of its symmetry orbit, or its semi-regular
mirror partner when that starts from the same grid point.  One refinement,
``_refine``, serves both shape classes: one local search from that grid
point, which may end at a local maximum only, then one polish, ``_polish``,
the one Newton loop: damped Newton on the first-order (KKT) conditions of
"maximise t subject to gap_c >= t" over the active offsets, which sharpens
the result to near machine precision, so that rational squared gaps can be
reconstructed from the floats.  The ascent and the polish use closed-form
offset derivatives, ``_offset_jet``, which like the other gap kernels takes
a shape's frame, built once per shape.  A rectilinear search is a
trust-region ascent.  A semi-regular search is a golden section along the
diagonal that hands over to the polish once its bracket is 1e-7 wide; where
Newton ends on no crossing there, the golden section continues to 1e-12 and
its point is polished.  A flat maximum on the diagonal (one active offset,
or slopes within 1e-3) is not polished.
"""

from __future__ import annotations

import functools
import logging
import math
import operator
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
    frame,
    gaps_valid,
    hexagon_from_gaps,
    hexagon_gap,
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
    # no valid shape in the class does better than this (see ``solve``, ``_solve_regular``)
    d_upper: float = field(compare=False)


@dataclass(frozen=True)
class SolveAllResult:
    k: int
    per_class: Mapping[str, SolveResult]
    champion_class: str

    @property
    def champion(self) -> SolveResult:
        return self.per_class[self.champion_class]


def _eval_min(g1: float, g2: float, scheme: ColorScheme, tol: float | None = None):
    """``coloring.min_gap`` at (g1, g2); -1.0, with no offsets, outside the valid triangle."""
    if not gaps_valid(g1, g2):
        return -1.0 if tol is None else (-1.0, [])
    return min_gap(scheme, frame(g1, g2), tol)


def _offset_jet(frame, i: int, j: int, hessian: bool = True):
    """Offset (i, j)'s gap at the shape of ``frame``, its gradient and its Hessian in the gaps.

    ``frame`` is ``geometry.frame``'s at the shape, so that every offset of
    one shape shares it.  The gap is ``geometry.hexagon_gap``'s from c = i e_i
    + j e_j to the frame's doubled hexagon, as ``min_gap`` takes it, and so is
    the nearest boundary point q = a + t (b - a) on edge m from a = v[m - 1]
    to b = v[m].  By the envelope theorem the gradient is u . M, with u = (c
    - q) / gap and M = dc - (1 - t) da - t db.  With gap1, c moves by (i +
    j) / 2 (cos g1, -sin g1) and v0, v3 turn clockwise; with gap2, c moves by
    i / 2 (cos g2, sin g2) and v2, v5 turn counterclockwise.  All of them
    turn at unit rate, so dM is M turned a quarter, and the Hessian is u . dM
    + (P P' - Q Q') / gap, with P the part of M along the boundary and Q =
    |b - a| dt, zero at a vertex.  Points are complex numbers; where the gap
    is 0 all derivatives are zero.  Without ``hessian``, returns only the gap
    and the gradient.
    """
    vx, vy, eix, eiy, ejx, ejy = frame
    px, py = i * eix + j * ejx, i * eiy + j * ejy
    gap, m, t = hexagon_gap(px, py, vx, vy)
    if gap == 0.0:
        return (0.0, (0.0, 0.0), ((0.0, 0.0), (0.0, 0.0)))[: 2 + hessian]
    edge = 0.0 < t < 1.0
    v = lambda a: complex(vx[a], vy[a])
    e = v(m) - v(m - 1)
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

    ``frame`` is ``geometry.frame``'s over arrays of shapes.  Each element is
    ``geometry.hexagon_gap``'s gap, operation for operation.  A point on
    v3's side of the chord from v5 to v2 is folded onto its negation, and
    only edges 0, 1 and 2 are measured: each edge's outward normal points
    along its midpoint, so they hold the nearest boundary point of a point
    on v0's side, which lies inside when it lies inside all three.  The
    operations run in place where that saves a temporary."""
    vx, vy, eix, eiy, ejx, ejy = frame
    cx = i * eix + j * ejx
    cy = i * eiy + j * ejy
    fold = vx[5] * cy - vy[5] * cx < 0.0
    np.negative(cx, out=cx, where=fold)
    np.negative(cy, out=cy, where=fold)
    inside = True
    best = None
    for m in range(3):
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
    offset's gap at each point, and ``index`` maps the offset (i, j), keyed as
    the integer i * 2**32 + j, to r; rows are shared by every scheme and k
    that use the offset.  ``radius`` gives each point a box, in the max norm
    over the gaps, that holds the point's own grid cell, and the boxes cover
    every shape the class scans: the diagonal, or the rectilinear sextant,
    as ``_rect_grid`` proves.  ``scan`` fills and reads the table.
    """

    def __init__(self, centers: np.ndarray, g1: np.ndarray, g2: np.ndarray, radius: np.ndarray):
        self.centers = centers
        self.cell = float(centers[1] - centers[0])
        self.g1 = g1
        self.g2 = g2
        self.radius = radius
        # each element is the scalar kernel's where NumPy's sin and cos match math's
        self._frame = frame(g1, g2, np.sin, np.cos)
        # the table: rows are views into the blocks ``_offset_gaps`` returned,
        # so it grows without copying or spare capacity
        self.table: list[np.ndarray] = []
        self.index: dict[int, int] = {}

    def scan(self, owner: np.ndarray, i: np.ndarray, j: np.ndarray, per_point: bool = False):
        """Each scheme's peak over the grid, where it lies, and bounds around the grid points.

        Offset (i[e], j[e]) belongs to scheme owner[e], as
        ``coloring.window_offsets`` gives them: owners ascend from 0.  A
        scheme's value at kept point p is the minimum of its offsets' gaps
        there.  No shape in p's box has a larger minimum gap over the offsets
        than its bound at p: there each offset's gap is at most its value at p
        plus radius(p) times its Lipschitz bound, and so is the minimum.
        Returns (peak, top, upper, bounds), per scheme its largest value, the
        index of the first point attaining it and its largest bound, which
        bounds the scheme; bounds[s, p] is scheme s's bound at p with
        ``per_point``, else None, so no (schemes, points) array is held.

        Each distinct offset is looked up once, and those without a row get
        one, a chunk of rows at a time.  The schemes, ordered by their number
        of offsets, are reduced a chunk at a time: each one's rows are padded
        to the chunk's longest list by repeating its first row, which leaves
        its minimum unchanged, so one reduction over an (offsets, schemes,
        points) block serves the chunk.
        """
        # (i, j) as one integer, for |j| < 2**31
        keys, first, inverse = np.unique(i * 2**32 + j, return_index=True, return_inverse=True)
        found = np.array([self.index.get(key, -1) for key in keys.tolist()], dtype=np.int64)
        new = np.flatnonzero(found < 0)
        found[new] = np.arange(len(self.table), len(self.table) + new.size)
        self.index.update(zip(keys[new].tolist(), found[new].tolist()))
        width = self.g1.size
        step = max(1, _CHUNK // width)
        new_i, new_j = i[first[new], None].astype(float), j[first[new], None].astype(float)
        for a in range(0, new.size, step):
            self.table.extend(_offset_gaps(self._frame, new_i[a : a + step], new_j[a : a + step]))
        rows = found[inverse]
        weight = _lipschitz(i, j)

        count = np.bincount(owner)
        # the schemes by their number of offsets, so that little padding is needed
        order = np.argsort(count, kind="stable")
        start, count = (np.cumsum(count) - count)[order], count[order]
        peak, top, upper = np.empty(count.size), np.empty(count.size, np.int64), np.empty(count.size)
        bounds = np.empty((count.size, width)) if per_point else None
        a = 0
        while a < count.size:
            # the most schemes from a whose padded block fits in a chunk
            block = count[a:] * np.arange(1, count.size - a + 1) * width
            b = a + max(1, int((block <= _CHUNK).sum()))
            t = np.arange(count[b - 1])[:, None]
            # offset t of each scheme, or its first offset once t passes its last
            pos = start[a:b] + np.where(t < count[a:b], t, 0)
            idx = rows[pos]
            gaps = np.concatenate(list(map(self.table.__getitem__, idx.ravel().tolist())))
            gaps = gaps.reshape(*idx.shape, width)
            vals = gaps.min(axis=0)
            peak[order[a:b]], top[order[a:b]] = vals.max(axis=1), vals.argmax(axis=1)
            gaps += weight[pos][..., None] * self.radius
            bound = gaps.min(axis=0)
            upper[order[a:b]] = bound.max(axis=1)
            if per_point:
                bounds[order[a:b]] = bound
            a = b
        return peak, top, upper, bounds


# halvings of a cell in ``_may_reach``: 4 skip what 5 do (k <= 175, 756), 3 fewer
_BISECT_DEPTH = 4


def _may_reach(scheme: ColorScheme, grid: _Field, bound, target: float, counts: list) -> bool:
    """Whether ``scheme`` may reach ``target`` on the diagonal; False proves it cannot.

    bound is its row of per-point ``_Field.scan`` bounds on ``grid``, the
    semi-regular field.  The cells whose bound reaches ``target`` are
    searched depth first, highest bound first (Piyavskii 1972; Jones et al.
    1993).  f is at most any one offset's gap, so on the part of radius r
    around a centre x, f <= f(x) + L r, L the least ``_lipschitz`` of the
    offsets attaining the exact f(x).  A part is cleared when that falls
    below ``target``, else halved; f(x) >= ``target``, or a part still open
    after _BISECT_DEPTH halvings, answers True.  counts[1] counts the
    objective evaluations."""
    for n in np.argsort(-bound, kind="stable")[: int((bound >= target).sum())].tolist():
        parts = [(float(grid.g1[n]), float(grid.radius[n]), 0)]
        while parts:
            x, r, depth = parts.pop()
            counts[1] += 1
            val, near = _eval_min(x, x, scheme, 0.0)
            if val >= target:
                return True
            if val + r * min((_lipschitz(i, j) for i, j in near), default=math.inf) >= target:
                if depth == _BISECT_DEPTH:
                    return True
                parts += [(x - 0.5 * r, 0.5 * r, depth + 1), (x + 0.5 * r, 0.5 * r, depth + 1)]
    return False


def _cell_radius(centers: np.ndarray, top: float) -> np.ndarray:
    """Each grid centre's distance to the farther edge of its cell; the cells tile [0, top]."""
    edges = np.concatenate(([0.0], 0.5 * (centers[1:] + centers[:-1]), [top]))
    return np.maximum(centers - edges[:-1], edges[1:] - centers)


def _rect_grid(n: int) -> _Field:
    """A field of the n x n grid points with gap1 >= gap2 whose boxes meet
    the sextant S = {gap3 >= gap1 >= gap2}, gap3 = pi - gap1 - gap2.

    A point's box, in the max norm, holds its own cell of [0, pi]^2: its
    radius r is the larger of the cell's half-widths.  It meets gap3 >= gap1
    only if 2 gap1 + gap2 - 3 r <= pi at its centre.  The kept boxes cover
    S: a shape x of S lies in a cell, whose box is kept if its centre has
    gap1 >= gap2; else the cell lies strictly above the diagonal, meets S
    only at its corner (e, e), the lower corner of a diagonal cell, and that
    cell's kept box holds x.  For n >= 4 every kept centre is valid: 3 (gap1
    + gap2) / 2 <= 2 gap1 + gap2 <= pi + 3 r, so gap1 + gap2 <= 2 pi / 3 +
    2 r < pi - GRID_MARGIN, as r <= 0.41."""
    span = math.pi - 2.0 * GRID_MARGIN
    centers = GRID_MARGIN + span * (np.arange(n) + 0.5) / n
    g1, g2 = np.repeat(centers, n), np.tile(centers, n)
    half = _cell_radius(centers, math.pi)
    radius = np.maximum.outer(half, half).ravel()
    keep = (g1 >= g2) & (2.0 * g1 + g2 - 3.0 * radius <= math.pi)
    return _Field(centers, g1[keep], g2[keep], radius[keep])


def _semi_grid(n: int) -> _Field:
    """The n points of the diagonal gap1 = gap2, all kept, each with its cell's radius."""
    hi = (math.pi - GRID_MARGIN) / 2.0
    centers = GRID_MARGIN + (hi - GRID_MARGIN) * (np.arange(n) + 0.5) / n
    return _Field(centers, centers, centers.copy(), _cell_radius(centers, math.pi / 2.0))


@functools.cache
def _get_field(class_tag: str) -> _Field:
    return _semi_grid(COARSE_GRID) if class_tag == SEMI_REGULAR else _rect_grid(COARSE_GRID)


# the ascent keeps shapes _EDGE inside the valid triangle and stops once its
# trust radius or a step falls below _FINE, or after _MAX_STEPS steps
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
    model predicts no gain, a step shorter than _FINE in both gaps (one at
    rounding) is tried, the radius falls below _FINE or _MAX_STEPS steps have
    run.  Only accepted points list their offsets within 4 radius; a trial
    point, which may be a sliver with millions of them, gives its value.
    """
    val, near = fn(x, y, 4.0 * radius)
    rows = None
    for _ in range(_MAX_STEPS):
        if radius < _FINE:
            break
        if rows is None:
            doubled = frame(x, y)
            rows = [(g, *grad) for g, grad in (_offset_jet(doubled, i, j, False) for i, j in near)]
        dx, dy, model = _lp_step(x, y, [r for r in rows if r[0] <= val + 2.0 * radius], radius)
        if model <= val:
            break
        gain = (fn(x + dx, y + dy) - val) / (model - val)
        if gain > 0.01:
            x, y, rows = x + dx, y + dy, None
            val, near = fn(x, y, 4.0 * radius)
        step = max(abs(dx), abs(dy))
        if step < _FINE:
            break
        radius *= 2.0 if gain > 0.75 and step == radius else 0.25
    return (x, y), val


# offsets within _ACTIVE of the minimum make up the polish's active set
_ACTIVE = 1e-6
_NEAR, _GRID = 1e-7, 2.0**-30


def _polish(fn, pt: tuple, val: float, active):
    """Damped Newton on the first-order conditions of the maximin at pt (Kuhn & Tucker 1951).

    pt is a rectilinear shape (x, y) or a point (gamma,) of the diagonal, val
    fn's value there and active the offsets within _ACTIVE of it.  At a local
    maximum of the least gap, for some t and multipliers lambda_c, gap_c = t
    for each active c, sum lambda_c grad gap_c = 0 and sum lambda_c = 1.
    Newton runs on that one system in z = (pt, t, lambda), with
    ``_offset_jet``'s derivatives along pt's axes, from t = val and
    least-squares multipliers: it serves equal gaps at a vertex, a ridge or a
    crossing, and a zero gradient at a smooth maximum.  Steps that leave the
    valid shapes or fall more than 1e-12 below the best value of fn seen are
    halved, then abandoned with a DEBUG event.  The first step shorter than
    _NEAR is the last, taken from z + step rounded to a multiple of _GRID
    where valid: from there one step lands within rounding of the root, on a
    point set by the grid point alone, whatever the start.  Returns (pt, val,
    t) at the last accepted point, val fn's value there, after at most 30
    steps."""
    dim, n = len(pt), len(active)
    # pt's axes in the gaps; the shape is (x, y), or (gamma, gamma) on the diagonal
    axes = ((1.0, 0.0), (0.0, 1.0)) if dim == 2 else ((1.0, 1.0),)
    shape = lambda p: p * (3 - dim)
    dot = lambda u, w: sum(map(operator.mul, u, w))

    @functools.lru_cache(maxsize=1)
    def jets(p: tuple):
        # the active gaps, their slopes along each axis and their second
        # derivatives along each pair of axes, one entry per offset
        doubled = frame(*shape(p))
        gaps, grads, hessians = zip(*(_offset_jet(doubled, i, j) for i, j in active))
        slopes = [[dot(u, g) for g in grads] for u in axes]
        hess = [[[dot(u, (dot(h[0], v), dot(h[1], v))) for h in hessians] for v in axes] for u in axes]
        return gaps, slopes, hess

    def newton(z: tuple):
        # the Newton step from z, or None outside the valid shapes, at a root
        # or where it cannot be solved
        if not gaps_valid(*shape(z[:dim])):
            return None
        (gaps, slopes, hess), t, lam = jets(z[:dim]), z[dim], z[dim + 1 :]
        f = [gap - t for gap in gaps] + [dot(lam, row) for row in slopes] + [sum(lam) - 1.0]
        if max(map(abs, f)) <= 1e-14:
            return None
        jac = [[*row, -1.0] + [0.0] * n for row in zip(*slopes)]
        jac += [[dot(lam, h) for h in hess[a]] + [0.0, *slopes[a]] for a in range(dim)]
        jac += [[0.0] * (dim + 1) + [1.0] * n]
        try:
            step, *_ = np.linalg.lstsq(np.asarray(jac), -np.asarray(f), rcond=None)
        except np.linalg.LinAlgError:
            return None
        return step.tolist() if np.isfinite(step).all() else None

    lam, *_ = np.linalg.lstsq([*jets(pt)[1], [1.0] * n], [0.0] * dim + [1.0], rcond=None)
    z, top = (*pt, val, *lam.tolist()), val
    for _ in range(30):
        step = newton(z)
        if step is None:
            break
        if last := math.hypot(*step) <= _NEAR:
            near = tuple(round((x + dx) / _GRID) * _GRID for x, dx in zip(z, step))
            if again := newton(near):
                step = [a + da - x for a, da, x in zip(near, again, z)]
        for scale in (1.0, 0.5, 0.25):
            cand = tuple(x + scale * dx for x, dx in zip(z, step))
            cand_val = fn(*shape(cand[:dim]))
            if cand_val >= top - 1e-12:
                z, val, top = cand, cand_val, max(top, cand_val)
                break
        else:
            _log.debug("newton: step abandoned at %r: %.17g below best %.17g", z, cand_val, top)
            break
        if last:
            break
    return z[:dim], val, z[dim]


# the golden section narrows its bracket to _HANDOVER before the polish, and
# to _GOLDEN_TOL where the polish ends on no crossing
_HANDOVER, _GOLDEN_TOL = 1e-7, 1e-12


def _search_semi(fn, lo: float, hi: float):
    """(gamma, value) of the semi-regular search along the diagonal within [lo, hi].

    A golden section narrows the bracket to _HANDOVER, and ``_polish`` takes
    over from the better of the bracket's two interior points.  When it ends
    on a crossing, every active gap within 1e-14 of t, within _HANDOVER of
    that point, the crossing is the answer: a narrower bracket would only
    move Newton's start.  Otherwise (a maximum on one branch, parallel
    mirror branches, or a maximum pressed against gamma = pi / 2) the same
    golden section goes on to _GOLDEN_TOL and its point is polished, unless
    it is flat: one active offset, or active slopes within 1e-3.
    """
    line = lambda g: fn(g, g)
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1, x2 = b - inv * (b - a), a + inv * (b - a)
    f1, f2 = line(x1), line(x2)
    for tol in (_HANDOVER, _GOLDEN_TOL):
        while b - a > tol:
            if f1 >= f2:
                b, x2, f2 = x2, x1, f1
                x1 = b - inv * (b - a)
                f1 = line(x1)
            else:
                a, x1, f1 = x1, x2, f2
                x2 = a + inv * (b - a)
                f2 = line(x2)
        start, val = (x1, f1) if f1 >= f2 else (x2, f2)
        gamma, crossed = start, False
        _, active = fn(start, start, _ACTIVE)
        # the flat guard; polishing flat maxima too is ROADMAP item 3
        doubled = frame(start, start)
        slopes = [sum(_offset_jet(doubled, *off, False)[1]) for off in active]
        if len(active) > 1 and max(slopes) - min(slopes) >= 1e-3:
            (gamma,), val, t = _polish(fn, (start,), val, active)
            doubled = frame(gamma, gamma)
            crossed = all(abs(_offset_jet(doubled, *off, False)[0] - t) <= 1e-14 for off in active)
        if crossed and abs(gamma - start) <= _HANDOVER:
            break
    return gamma, val


# a squared gap within this of a closed form's value matches it
_CLOSED_FORM_TOL = 1e-7


@functools.cache
def closed_forms(k: int) -> tuple:
    """(family, squared gap) of each closed form known for k colors, computed once per k.

    "loeschian" gives a Fraction, then "cubic_f" and "quartic" floats.  No two
    lie within 1e-6 of each other for any k < 400, so the order does not
    decide ``_closed_form_tag``."""
    forms = []
    reg = regular_dsq(k)
    if reg is not None:
        forms.append(("loeschian", reg))
    try:
        forms.append(("cubic_f", cubic_f(k)[1]))
    except DomainError:
        pass
    if k in QUARTICS:
        forms.append(("quartic", quartic_dsq(k)))
    return tuple(forms)


def _closed_form_tag(k: int, dsq: float) -> str:
    """The first family of ``closed_forms(k)`` that ``dsq`` matches, or "none"."""
    return next((name for name, value in closed_forms(k)
                 if abs(dsq - float(value)) < _CLOSED_FORM_TOL), "none")


# several schemes often tie at the optimum (mirror images of one another at
# mirrored shapes).  Report the one whose triple starts nearest the axis row.
_TIE_TOL = 1e-9


def _finalize(k: int, class_tag: str, cands, d_upper: float) -> SolveResult:
    """The result for the best of cands, (value, scheme, gap pair) entries, bounded by ``d_upper``.

    Of the entries within _TIE_TOL of the largest value, the one whose triple
    ranks first wins (largest t1.j, then t1.i; smallest t2.j, t2.i, g, h);
    each tied entry's hexagon and triple are built once."""
    top = max(entry[0] for entry in cands)

    def ranked(entry):
        val, scheme, point = entry
        point = (float(point[0]), float(point[1]))
        hexagon = hexagon_from_gaps(*point)
        t = canonical_triple(hexagon, scheme)
        key = (t.t1.j, t.t1.i, -t.t2.j, -t.t2.i, -scheme.g, -scheme.h)
        return key, float(val), scheme, point, hexagon, t

    tied = (ranked(entry) for entry in cands if entry[0] >= top - _TIE_TOL)
    _, val, scheme, point, hexagon, triple = max(tied, key=lambda ranking: ranking[0])
    if not triple.canonical:
        _log.debug("finalize: k=%d %s scheme (%d, %d) has a non-canonical triple t1=%s t2=%s",
                   k, class_tag, scheme.g, scheme.h, tuple(triple.t1), tuple(triple.t2))
    dsq = val * val
    return SolveResult(k=k, class_tag=class_tag, scheme=scheme, gaps=point, r=hexagon.r,
                       s=hexagon.s, d=val, dsq=dsq, triple=triple,
                       dsq_rational=stable_dsq_rational(dsq),
                       closed_form_tag=_closed_form_tag(k, dsq), d_upper=float(d_upper))


def _start(grid: _Field, peak: float, top: int) -> tuple[float, float]:
    """Where a scheme's search starts: its scan top, or the regular shape if its peak is <= 0."""
    return (float(grid.g1[top]), float(grid.g2[top])) if peak > 0.0 else (_REGULAR_GAP, _REGULAR_GAP)


def _refine(class_tag: str, scheme: ColorScheme, start: tuple, grid: _Field, counts: list):
    """(value, gap pair) of one local search from start, maybe a local maximum only.

    start is the scheme's ``_start`` on ``grid``.  A rectilinear search is
    ``_ascend`` then ``_polish``; a semi-regular one ``_search_semi`` within
    a grid cell of its start along the diagonal.  counts[0] counts the
    objective evaluations.
    """
    def fn(a: float, b: float, tol: float | None = None):
        counts[0] += 1
        return _eval_min(a, b, scheme, tol)

    x, y = start
    if class_tag == SEMI_REGULAR:
        lo = max(EPS_GEOM * 2.0, x - grid.cell)
        hi = min((math.pi - EPS_GEOM) / 2.0 - EPS_GEOM, x + grid.cell)
        gamma, val = _search_semi(fn, lo, hi)
        return val, (gamma, gamma)
    (x, y), val = _ascend(fn, x, y, 0.6 * grid.cell)
    (x, y), val, _ = _polish(fn, (x, y), val, fn(x, y, _ACTIVE)[1])
    return val, (x, y)


# the relabellings that map each class's shapes into the class, the identity
# first: all six for the rectilinear class, the mirror for the semi-regular one
_RELABELLINGS = {RECTILINEAR: SYMMETRIES, SEMI_REGULAR: SYMMETRIES[::3]}


def _orbit(scheme: ColorScheme, symmetries=SYMMETRIES) -> list[ColorScheme]:
    """The distinct images of ``scheme`` under ``symmetries``, by default all
    of ``coloring.SYMMETRIES``, in the (g, h) order of ``schemes``."""
    return sorted({sym.image_scheme(scheme) for sym in symmetries}, key=lambda s: (s.g, s.h))


def _check(k: int, class_tag: str) -> None:
    """Raise ``DomainError`` unless k >= 3 and ``class_tag`` is a known class."""
    if k < 3:
        raise DomainError(f"k must be at least 3: got {k}")
    if class_tag not in CLASS_TAGS:
        raise DomainError(f"unknown class {class_tag!r}")


def optimize_scheme(k: int, scheme: ColorScheme, class_tag: str = RECTILINEAR) -> SolveResult:
    """Best shape in the class for one fixed coloring scheme.

    ``solve``'s scheme loop, ``_refine_schemes``, runs as it is on the
    scheme's orbit (rectilinear) or mirror pair (semi-regular), so the answer
    is the one ``solve`` gets for the scheme when no bound skips it, and it
    may be a local maximum only.  No member of the orbit skips another: each
    one's bound holds the optimum of the others.  ``d_upper`` is the scheme's
    bound U_s from ``solve``; for the regular class it is ``_solve_regular``
    on the one scheme.  Logs one ``_SUMMARY`` DEBUG record."""
    _check(k, class_tag)
    if scheme.k != k:
        raise DomainError(f"scheme {scheme} does not color k={k}")
    if class_tag == REGULAR:
        return _solve_regular(k, [scheme])
    refined, bound = _refine_schemes(k, class_tag, _orbit(scheme, _RELABELLINGS[class_tag]))
    return _finalize(k, class_tag, [entry for entry in refined if entry[1] == scheme], bound[scheme])


def _solve_regular(k: int, candidates) -> SolveResult:
    """The best of the ``candidates`` schemes on the regular hexagon.

    The doubled regular hexagon holds the disc of radius sqrt(3) / 2 about
    its centre, so an offset c's gap is at most |c| - sqrt(3) / 2, and a
    scheme's minimum gap is at most U_s = |b1| - sqrt(3) / 2, with b1 the
    first vector of its reduced basis (``coloring._reduced_basis``).  The
    schemes are evaluated in descending order of U_s, the first on ties,
    until U_s falls below the best value by more than the tie tolerance: no
    later scheme can win or tie, so the best value evaluated is ``d_upper``.
    Logs the ``_SUMMARY`` DEBUG record, each evaluated scheme counted as
    refined.
    """
    pt = (_REGULAR_GAP, _REGULAR_GAP)
    doubled = frame(*pt)
    bounds = [math.sqrt(_reduced_basis(scheme, *doubled[2:])[4]) - _REGULAR_INRADIUS
              for scheme in candidates]
    cands = []
    best = -math.inf
    for bound, scheme in sorted(zip(bounds, candidates), key=lambda pair: -pair[0]):
        if bound < best - _TIE_TOL:
            break
        val = min_gap(scheme, doubled)
        cands.append((val, scheme, pt))
        best = max(best, val)
    res = _finalize(k, REGULAR, cands, best)
    _log.debug(_SUMMARY, k, REGULAR, len(cands), 0, len(candidates) - len(cands), "",
               res.d, res.d_upper, 0, len(cands))
    return res


# the one DEBUG line that each ``solve`` and ``optimize_scheme`` logs, from
# ``_solve_regular`` or ``_refine_schemes``
_SUMMARY = ("solve: k=%d %s refined %d, mapped %d, skipped %d by the bound%s; "
            "best %.12g, d_upper %.12g; table rows computed %d; evaluations %d")


def _refine_schemes(k: int, class_tag: str, candidates: list[ColorScheme]):
    """The scheme loop of ``solve`` over ``candidates``, semi-regular or rectilinear.

    Returns (refined, bound): a (value, scheme, gap pair) entry for each
    candidate that no bound skipped, and each candidate's upper bound U_s.
    Schemes go in descending order of their grid peak, and only the
    semi-regular scan keeps each scheme's bound at each grid point, for
    ``_may_reach``.  A refined scheme's optimum is moved by each of the
    class's ``_RELABELLINGS`` onto its image's shape, and an image visited
    later takes it with one evaluation and no skip test, or is searched from
    its own start when that shape is not valid.  A semi-regular image takes
    it only when it has the same ``_start``; a rectilinear one whatever its
    start.  Logs the ``_SUMMARY`` DEBUG record."""
    grid = _get_field(class_tag)
    table_rows = len(grid.table)
    semi = class_tag == SEMI_REGULAR
    peak, top, upper, bounds = grid.scan(*window_offsets(k, candidates), per_point=semi)
    table_rows = len(grid.table) - table_rows
    bound = dict(zip(candidates, upper.tolist()))
    if not semi:
        shared = {}
        for scheme in candidates:
            if scheme not in shared:
                orbit = _orbit(scheme)
                shared.update(dict.fromkeys(orbit, max(bound[member] for member in orbit)))
        bound = shared

    # objective evaluations: in refinements, and in ``_may_reach``
    counts = [0, 0]
    refined = []
    mapped_count = 0
    # semi-regular schemes that only ``_may_reach`` skipped
    late_skips = 0
    best = -math.inf
    # (scheme, start) -> the optimum of a scheme refined before, moved onto
    # the scheme's shape; start is None in the rectilinear class
    images = {}
    for n in np.argsort(-peak, kind="stable").tolist():
        scheme, target = candidates[n], best - _TIE_TOL
        if bound[scheme] < target:
            continue
        start = _start(grid, peak[n], top[n])
        key = (scheme, start if semi else None)
        pt = images.get(key)
        if pt is None and semi and refined and not _may_reach(
                scheme, grid, bounds[n], target, counts):
            late_skips += 1
            continue
        if pt is None or not gaps_valid(*pt):
            v, pt = _refine(class_tag, scheme, start, grid, counts)
            for sym in _RELABELLINGS[class_tag][1:]:
                images.setdefault((sym.image_scheme(scheme), key[1]), sym.image_gaps(*pt))
        else:
            v = _eval_min(pt[0], pt[1], scheme)
            mapped_count += 1
            counts[0] += 1
        refined.append((v, scheme, pt))
        best = max(best, v)
    _log.debug(
        _SUMMARY, k, class_tag, len(refined) - mapped_count, mapped_count,
        len(candidates) - len(refined),
        f" ({late_skips} only after bisection); {counts[1]} evaluations in the skip test"
        if semi else "",
        best, max(bound.values()), table_rows, counts[0],
    )
    return refined, bound


def solve(k: int, class_tag: str = RECTILINEAR) -> SolveResult:
    """Best shape and coloring for k colors within one shape class.

    The regular class has one shape and no scan (``_solve_regular``).  For
    the others, one ``coloring.window_offsets`` and one ``_Field.scan`` call
    give every scheme of k its peak over the grid points, the first point
    attaining it and its largest bound, an upper bound U_s on its objective
    over every valid shape; the scan computes only the table rows that no
    earlier solve on the field used.  Schemes are refined in descending order
    of peak, each from its peak's point, and a scheme is skipped once U_s
    falls below the best refined value so far by more than the tie
    tolerance.  Every refined value is the objective at a valid shape, so a
    skipped scheme could not have won or tied.  The result's ``d_upper`` is
    the largest U_s.

    The scan's bound holds because on boxes around the grid points that
    cover every shape scanned, each offset's gap moves by at most
    ``_lipschitz`` times the max norm of the gap change, and the scan's
    fixed offsets can only overstate the minimum.  Outside the rectilinear
    class U_s is that bound.  A semi-regular scheme is also skipped when
    ``_may_reach`` proves it below the threshold from its bound at each grid
    point, which the scan keeps for this class only: the same argument, with
    the offsets that attain the exact minimum at a cell's centre, on cells
    halved up to four times.

    For the rectilinear class, relabelling the hexagon's gap directions maps
    each scheme's objective exactly onto that of every scheme in its orbit
    (see ``coloring.SYMMETRIES``), and valid shapes onto valid shapes, so the
    members of an orbit share one maximum M.  The scan covers only the
    sextant S = {gap3 >= gap1 >= gap2}: ``_rect_grid`` proves that its kept
    boxes cover S, so each member's scan bound bounds its objective on S.
    One relabelling sorts any gap triple into S, so if M is attained by s at
    x, the relabelling sorting x moves it to a point of S where s's image
    attains M; that image's scan bound is at least M.  So U_s is the largest
    scan bound in the orbit of s, shared by the orbit: once a member is
    skipped, so are the members after it.  The first member in descending
    order of peak over S gets a full refinement; later ones take its
    optimum, moved onto their own shape (``_refine_schemes``).  The mirror
    (gap1, gap2) -> (gap2, gap1) fixes every semi-regular shape, so a mirror
    pair that starts from one grid point is searched once.
    """
    _check(k, class_tag)
    candidates = schemes(k)
    if class_tag == REGULAR:
        return _solve_regular(k, candidates)
    refined, bound = _refine_schemes(k, class_tag, candidates)
    return _finalize(k, class_tag, refined, max(bound.values()))


def solve_all(k: int, classes: Sequence[str] = CLASS_TAGS) -> SolveAllResult:
    """Solve each class in ``classes`` and crown the most restricted one that ties the best d."""
    unknown = [tag for tag in classes if tag not in CLASS_TAGS]
    if unknown or not classes:
        raise DomainError(f"classes must be a non-empty subset of {CLASS_TAGS}: got {classes!r}")
    # CLASS_TAGS runs from the most restricted class to the least
    per_class = {tag: solve(k, tag) for tag in CLASS_TAGS if tag in classes}
    best_d = max(res.d for res in per_class.values())
    champion = next(tag for tag, res in per_class.items() if res.d >= best_d - _TIE_TOL)
    return SolveAllResult(k=k, per_class=per_class, champion_class=champion)
