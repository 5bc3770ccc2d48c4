"""Reference refinements: the solver's former starts, each run to the end.

The solver runs one local search from each scheme's best coarse grid point,
or from the regular shape when no grid value is positive
(``optimizer._start``).  Before, it also searched from the regular shape
(``refine_from_both_starts``).  Before that, it started rectilinear searches
from the six best grid maxima, the best diagonal grid point and the regular
shape (``rect_seeds``), and semi-regular searches from the three best grid
maxima along the diagonal (``semi_starts``).  The tests compare the solver
against those starts: rectilinear ones refined by a slower, derivative-free
Nelder-Mead run to the end and then polished (``refine_every_start``),
semi-regular ones by the solver's own search, ``optimizer._search_semi``
(``refine_semi_every_start``).

That search hands the golden section's point to ``optimizer._polish`` once
the bracket is ``optimizer._HANDOVER`` wide.  Before, the golden section
always ran to ``optimizer._GOLDEN_TOL`` first (``golden_search_semi``), and
the tests compare the two.  ``golden_max`` is the former golden section,
started afresh for each width, against which the solver's resumed one is
checked.
"""

from __future__ import annotations

import math

import numpy as np

from hexcoloring.geometry import EPS_GEOM, frame
from hexcoloring.optimizer import (
    _ACTIVE,
    _GOLDEN_TOL,
    _eval_min,
    _offset_jet,
    _polish,
    _refine,
    _search_semi,
)
from scan_oracle import square_values

_REGULAR = (math.pi / 3.0, math.pi / 3.0)


def local_maxima_2d(vals: np.ndarray, n: int) -> np.ndarray:
    """Flat indices of an n x n grid's positive strict-or-plateau maxima, best first.

    Ties are ordered by index."""
    grid = vals.reshape(n, n)
    padded = np.full((n + 2, n + 2), -np.inf)
    padded[1:-1, 1:-1] = grid
    ok = np.ones((n, n), bool)
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr or dc:
                ok &= grid >= padded[1 + dr : n + 1 + dr, 1 + dc : n + 1 + dc]
    idx = np.flatnonzero(ok.ravel() & (vals > 0.0))
    return idx[np.argsort(-vals[idx], kind="stable")]


def local_maxima_1d(vals: np.ndarray) -> np.ndarray:
    """Indices of the positive strict-or-plateau maxima of a row, best first, ties by index."""
    padded = np.concatenate(([-np.inf], vals, [-np.inf]))
    idx = np.flatnonzero((vals >= padded[:-2]) & (vals >= padded[2:]) & (vals > 0.0))
    return idx[np.argsort(-vals[idx], kind="stable")]


def rect_seeds(vals: np.ndarray, grid, count: int = 6):
    """The former rectilinear seeds: the ``count`` best grid maxima, the best
    diagonal grid point if positive, then the regular shape.  ``vals`` holds
    a scheme's values at the kept points of ``grid``, the rectilinear field;
    the maxima are taken on the square of its centres, -1 where not kept."""
    centers = grid.centers
    n = len(centers)
    vals = square_values(grid, vals)
    maxima = local_maxima_2d(vals, n)[:count]
    seeds = [(float(centers[f // n]), float(centers[f % n])) for f in maxima]
    diag = vals[np.arange(n) * (n + 1)]
    if diag.max() > 0.0:
        c = float(centers[int(np.argmax(diag))])
        seeds.append((c, c))
    return [*seeds, _REGULAR]


def semi_starts(vals: np.ndarray, centers: np.ndarray):
    """The former semi-regular starts: the three best grid maxima, or the
    regular shape when there is no positive maximum."""
    return [float(centers[idx]) for idx in local_maxima_1d(vals)[:3]] or [_REGULAR[0]]


def refine_from_both_starts(class_tag, scheme, start, grid, counts):
    """The former ``optimizer._refine``: the better (value, gaps) of its one
    search and one from the regular shape, the first on ties."""
    best = _refine(class_tag, scheme, start, grid, counts)
    other = _refine(class_tag, scheme, _REGULAR, grid, counts)
    return other if other[0] > best[0] else best


def nm_max(fn, x0: float, y0: float, step: float, max_iters: int = 400):
    """Deterministic Nelder-Mead ascent from a fixed right-triangle simplex.

    Returns the best vertex and its value once the values agree within
    1e-12 on a simplex of size 1e-9, or after ``max_iters`` iterations.
    """
    simplex = [(x0, y0), (x0 + step, y0), (x0, y0 + step)]
    vals = [fn(x, y) for x, y in simplex]
    for _ in range(max_iters):
        order = sorted(range(3), key=lambda m: -vals[m])
        simplex = [simplex[m] for m in order]
        vals = [vals[m] for m in order]
        size = max(
            abs(simplex[0][0] - simplex[2][0]),
            abs(simplex[0][1] - simplex[2][1]),
            abs(simplex[0][0] - simplex[1][0]),
            abs(simplex[0][1] - simplex[1][1]),
        )
        if vals[0] - vals[2] <= 1e-12 and size <= 1e-9:
            break
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
    return simplex[top], vals[top]


def refine_every_start(scheme, seeds, cell: float) -> float:
    """The best value of Nelder-Mead run to the end from every seed, then polished."""
    fn = lambda a, b, tol=None: _eval_min(a, b, scheme, tol)
    best_pt, best_val = seeds[0], fn(*seeds[0])
    for sx, sy in seeds:
        pt, pv = nm_max(fn, sx, sy, 0.6 * cell)
        if pv > best_val:
            best_pt, best_val = pt, pv
    _, val, _ = _polish(fn, best_pt, best_val, fn(*best_pt, _ACTIVE)[1])
    return max(val, best_val)


def golden_max(fn, lo: float, hi: float, tol: float):
    """(x, value) of a golden-section search for a maximum of fn on [lo, hi],
    run from the start to a bracket of width ``tol``: the better interior point."""
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


def golden_search_semi(fn, lo: float, hi: float):
    """The former ``optimizer._search_semi``: the golden section run to
    _GOLDEN_TOL, then the polish, whatever it finds, unless the point is a
    flat maximum (one active offset, or active slopes along the diagonal
    within 1e-3 of each other)."""
    gamma, val = golden_max(lambda g: fn(g, g), lo, hi, _GOLDEN_TOL)
    _, active = fn(gamma, gamma, _ACTIVE)
    slopes = [sum(_offset_jet(frame(gamma, gamma), *off, False)[1]) for off in active]
    if len(active) > 1 and max(slopes) - min(slopes) >= 1e-3:
        (gamma,), val, _ = _polish(fn, (gamma,), val, active)
    return gamma, val


def refine_semi_every_start(scheme, starts, cell: float):
    """(value, gaps) of the best ``optimizer._search_semi`` over the starts,
    the first on ties, each searched within a grid cell."""
    fn = lambda a, b, tol=None: _eval_min(a, b, scheme, tol)
    best_val, best_pt = -1.0, _REGULAR
    for gamma0 in starts:
        lo = max(EPS_GEOM * 2.0, gamma0 - cell)
        hi = min((math.pi - EPS_GEOM) / 2.0 - EPS_GEOM, gamma0 + cell)
        gamma, val = _search_semi(fn, lo, hi)
        if val > best_val:
            best_val, best_pt = val, (gamma, gamma)
    return best_val, best_pt
