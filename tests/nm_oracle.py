"""Reference rectilinear refinement: Nelder-Mead from every seed, each run to the end.

The solver ascends from its seeds on closed-form offset gradients and
finishes only the leading ascent.  This slower, derivative-free search is
what the tests compare it against.
"""

from __future__ import annotations

from hexcoloring.optimizer import _eval_min, _polish_rect


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
    x, y, val = _polish_rect(fn, best_pt[0], best_pt[1], best_val, 1e-6)
    return max(val, best_val)
