"""Acceptance checks, one criterion per test.

Each test prints a single verdict line (bypassing capture, so the lines
show up in any pytest run) and then asserts, so a regression both fails
the suite and names the criterion.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from geometry_oracle import polygon_area
from offset_window import min_distance_over_offsets
from helpers import rational_reconstruct
from hexcoloring.analysis import load_reference, monotonicity_report
from hexcoloring.coloring import lattice_basis
from hexcoloring.evaluator import cubic_f, quartic_dsq, regular_dsq
from hexcoloring.geometry import (
    RECTILINEAR,
    REGULAR,
    SEMI_REGULAR,
    hexagon_from_gaps,
)
from hexcoloring.optimizer import solve_all


@pytest.fixture
def verdict(capsys):
    """Prints one PASS/FAIL line per criterion, visible even under capture."""

    def emit(tag, failures):
        status = "FAIL" if failures else "PASS"
        with capsys.disabled():
            print(f"{tag}: {status}", flush=True)
        assert not failures, f"{tag}: " + "; ".join(str(f) for f in failures)

    return emit


def test_c1_reference_agreement_and_budget(champions, verdict):
    results, seconds = champions
    by_k = {row.k: row for row in load_reference()}
    failures = []
    for k in range(3, 31):
        delta = abs(results[k].champion.d - by_k[k].d_approx)
        if delta > 1e-4:
            failures.append(f"k={k} |d - reference| = {delta:.2e}")
        if seconds[k] > 5.0:
            failures.append(f"k={k} took {seconds[k]:.2f}s")
    verdict("C1 solve_all matches reference within 1e-4 in under 5s per k", failures)


def test_c2_exact_rational_gaps(champions, verdict):
    results, _ = champions
    want = {8: (49, 25), 15: (153, 32), 22: (193496, 21275), 24: (869, 86)}
    failures = []
    for k, frac in want.items():
        got = rational_reconstruct(results[k].champion.dsq, 10**6, 1e-8)
        if got != frac:
            failures.append(f"k={k}: reconstructed {got}, want {frac}")
    verdict("C2 squared gaps reconstruct to the exact fractions", failures)


def test_c3_polynomial_closed_forms(champions, verdict):
    results, _ = champions
    failures = []
    for k in (6, 20, 30):
        dsq = results[k].per_class[RECTILINEAR].dsq
        if abs(dsq - cubic_f(k)[1]) >= 1e-6:
            failures.append(f"k={k}: |dsq - cubic root| = {abs(dsq - cubic_f(k)[1]):.2e}")
    for k in (11, 23):
        dsq = results[k].per_class[RECTILINEAR].dsq
        if abs(dsq - quartic_dsq(k)) >= 1e-6:
            failures.append(f"k={k}: |dsq - quartic root| = {abs(dsq - quartic_dsq(k)):.2e}")
    verdict("C3 rectilinear optima hit the cubic and quartic roots within 1e-6", failures)


def test_c4_regular_closed_forms_exact(verdict):
    want = {
        4: Fraction(3, 4),
        7: Fraction(7, 4),
        9: Fraction(3),
        12: Fraction(4),
        13: Fraction(19, 4),
        16: Fraction(27, 4),
        19: Fraction(31, 4),
        21: Fraction(37, 4),
        25: Fraction(12),
        27: Fraction(49, 4),
        28: Fraction(13),
        49: Fraction(27),
        84: Fraction(49),
        147: Fraction(367, 4),
    }
    failures = []
    for k, frac in want.items():
        got = regular_dsq(k)
        if got != frac:
            failures.append(f"k={k}: got {got}, want {frac}")
    verdict("C4 regular closed forms are exactly the listed rationals", failures)


def test_c5_large_k_behavior(verdict):
    failures = []
    res112 = solve_all(112)
    rect = res112.per_class[RECTILINEAR].dsq
    if not rect > 67.0 + 1e-3:
        failures.append(f"k=112 rectilinear dsq {rect:.6f} fails to beat 67")
    if abs(float(regular_dsq(112)) - 67.0) > 1e-12:
        failures.append("k=112 regular closed form is not 67")
    if not cubic_f(156)[1] > 97.0:
        failures.append(f"cubic_f(156) = {cubic_f(156)[1]:.6f} <= 97")
    if not cubic_f(756)[1] > float(regular_dsq(756)):
        failures.append("cubic_f(756) fails to beat the regular closed form")
    verdict("C5 large-k gaps beat the regular closed forms", failures)


# --- C6: property bundle with an independent dense-scan oracle ------------

_MARGIN = 0.10


def _oracle_schemes(k):
    return [(g, h) for g in range(1, k + 1) if k % g == 0 for h in range(g)]


def _oracle_offsets(k, g, h, bound):
    m = k // g
    out = {(g, 0), (h, m)}
    for j in range(0, bound + 1, m):
        base = (j // m) * h % g
        for i in range(-bound, bound + 1):
            if j == 0 and i <= 0:
                continue
            if abs(i) + j > bound:
                continue
            if (i - base) % g == 0:
                out.add((i, j))
    return sorted(out)


def _oracle_basis(g1, g2):
    # vertex sums give the translation lattice: e_i = v0 - v2, e_j = v0 + v1
    a0 = np.pi / 2 - g1
    a2 = np.pi / 2 + g2
    eix = (np.cos(a0) - np.cos(a2)) / 2.0
    eiy = (np.sin(a0) - np.sin(a2)) / 2.0
    ejx = np.cos(a0) / 2.0
    ejy = (np.sin(a0) + 1.0) / 2.0
    return eix, eiy, ejx, ejy


def _oracle_frame(g1, g2):
    """Shape-only arrays at shapes (g1, g2): the lattice basis, a ones array,
    and each doubled-hexagon edge's start, direction and squared length."""
    a0 = np.pi / 2 - g1
    a2 = np.pi / 2 + g2
    one = np.ones_like(np.asarray(g1, dtype=float))
    wx = [np.cos(a0), 0.0 * one, np.cos(a2)]
    wy = [np.sin(a0), one, np.sin(a2)]
    vx = wx + [-w for w in wx]
    vy = wy + [-w for w in wy]
    edges = []
    for m in range(6):
        ax, ay = vx[m], vy[m]
        ex, ey = vx[(m + 1) % 6] - ax, vy[(m + 1) % 6] - ay
        edges.append((ax, ay, ex, ey, ex * ex + ey * ey))
    return _oracle_basis(g1, g2), one, edges


def _oracle_hex_dist(frame, cx, cy):
    # distance from (cx, cy) to the doubled hexagon, vectorized over shapes
    _, one, edges = frame
    inside = np.ones_like(one, dtype=bool)
    best = np.full_like(one, np.inf)
    for ax, ay, ex, ey, ee in edges:
        px, py = cx - ax, cy - ay
        inside &= ex * py - ey * px >= 0.0
        t = np.minimum(np.maximum((px * ex + py * ey) / ee, 0.0), 1.0)
        best = np.minimum(best, np.hypot(px - t * ex, py - t * ey))
    return np.where(inside, 0.0, best)


def _oracle_value(frame, offsets, cache=None):
    (eix, eiy, ejx, ejy), one, _ = frame
    val = np.full_like(one, np.inf)
    for i, j in offsets:
        d = cache.get((i, j)) if cache is not None else None
        if d is None:
            d = _oracle_hex_dist(frame, i * eix + j * ejx, i * eiy + j * ejy)
            if cache is not None:
                cache[(i, j)] = d
        val = np.minimum(val, d)
    return val


def _oracle_grid(lo1, hi1, lo2, hi2, n):
    u1 = np.linspace(lo1, hi1, n)
    u2 = np.linspace(lo2, hi2, n)
    m1, m2 = np.meshgrid(u1, u2)
    g1, g2 = m1.ravel(), m2.ravel()
    keep = g1 + g2 <= np.pi - _MARGIN
    return g1[keep], g2[keep]


def _oracle_scan():
    """The 180-point scan grid, its shape-only arrays and a per-offset cache.

    The grid does not depend on k, so one scan serves every k's oracle.
    """
    hi = math.pi - 2 * _MARGIN
    g1, g2 = _oracle_grid(_MARGIN, hi, _MARGIN, hi, 180)
    return g1, g2, _oracle_frame(g1, g2), {}


def _oracle_best(k, scan=None):
    """Dense scan over shapes and schemes, honest about window clipping.

    Narrow-window values are only trusted once the per-scheme argmax is
    confirmed by a much wider window; clipped mirages get deflated in place.
    Refinement zooms always use the wide window.
    """
    bound = math.isqrt(4 * k) + 4
    hi = math.pi - 2 * _MARGIN
    g1, g2, frame, cache = scan or _oracle_scan()
    cell = (hi - _MARGIN) / 179

    narrow = {}
    wide = {}
    vals = {}
    for s in _oracle_schemes(k):
        narrow[s] = _oracle_offsets(k, s[0], s[1], bound)
        wide[s] = _oracle_offsets(k, s[0], s[1], 3 * bound)
        vals[s] = _oracle_value(frame, narrow[s], cache)

    validated = {}
    for s, v in vals.items():
        wide_at = {}
        for _ in range(5000):
            idx = int(np.argmax(v))
            if idx not in wide_at:
                # the wide window at the scheme's 32 highest unchecked points at once
                top = [p for p in np.argsort(-v, kind="stable")[:32].tolist() if p not in wide_at]
                wide_vals = _oracle_value(_oracle_frame(g1[top], g2[top]), wide[s])
                wide_at.update(zip(top, wide_vals.tolist()))
            honest = wide_at[idx]
            if honest >= v[idx] - 1e-9:
                validated[s] = (float(v[idx]), idx)
                break
            v[idx] = honest
        else:
            raise AssertionError(f"oracle deflation did not settle for scheme {s}")

    best = max(val for val, _ in validated.values())
    ranked = sorted(validated, key=lambda s: validated[s][0], reverse=True)[:3]
    for s in ranked:
        _, idx = validated[s]
        c1, c2 = float(g1[idx]), float(g2[idx])
        span = 2.5 * cell
        for _ in range(2):
            z1, z2 = _oracle_grid(
                max(_MARGIN, c1 - span), c1 + span, max(_MARGIN, c2 - span), c2 + span, 90
            )
            if z1.size == 0:
                break
            zv = _oracle_value(_oracle_frame(z1, z2), wide[s])
            j = int(np.argmax(zv))
            c1, c2 = float(z1[j]), float(z2[j])
            best = max(best, float(zv[j]))
            span = 6.0 * span / 89
    return best


def test_c6_property_suite(champions, verdict):
    results, _ = champions
    failures = []

    # shape-class nesting
    for k in range(5, 16):
        per = results[k].per_class
        if not (per[REGULAR].d <= per[SEMI_REGULAR].d + 1e-9):
            failures.append(f"nesting: k={k} regular beats semi_regular")
        if not (per[SEMI_REGULAR].d <= per[RECTILINEAR].d + 1e-9):
            failures.append(f"nesting: k={k} semi_regular beats rectilinear")

    # rotation invariance of the evaluated gap
    for k in (5, 7, 10):
        res = results[k].champion
        hexagon = hexagon_from_gaps(*res.gaps)
        d0, _ = min_distance_over_offsets(hexagon, res.scheme)
        for angle in (0.37, 1.23, 2.9):
            d1, _ = min_distance_over_offsets(hexagon.rotated(angle), res.scheme)
            if abs(d1 - d0) > 1e-10:
                failures.append(f"rotation: k={k} angle={angle} drift {abs(d1 - d0):.2e}")

    # tile area equals the lattice cell area on 1000 seeded shapes
    rng = np.random.default_rng(871203)
    count = 0
    while count < 1000:
        a, b = rng.uniform(0.01, math.pi - 0.02, size=2)
        if a + b >= math.pi - 0.01:
            continue
        count += 1
        hexagon = hexagon_from_gaps(a, b)
        basis = lattice_basis(hexagon)
        (eix, eiy), (ejx, ejy) = basis.e_i, basis.e_j
        cell = abs(eix * ejy - eiy * ejx)
        if abs(polygon_area(hexagon) - cell) > 1e-10:
            failures.append(f"area: gaps=({a:.4f},{b:.4f})")

    # triple determinant equals k on every reported result
    for k in range(3, 31):
        for res in results[k].per_class.values():
            t = res.triple
            if t.t1.i * t.t2.j - t.t2.i * t.t1.j != k:
                failures.append(f"determinant: k={k} {res.class_tag}")

    # the default enumeration window is wide enough at every optimum
    for k in range(3, 31):
        res = results[k].champion
        hexagon = hexagon_from_gaps(*res.gaps)
        d1, _ = min_distance_over_offsets(hexagon, res.scheme, slack=1)
        d2, _ = min_distance_over_offsets(
            hexagon, res.scheme, slack=1 + math.isqrt(4 * k)
        )
        if abs(d1 - d2) > 1e-12:
            failures.append(f"window: k={k} narrow={d1:.12f} wide={d2:.12f}")

    # independent dense-scan oracle agrees with the solver
    scan = _oracle_scan()
    for k in range(3, 13):
        got = results[k].champion.d
        oracle = _oracle_best(k, scan)
        if abs(got - oracle) > 2e-3:
            failures.append(f"oracle: k={k} solver={got:.6f} scan={oracle:.6f}")

    verdict("C6 property suite (nesting, rotation, area, determinant, window, oracle)", failures)


def test_c7_monotonicity_flags(champions, verdict):
    results, _ = champions
    failures = []

    computed = monotonicity_report({k: results[k].champion.d for k in range(3, 31)})
    if (29, 4) not in computed:
        failures.append("computed flags miss d(29) < d(25)")
    if any(n == 3 for _, n in computed):
        failures.append(f"computed d(k) < d(k-3): {[f for f in computed if f[1] == 3]}")

    reference = monotonicity_report(
        {row.k: row.d_approx for row in load_reference()}
    )
    if (29, 4) not in reference:
        failures.append("reference flags miss d(29) < d(25)")
    if any(n == 3 for _, n in reference):
        failures.append("reference violates three-step monotonicity")

    verdict("C7 monotonicity dips are flagged and never reach three steps", failures)
