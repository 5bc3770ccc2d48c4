import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexcoloring.coloring import (
    SYMMETRIES,
    ColorScheme,
    NoTripleError,
    canonical_triple,
    same_color_offsets,
    schemes,
    window_offsets,
)
from hexcoloring.evaluator import cubic_f, quartic_dsq, regular_dsq
from hexcoloring.geometry import (
    RECTILINEAR,
    REGULAR,
    SEMI_REGULAR,
    DomainError,
    gaps_valid,
    hexagon_from_gaps,
)
from hexcoloring.analysis import REFERENCE_TOL, load_reference
from hexcoloring import optimizer
from hexcoloring.optimizer import (
    _EDGE,
    _LEAD,
    SolveOptions,
    _ascend,
    _bisected_bound,
    _eval_min,
    _get_field,
    _lipschitz,
    _lp_step,
    _offset_jet,
    _rect_grid,
    _rect_seeds,
    _refine_rect,
    _seed_count,
    _semi_grid,
    optimize_scheme,
    solve,
    solve_all,
)
from nm_oracle import refine_every_start
from offset_window import offset_dist
from scan_oracle import PerOffsetScan


def test_k3_half_diameter():
    res = solve(3, REGULAR)
    assert abs(res.d - 0.5) <= 1e-9
    assert (tuple(res.triple.t1), tuple(res.triple.t2)) == ((2, -1), (1, 1))


def test_k4_regular_champion():
    all4 = solve_all(4)
    assert all4.champion_class == REGULAR
    assert abs(all4.champion.d - math.sqrt(3) / 2) <= 1e-9
    assert (all4.champion.scheme.g, all4.champion.scheme.h) == (2, 0)


def test_k7_regular_result():
    res = solve(7, REGULAR)
    assert abs(res.dsq - 1.75) <= 1e-9
    assert (tuple(res.triple.t1), tuple(res.triple.t2)) == ((3, -1), (1, 2))
    assert res.closed_form_tag == "loeschian"


def test_k8_semi_regular():
    res = solve(8, SEMI_REGULAR)
    assert res.dsq_rational == (49, 25)
    assert abs(res.d - 1.4) <= 1e-6
    assert abs(res.r - 0.2) <= 1e-4
    assert (res.scheme.g, res.scheme.h) == (4, 1)


def test_k15_semi_regular_rational():
    res = solve(15, SEMI_REGULAR)
    assert res.dsq_rational == (153, 32)
    assert abs(res.r - 0.375) <= 1e-4


def test_k22_rectilinear_rational():
    res = solve(22, RECTILINEAR)
    assert res.dsq_rational == (193496, 21275)
    assert abs(res.d - 3.015790796) <= 1e-6


def test_k6_rectilinear_matches_cubic():
    # regression guard: a sliver shape can hide the nearest same-color tile
    # outside any fixed enumeration window; the solver must not fall for it
    res = solve(6, RECTILINEAR)
    assert abs(res.dsq - cubic_f(6)[1]) <= 1e-7
    assert res.closed_form_tag == "cubic_f"
    assert (res.scheme.g, res.scheme.h) == (3, 0)
    assert res.d > 0.99


def test_k11_rectilinear_matches_quartic():
    res = solve(11, RECTILINEAR)
    assert abs(res.dsq - quartic_dsq(11)) <= 1e-7
    assert res.closed_form_tag == "quartic"


def test_loeschian_regular_agreement():
    for k in (4, 7, 9, 12, 13, 16, 19, 21, 25, 27, 28):
        res = solve(k, REGULAR)
        assert abs(res.dsq - float(regular_dsq(k))) <= 1e-7, k


def test_solve_is_deterministic():
    a = solve(17, RECTILINEAR)
    b = solve(17, RECTILINEAR)
    assert a.d == b.d
    assert a.gaps == b.gaps
    assert a.scheme == b.scheme


def test_class_nesting(champions):
    results, _ = champions
    for k in range(5, 16):
        per = results[k].per_class
        d_reg = per[REGULAR].d
        d_semi = per[SEMI_REGULAR].d
        d_rect = per[RECTILINEAR].d
        assert d_reg <= d_semi + 1e-9
        assert d_semi <= d_rect + 1e-9


def test_champion_class_matches_reference(champions):
    from hexcoloring.analysis import load_reference

    results, _ = champions
    by_k = {row.k: row for row in load_reference()}
    for k in range(3, 31):
        assert results[k].champion_class == by_k[k].class_of_best, k


def test_champion_is_max_over_classes(champions):
    # ties go to the simplest class, so allow the tie tolerance
    results, _ = champions
    for k in range(3, 31):
        per = results[k].per_class
        best = max(res.d for res in per.values())
        assert results[k].champion.d >= best - 1e-9


def test_triple_determinants(champions):
    results, _ = champions
    for k in range(3, 31):
        for res in results[k].per_class.values():
            t = res.triple
            assert t.t1.i * t.t2.j - t.t2.i * t.t1.j == k


def test_k77_non_canonical_triple():
    res = solve(77, SEMI_REGULAR)
    assert res.dsq_rational == (1215, 32)
    t = res.triple
    assert not t.canonical
    # the far pair of the triple exceeds the attained gap
    assert t.d01 > res.d + 1e-6
    assert min(t.d01, t.d02, t.d12) >= res.d - 1e-9


def test_optimize_scheme_regular():
    res = optimize_scheme(7, ColorScheme(7, 7, 4), REGULAR)
    assert abs(res.d - math.sqrt(7) / 2) <= 1e-12


def test_optimize_scheme_suboptimal_scheme():
    # a poor scheme still optimizes honestly, just to a smaller gap
    best = optimize_scheme(7, ColorScheme(7, 7, 4), RECTILINEAR)
    worse = optimize_scheme(7, ColorScheme(7, 7, 1), RECTILINEAR)
    assert worse.d < best.d


def test_optimize_scheme_rejects_mismatch():
    with pytest.raises(DomainError):
        optimize_scheme(8, ColorScheme(7, 7, 4))
    with pytest.raises(DomainError):
        optimize_scheme(7, ColorScheme(7, 7, 4), "octagonal")


def test_solve_rejects_bad_k():
    for k in (0, 1, 2, -5):
        with pytest.raises(DomainError):
            solve(k)
    with pytest.raises(DomainError):
        solve(7, "octagonal")


def test_solve_options_validation():
    with pytest.raises(DomainError):
        SolveOptions(starts_per_axis=0)
    with pytest.raises(DomainError):
        SolveOptions(coarse_grid=3)
    with pytest.raises(DomainError):
        SolveOptions(max_iters=0)
    with pytest.raises(DomainError):
        SolveOptions(enumeration_slack=-1)
    with pytest.raises(DomainError):
        SolveOptions(value_tol=0.0)
    with pytest.raises(DomainError):
        SolveOptions(param_tol=1.0)


def test_value_tol_is_deprecated():
    # nothing reads it since the rectilinear search stopped using Nelder-Mead
    with pytest.warns(DeprecationWarning, match="value_tol"):
        options = SolveOptions(value_tol=1e-10)
    assert solve(9, RECTILINEAR, options) == solve(9, RECTILINEAR)


def test_coarser_options_still_close():
    fast = solve(9, RECTILINEAR, SolveOptions(starts_per_axis=4, coarse_grid=24))
    full = solve(9, RECTILINEAR)
    assert abs(fast.d - full.d) <= 1e-6


def test_result_floats_are_builtin(champions):
    results, _ = champions
    res = results[10].champion
    for value in (res.d, res.dsq, res.r, res.s, *res.gaps):
        assert type(value) is float


# rectilinear (d, dsq_rational, g, h) as solved before schemes were refined
# once per symmetry orbit; the quotient must reproduce them
_PINNED_RECT = {
    6: (0.9920764961614221, None, 3, 0),
    12: (2.0, (4, 1), 6, 2),
    15: (2.186606960566988, (153, 32), 15, 11),
    22: (3.01579079588743, (193496, 21275), 22, 17),
    24: (3.1787813958796693, (869, 86), 24, 9),
    30: (3.7622920674275635, None, 6, 0),
    56: (5.53345201140368, None, 8, 0),
}


@pytest.mark.parametrize("k", sorted(_PINNED_RECT))
def test_rectilinear_pinned_results(k):
    d, rational, g, h = _PINNED_RECT[k]
    res = solve(k, RECTILINEAR)
    assert abs(res.d - d) <= 1e-12
    assert res.dsq_rational == rational
    assert (res.scheme.g, res.scheme.h) == (g, h)


@pytest.mark.parametrize("k", range(3, 31))
def test_optimize_scheme_agrees_across_each_orbit(k):
    # relabelling the gap directions maps a scheme's objective exactly onto
    # its image's, so every member of an orbit has the same optimum
    seen = set()
    for scheme in schemes(k):
        if scheme in seen:
            continue
        orbit = {sym.image_scheme(scheme) for sym in SYMMETRIES}
        seen |= orbit
        values = [optimize_scheme(k, s).d for s in sorted(orbit, key=lambda s: (s.g, s.h))]
        assert max(values) - min(values) <= 1e-12, (scheme, values)


def test_large_k_reference_rows():
    rows = [row for row in load_reference() if row.k > 30]
    assert [row.k for row in rows] == [41, 49, 56, 77, 112, 156, 175]
    for row in rows:
        res = solve_all(row.k)
        assert abs(res.champion.d - row.d_approx) <= REFERENCE_TOL, row.k
        assert res.champion_class == row.class_of_best, row.k


# at k = 15 and 77 the optimum is a smooth maximum on the diagonal, not a
# crossing, and the golden section stops on it about sqrt(eps) off
_FLAT_MAXIMUM = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 1: the golden section stops on a flat maximum"
)


@pytest.mark.parametrize(
    "row",
    [
        pytest.param(row, id=f"k{row.k}", marks=_FLAT_MAXIMUM if row.k in (15, 77) else ())
        for row in load_reference()
        if row.r_rational is not None
    ],
)
def test_reference_r_rational_is_reproduced(row):
    num, den = row.r_rational
    assert abs(solve(row.k, row.class_of_best).r - num / den) <= 1e-12


def test_semi_regular_rationals_sit_on_the_crossing():
    # the crossing polish resolves a kinked maximum to within rounding; the
    # golden section alone leaves dsq further off (by 7.2e-14 from 1/4 at k = 3)
    for k in range(3, 121):
        res = solve(k, SEMI_REGULAR)
        if res.dsq_rational is not None:
            p, q = res.dsq_rational
            assert abs(res.dsq - p / q) <= 1e-14 * p / q, (k, res.dsq_rational)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    i=st.integers(min_value=-30, max_value=30),
    j=st.integers(min_value=0, max_value=30),
    u=st.floats(min_value=0.0, max_value=1.0),
    v=st.floats(min_value=0.0, max_value=1.0),
    step=st.sampled_from([1e-7, 1e-4, 1e-2, 0.3]),
    du=st.floats(min_value=-1.0, max_value=1.0),
    dv=st.floats(min_value=-1.0, max_value=1.0),
    diagonal=st.booleans(),
)
def test_offset_gap_lipschitz_bound(i, j, u, v, step, du, dv, diagonal):
    # |d_c(x + e) - d_c(x)| <= w_c |e|_inf on the triangle and on its diagonal
    eps = 1e-6
    if diagonal:
        g = eps + u * (math.pi / 2 - 2 * eps)
        x = (g, g)
        y = (g + step * du, g + step * du)
    else:
        g1 = eps + u * (math.pi - 3 * eps)
        g2 = eps + v * (math.pi - 2 * eps - g1)
        x = (g1, g2)
        y = (g1 + step * du, g2 + step * dv)
    if min(y) <= 0.0 or y[0] + y[1] >= math.pi:
        return
    change = abs(offset_dist(*y, i, j) - offset_dist(*x, i, j))
    assert change <= _lipschitz(i, j) * max(abs(y[0] - x[0]), abs(y[1] - x[1])) + 1e-12


def _covered(grid, g1, g2):
    """Whether each shape lies in the box of some valid grid point."""
    gx, gy = grid.g1[grid.valid], grid.g2[grid.valid]
    radius = grid.radius[grid.valid]
    out = []
    for a in range(0, len(g1), 64):
        far = np.maximum(
            np.abs(gx[None, :] - g1[a : a + 64, None]),
            np.abs(gy[None, :] - g2[a : a + 64, None]),
        )
        out.append((far <= radius[None, :]).any(axis=1))
    return np.concatenate(out)


@pytest.mark.parametrize("n", [4, 5, 12, 48, 160, 240])
def test_boxes_cover_every_shape(n):
    rng = np.random.default_rng(n)
    m = 400
    t = rng.uniform(0.0, 1.0, m)
    near = rng.uniform(0.0, 1e-3, m)
    corner = rng.uniform(0.0, 1e-3, (2, m))
    pi = math.pi
    # near each edge of g1, g2 > 0, g1 + g2 < pi, near each corner, inside
    g1 = np.concatenate([near, t * (pi - near), t * (pi - near), corner[0],
                         pi - corner[0] - corner[1], corner[0], t * pi])
    g2 = np.concatenate([t * (pi - near), near, (1 - t) * (pi - near) - near,
                         corner[1], corner[1], pi - corner[0] - corner[1],
                         (1 - t) * pi * rng.uniform(0.0, 1.0, m)])
    ok = (g1 > 0.0) & (g2 > 0.0) & (g1 + g2 < pi)
    assert ok.mean() > 0.9
    assert _covered(_rect_grid(n), g1[ok], g2[ok]).all()

    gamma = np.concatenate([near, pi / 2 - near, t * pi / 2])
    gamma = gamma[(gamma > 0.0) & (gamma < pi / 2)]
    assert _covered(_semi_grid(n), gamma, gamma).all()


# semi-regular k = 41, 56 and 77 are where the bisection skips the most
_EVERY_SCHEME_CASES = [(k, SEMI_REGULAR) for k in (*range(3, 31), 41, 56, 77)] + [
    (k, RECTILINEAR) for k in (6, 8, 10, 12, 15, 20, 30)
]


@pytest.mark.parametrize("k, class_tag", _EVERY_SCHEME_CASES)
def test_skipping_matches_refining_every_scheme(k, class_tag):
    # schemes skipped by their bound could not have beaten the answer
    per_scheme = {s: optimize_scheme(k, s, class_tag) for s in schemes(k)}
    res = solve(k, class_tag)
    assert abs(res.d - max(r.d for r in per_scheme.values())) <= 1e-12
    assert res.d_upper == max(r.d_upper for r in per_scheme.values())
    for scheme, r in per_scheme.items():
        assert r.d <= r.d_upper
        if class_tag == RECTILINEAR:
            # an orbit shares one maximum, so its members share one bound
            for sym in SYMMETRIES:
                partner = per_scheme[sym.image_scheme(scheme)]
                assert partner.d_upper == r.d_upper, (scheme, sym)
                assert partner.d <= r.d_upper, (scheme, sym)


# offsets with |i|, |j| <= 30 in every sign pattern, near and far
_PIN_OFFSETS = [
    (1, 0), (0, 1), (-1, 1), (2, -1), (3, 2), (-5, 4),
    (7, 0), (-12, 9), (13, 17), (0, 30), (-30, 30), (30, -21),
]


@pytest.mark.parametrize("make_grid", [_rect_grid, _semi_grid])
def test_field_matches_scalar_kernel(make_grid):
    # the array form of the distance kernel agrees with the scalar one bit for
    # bit: a list of one offset scans to that offset's table row
    grid = make_grid(48)
    points = np.flatnonzero(grid.valid)
    i, j = np.array(_PIN_OFFSETS).T
    vals, _, _ = grid.scan(np.arange(len(_PIN_OFFSETS)), i, j)
    for (i, j), arr in zip(_PIN_OFFSETS, vals):
        bad = [
            p for p in points
            if arr[p] != offset_dist(float(grid.g1[p]), float(grid.g2[p]), i, j)
        ]
        assert bad == [], (i, j)
        assert (arr[~grid.valid] == -1.0).all()
        assert arr[points].tobytes() == grid.table[grid.index[i, j]].tobytes()


_SCAN_KS = [*range(3, 46), 49, 56, 77, 112, 156, 175]


@pytest.mark.parametrize("make_grid", [_rect_grid, _semi_grid])
def test_scan_matches_the_per_offset_scan(make_grid):
    # batched over schemes and restricted to valid points, the scan gives
    # every scheme the grid values and bound of one offset at a time, bit for
    # bit; one field serves every k, so later k's reuse earlier rows
    grid = make_grid(48)
    oracle = PerOffsetScan(grid)
    for k in _SCAN_KS:
        lists = [same_color_offsets(scheme) for scheme in schemes(k)]
        owner, i, j = window_offsets(k, schemes(k))
        vals, upper, rows = grid.scan(owner, i, j)
        assert rows.tolist() == [grid.index[key] for key in zip(i.tolist(), j.tolist())]
        assert vals.shape == (len(lists), grid.g1.size) and upper.shape == (len(lists),)
        for s, offsets in enumerate(lists):
            assert vals[s].tobytes() == oracle.scheme_min(offsets).tobytes(), (k, s)
            assert upper[s] == oracle.scheme_upper(offsets), (k, s)
    assert len(grid.table) == len(grid.index) == len(grid.weight) == len(oracle._dist)


@pytest.mark.parametrize("classes", [(), ("hexagonal",), (REGULAR, "semi"), "regular"])
def test_solve_all_rejects_bad_classes(classes):
    with pytest.raises(DomainError):
        solve_all(5, classes=classes)


@pytest.mark.parametrize(
    "class_tag, ks", [(RECTILINEAR, range(3, 21)), (SEMI_REGULAR, range(3, 61))]
)
def test_reported_d_is_attained_at_the_gaps(class_tag, ks):
    # the polish may step to a point up to 1e-12 worse; d is the value there
    for k in ks:
        for scheme in schemes(k):
            res = optimize_scheme(k, scheme, class_tag)
            assert res.d == _eval_min(*res.gaps, scheme), (k, scheme)


def test_d_upper_bounds_d(champions):
    results, _ = champions
    for k in range(3, 31):
        for tag, res in results[k].per_class.items():
            assert res.d <= res.d_upper, (k, tag)
        assert results[k].per_class[REGULAR].d_upper == results[k].per_class[REGULAR].d
        # the orbit's least bound certifies the rectilinear answer closely
        rect = results[k].per_class[RECTILINEAR]
        assert rect.d_upper - rect.d <= 0.15, k


def test_solve_logs_one_summary(caplog):
    # a cold field computes table rows; the same solve again finds them all
    optimizer._get_field.cache_clear()
    computed = []
    for _ in range(2):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="hexcoloring.optimizer"):
            res = solve(8, SEMI_REGULAR)
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("solve:")]
        assert len(lines) == 1
        counts = re.match(
            r"solve: k=8 semi_regular refined (\d+), mapped (\d+), skipped (\d+) by the bound",
            lines[0],
        )
        assert counts
        assert sum(int(c) for c in counts.groups()) == len(schemes(8))
        assert f"d_upper {res.d_upper:.12g}" in lines[0]
        rows = re.search(r"; table rows computed (\d+)$", lines[0])
        assert rows
        computed.append(int(rows.group(1)))
    assert computed[0] > 0 and computed[1] == 0


def test_bisection_skips_semi_regular_schemes(caplog):
    # over k = 3..120 the scan's bound alone left 364 semi-regular refinements
    with caplog.at_level(logging.DEBUG, logger="hexcoloring.optimizer"):
        for k in range(3, 121):
            solve(k, SEMI_REGULAR)
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("solve:")]
    assert len(lines) == 118
    refined = after = 0
    for line in lines:
        counts = re.match(
            r"solve: k=(\d+) semi_regular refined (\d+), mapped 0, skipped (\d+) by the bound "
            r"\((\d+) only after bisection\); ",
            line,
        )
        assert counts, line
        k, r, skipped, late = (int(c) for c in counts.groups())
        assert r + skipped == len(schemes(k)) and late <= skipped
        refined, after = refined + r, after + late
    assert refined <= 240
    assert after > 0


@pytest.mark.parametrize("k", [*range(3, 46), 77])
def test_bisected_bound_lies_between_optimum_and_scan_bound(k):
    # bisected to full depth with no target, each scheme's bound still holds
    # its optimum and never exceeds its scan bound
    grid = _get_field(SEMI_REGULAR, SolveOptions().coarse_grid)
    candidates = schemes(k)
    owner, i, j = window_offsets(k, candidates)
    _, upper, rows = grid.scan(owner, i, j)
    for n, scheme in enumerate(candidates):
        own = owner == n
        bound = _bisected_bound(grid, i[own], j[own], rows[own])
        assert optimize_scheme(k, scheme, SEMI_REGULAR).d <= bound <= upper[n], scheme


@pytest.mark.parametrize("k", [56, 77, 112, 156])
def test_orbit_bound_skips_and_certifies_large_k(k, caplog):
    with caplog.at_level(logging.DEBUG, logger="hexcoloring.optimizer"):
        res = solve(k, RECTILINEAR)
    assert res.d <= res.d_upper <= res.d + 0.3
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("solve:")]
    assert len(lines) == 1
    counts = re.match(
        rf"solve: k={k} rectilinear refined (\d+), mapped (\d+), skipped (\d+) by the bound "
        r"\((\d+) only by an orbit partner's\); ",
        lines[0],
    )
    assert counts
    refined, mapped, skipped, by_partner = (int(c) for c in counts.groups())
    assert refined + mapped + skipped == len(schemes(k))
    assert 0 < by_partner <= skipped


def test_rectilinear_summary_counts_starts_and_evaluations(caplog):
    counts = []
    for _ in range(2):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="hexcoloring.optimizer"):
            solve(12, RECTILINEAR)
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("solve:")]
        assert len(lines) == 1
        assert re.match(r"solve: k=12 rectilinear refined (\d+), mapped (\d+), skipped (\d+)", lines[0])
        found = re.search(r"starts run (\d+), finished (\d+), evaluations (\d+)$", lines[0])
        assert found
        counts.append(tuple(int(c) for c in found.groups()))
    run, finished, evaluations = counts[0]
    assert 0 < finished <= run
    assert evaluations > 0
    assert counts[1] == counts[0]


def _feature(g1, g2, i, j):
    """The doubled-hexagon vertex or edge nearest offset (i, j)'s point, searched directly."""
    vx, vy, eix, eiy, ejx, ejy = optimizer._frame(g1, g2)
    px, py = i * eix + j * ejx, i * eiy + j * ejy
    best = None
    for m in range(6):
        ax, ay, bx, by = vx[m - 1], vy[m - 1], vx[m], vy[m]
        t = ((px - ax) * (bx - ax) + (py - ay) * (by - ay)) / ((bx - ax) ** 2 + (by - ay) ** 2)
        feature = ("vertex", (m - 1) % 6) if t <= 0 else ("vertex", m) if t >= 1 else ("edge", m)
        t = min(max(t, 0.0), 1.0)
        dist = math.hypot(px - ax - t * (bx - ax), py - ay - t * (by - ay))
        if best is None or dist < best[0]:
            best = (dist, feature)
    return best[1]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    i=st.integers(min_value=-30, max_value=30),
    j=st.integers(min_value=0, max_value=30),
    u=st.floats(min_value=0.0, max_value=1.0),
    v=st.floats(min_value=0.0, max_value=1.0),
    diagonal=st.booleans(),
)
def test_offset_jet_matches_central_differences(i, j, u, v, diagonal):
    eps = 1e-3
    if diagonal:
        g1 = g2 = eps + u * (math.pi / 2 - 2 * eps)
    else:
        g1 = eps + u * (math.pi - 3 * eps)
        g2 = eps + v * (math.pi - 2 * eps - g1)
    gap, grad, hess = _offset_jet(g1, g2, i, j)
    assert gap == offset_dist(g1, g2, i, j)
    h = 1e-6
    steps = [(h, 0.0), (-h, 0.0), (0.0, h), (0.0, -h)]
    feature = _feature(g1, g2, i, j)
    if gap < 1e-3 or any(_feature(g1 + a, g2 + b, i, j) != feature for a, b in steps):
        return  # inside the hexagon, or the nearest vertex or edge changes nearby
    for k, ((a1, b1), (a2, b2)) in enumerate([steps[:2], steps[2:]]):
        fd = (offset_dist(g1 + a1, g2 + b1, i, j) - offset_dist(g1 + a2, g2 + b2, i, j)) / (2 * h)
        assert abs(grad[k] - fd) <= 1e-6 * (1.0 + abs(fd)), (k, grad, fd)
        up, down = _offset_jet(g1 + a1, g2 + b1, i, j)[1], _offset_jet(g1 + a2, g2 + b2, i, j)[1]
        for m in range(2):
            fd = (up[m] - down[m]) / (2 * h)
            assert abs(hess[k][m] - fd) <= 1e-4 * (1.0 + abs(fd)), (k, m, hess, fd)


def _rect_schemes(k):
    options = SolveOptions()
    grid = _get_field(RECTILINEAR, options.coarse_grid)
    candidates = schemes(k)
    all_vals, _, _ = grid.scan(*window_offsets(k, candidates, options.enumeration_slack))
    for scheme, vals in zip(candidates, all_vals):
        seeds = _rect_seeds(vals, grid.centers, len(grid.centers), _seed_count(options))
        yield scheme, seeds, options, grid.cell


@pytest.mark.parametrize("k", range(3, 21))
def test_finishing_only_the_leading_start_loses_nothing(k):
    # the leading ascent, finished and polished, matches Nelder-Mead run to
    # the end from every seed
    for scheme, seeds, options, cell in _rect_schemes(k):
        counts = [0, 0, 0]
        val, _ = _refine_rect(scheme, seeds, options, cell, counts)
        assert abs(val - refine_every_start(scheme, seeds, cell)) <= 1e-12, scheme
        assert counts[0] == len(seeds) and 0 < counts[1] <= counts[0]


@pytest.mark.parametrize("k", [6, 12, 15])
def test_paused_ascent_resumes_on_its_trajectory(k):
    for scheme, seeds, options, cell in _rect_schemes(k):
        fn = lambda a, b, tol=None: _eval_min(a, b, scheme, tol)
        for sx, sy in seeds:
            paused = list(_ascend(fn, sx, sy, 0.6 * cell, options.max_iters, _LEAD))
            straight = list(_ascend(fn, sx, sy, 0.6 * cell, options.max_iters, 0.0))
            assert paused[-1] == straight[-1]
            assert paused[-1][2] and len(straight) == 1
            assert paused[0][2] or paused[0][1] <= paused[-1][1]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    x=st.floats(min_value=0.0, max_value=1.0),
    y=st.floats(min_value=0.0, max_value=1.0),
    radius=st.sampled_from([1e-6, 1e-3, 0.05, 0.4]),
    rows=st.lists(
        st.tuples(*[st.floats(min_value=-3.0, max_value=3.0)] * 3), min_size=1, max_size=6
    ),
)
def test_lp_step_finds_the_model_maximum(x, y, radius, rows):
    # shapes near the triangle's edges and corners as well as inside it
    g1 = 2 * _EDGE + x * (math.pi - 6 * _EDGE)
    g2 = 2 * _EDGE + y * (math.pi - 4 * _EDGE - g1)
    model = lambda dx, dy: min(a + gx * dx + gy * dy for a, gx, gy in rows)
    dx, dy, value = _lp_step(g1, g2, rows, radius)
    assert max(abs(dx), abs(dy)) <= radius and gaps_valid(g1 + dx, g2 + dy)
    assert value == model(dx, dy)
    # a dense grid over the box, kept where it is feasible
    t = np.linspace(-radius, radius, 41)
    px, py = np.meshgrid(t, t)
    ok = (g1 + px >= _EDGE) & (g2 + py >= _EDGE) & (g1 + px + g2 + py <= math.pi - _EDGE)
    if ok.any():
        dense = np.min([a + gx * px[ok] + gy * py[ok] for a, gx, gy in rows], axis=0)
        assert value >= dense.max() - 1e-12


def test_tied_winner_triple_is_computed_once(monkeypatch):
    calls = []

    def counted(hexagon, scheme, *, slack=1):
        calls.append((hexagon.gaps, scheme))
        return canonical_triple(hexagon, scheme, slack=slack)

    monkeypatch.setattr(optimizer, "canonical_triple", counted)
    # each of these solves breaks a tie between schemes by their triples
    for k, tag in [(7, REGULAR), (6, SEMI_REGULAR), (6, RECTILINEAR)]:
        calls.clear()
        res = solve(k, tag)
        assert len(calls) == len(set(calls)), (k, tag)
        assert res.triple == canonical_triple(hexagon_from_gaps(*res.gaps), res.scheme)


def test_winner_without_triple_still_raises(monkeypatch):
    def none(hexagon, scheme, *, slack=1):
        raise NoTripleError("none")

    monkeypatch.setattr(optimizer, "canonical_triple", none)
    for k in (7, 9):
        with pytest.raises(NoTripleError):
            solve(k, REGULAR)
