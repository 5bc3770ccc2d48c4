import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexcoloring.coloring import ColorScheme, schemes
from hexcoloring.evaluator import cubic_f, quartic_dsq, regular_dsq
from hexcoloring.geometry import (
    RECTILINEAR,
    REGULAR,
    SEMI_REGULAR,
    DomainError,
)
from hexcoloring.analysis import REFERENCE_TOL, load_reference
from hexcoloring.optimizer import (
    SolveOptions,
    _lipschitz,
    _offset_dist,
    _rect_grid,
    _semi_grid,
    optimize_scheme,
    solve,
    solve_all,
)


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


def test_orbit_fallback_is_logged(caplog):
    # at k = 77 some representatives' optima sit at near-degenerate shapes
    # where the members' own windows disagree, so members refine in full
    with caplog.at_level(logging.DEBUG, logger="hexcoloring.optimizer"):
        solve(77, RECTILINEAR)
    fallbacks = [r.getMessage() for r in caplog.records if "orbit fallback" in r.getMessage()]
    assert fallbacks
    assert all("k=77" in msg and "representative=" in msg for msg in fallbacks)


def test_large_k_reference_rows():
    rows = [row for row in load_reference() if row.k > 30]
    assert [row.k for row in rows] == [41, 49, 56, 77, 112, 156, 175]
    for row in rows:
        res = solve_all(row.k)
        assert abs(res.champion.d - row.d_approx) <= REFERENCE_TOL, row.k
        assert res.champion_class == row.class_of_best, row.k


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
    change = abs(_offset_dist(*y, i, j) - _offset_dist(*x, i, j))
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


_EVERY_SCHEME_CASES = [(k, SEMI_REGULAR) for k in range(3, 31)] + [
    (k, RECTILINEAR) for k in (6, 8, 10, 12, 15)
]


@pytest.mark.parametrize("k, class_tag", _EVERY_SCHEME_CASES)
def test_skipping_matches_refining_every_scheme(k, class_tag):
    # schemes skipped by their bound could not have beaten the answer
    per_scheme = [optimize_scheme(k, s, class_tag) for s in schemes(k)]
    res = solve(k, class_tag)
    assert abs(res.d - max(r.d for r in per_scheme)) <= 1e-12
    assert res.d_upper == max(r.d_upper for r in per_scheme)
    for r in per_scheme:
        assert r.d <= r.d_upper


def test_d_upper_bounds_d(champions):
    results, _ = champions
    for k in range(3, 31):
        for tag, res in results[k].per_class.items():
            assert res.d <= res.d_upper, (k, tag)
        assert results[k].per_class[REGULAR].d_upper == results[k].per_class[REGULAR].d


def test_solve_logs_one_summary(caplog):
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
