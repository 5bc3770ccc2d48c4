import functools
import logging
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexcoloring.coloring import (
    SYMMETRIES,
    ColorScheme,
    _reduced_basis,
    canonical_triple,
    min_gap,
    same_color_offsets,
    schemes,
    window_offsets,
)
from hexcoloring.evaluator import QUARTICS, cubic_f, quartic_dsq, regular_dsq
from hexcoloring.geometry import (
    CLASS_TAGS,
    RECTILINEAR,
    REGULAR,
    SEMI_REGULAR,
    DomainError,
    frame,
    gaps_valid,
    hexagon_from_gaps,
    hexagon_gap,
)
from hexcoloring.analysis import REFERENCE_TOL, load_reference
from hexcoloring import optimizer
from hexcoloring.optimizer import (
    _ACTIVE,
    _EDGE,
    COARSE_GRID,
    _eval_min,
    _get_field,
    _lipschitz,
    _lp_step,
    _may_reach,
    _offset_gaps,
    _offset_jet,
    _polish,
    _rect_grid,
    _refine,
    _semi_grid,
    _start,
    optimize_scheme,
    solve,
    solve_all,
)
from nm_oracle import (
    golden_max,
    golden_search_semi,
    rect_seeds,
    refine_every_start,
    refine_from_both_starts,
    refine_semi_every_start,
    semi_starts,
)
from helpers import nearest_feature
from offset_window import offset_dist
from scan_oracle import PerOffsetScan, full_triangle_grid, square_layout


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


@pytest.mark.parametrize("k", sorted(QUARTICS), ids=lambda k: f"k{k}")
def test_rectilinear_matches_quartic(k):
    res = solve(k, RECTILINEAR)
    assert abs(res.d - math.sqrt(quartic_dsq(k))) <= 1e-13
    assert res.closed_form_tag == "quartic"


def test_closed_forms_are_the_evaluator_families_and_tag_themselves():
    # no two forms lie within 1e-6 for k < 400, so each form's own value
    # takes its own family's tag whatever the order of the families
    for k in range(1, 400):
        want = [("loeschian", regular_dsq(k))] if regular_dsq(k) is not None else []
        try:
            want.append(("cubic_f", cubic_f(k)[1]))
        except DomainError:
            pass
        if k in QUARTICS:
            want.append(("quartic", quartic_dsq(k)))
        got = list(optimizer.closed_forms(k))
        assert got == want, k
        for name, value in got:
            assert optimizer._closed_form_tag(k, float(value)) == name, (k, name)
        values = sorted(float(value) for _, value in got)
        assert all(b - a > 1e-6 for a, b in zip(values, values[1:])), k


def test_closed_forms_are_computed_once_per_k(monkeypatch):
    # _closed_form_tag runs for each class result; cubic_f's bisection runs
    # once per k, and the tags are the first family that matches
    optimizer.closed_forms.cache_clear()
    calls = []
    monkeypatch.setattr(optimizer, "cubic_f", lambda k: calls.append(k) or cubic_f(k))
    res = solve_all(12)
    assert calls == [12]
    forms = list(optimizer.closed_forms(12))
    for r in res.per_class.values():
        want = next((name for name, value in forms if abs(r.dsq - float(value)) < 1e-7), "none")
        assert r.closed_form_tag == want, r.class_tag


@pytest.mark.parametrize("k", [11, 18, 23, 45, 187], ids=lambda k: f"k{k}")
def test_ridge_polish_returns_to_the_optimum(k):
    # each of these optima lies on a ridge of two offsets: from 1e-6 along
    # it either way, the polish must come back to the same point
    res = solve(k, RECTILINEAR)
    fn = lambda a, b, tol=None: _eval_min(a, b, res.scheme, tol)
    _, active = fn(*res.gaps, _ACTIVE)
    assert len(active) == 2
    (_, ga), (_, gb) = (_offset_jet(frame(*res.gaps), *off, False) for off in active)
    nx, ny = ga[0] - gb[0], ga[1] - gb[1]
    norm = math.hypot(nx, ny)
    tx, ty = -ny / norm, nx / norm
    for step in (1e-6, -1e-6):
        x, y = res.gaps[0] + step * tx, res.gaps[1] + step * ty
        (px, py), val, _ = _polish(fn, (x, y), fn(x, y), active)
        assert max(abs(px - res.gaps[0]), abs(py - res.gaps[1])) <= 1e-12, (step, px, py)
        assert val >= res.d, (step, val)


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
        optimize_scheme(2, ColorScheme(2, 1, 0))
    with pytest.raises(DomainError):
        optimize_scheme(7, ColorScheme(7, 7, 4), "octagonal")


def test_solve_rejects_bad_k():
    for k in (0, 1, 2, -5):
        with pytest.raises(DomainError):
            solve(k)
    with pytest.raises(DomainError):
        solve(7, "octagonal")


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


def test_a_better_rectilinear_shape_exists_at_k284():
    # the witness behind the k = 284 miss below: (71, 26) is in the orbit of
    # solve's winner (284, 179), whose ascent stops at 13.5609
    assert _eval_min(1.0971815239, 1.1173799433, ColorScheme(284, 71, 26)) >= 13.5771


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 13: each rectilinear orbit is refined once, from the best grid "
    "point of its leading member, and that ascent can end at a local maximum only",
)
def test_rectilinear_solve_reaches_the_multi_start_optima():
    # the multi-start check, every scheme refined from its best grid maxima,
    # reaches these values; solve stops at 13.560852552470 and 14.660113143782
    for k, d in [(284, 13.577103751296), (326, 14.660193282188)]:
        assert abs(solve(k, RECTILINEAR).d - d) <= 1e-12, k


# the reference's witness pair names its tiles in a relabelled frame at these k
_RELABELLED_WITNESS = (11, 18, 22, 23)


def test_reference_witness_pairs_lie_in_the_champion_orbit(champions):
    results, _ = champions
    for row in load_reference():
        scheme = (results[row.k] if row.k in results else solve_all(row.k)).champion.scheme
        witness = [(row.i1, row.j1), (row.i2, row.j2)]
        images = [sym.image_scheme(scheme) for sym in SYMMETRIES]
        assert any(all(image.contains(*t) for t in witness) for image in images), row.k
        own = all(scheme.contains(*t) for t in witness)
        assert own == (row.k not in _RELABELLED_WITNESS), (row.k, scheme)


# at k = 15, 41 and 77 the semi-regular optimum is a smooth maximum on the
# diagonal, not a crossing, and the golden section stops on it about sqrt(eps) off
_FLAT_MAXIMUM = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: the golden section stops on a flat maximum; the fix must "
    "re-record the k = 15, 41 and 77 semi_table golden rows",
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


@pytest.mark.parametrize(
    "class_tag, k",
    [
        pytest.param(tag, k, id=f"{tag}-k{k}",
                     marks=_FLAT_MAXIMUM if tag == SEMI_REGULAR and k in (15, 41, 77) else ())
        for tag in (SEMI_REGULAR, RECTILINEAR)
        for k in [*range(3, 176), 756]
    ],
)
def test_optimum_is_a_first_order_point(class_tag, k):
    # a local maximum of the least gap is a KKT point of "maximise t subject
    # to gap_c >= t": multipliers lambda_c >= 0 over the offsets within
    # _ACTIVE, summing to 1, weight their gradients to zero (their slopes
    # along the diagonal for the semi-regular class)
    res = solve(k, class_tag)
    _, active = _eval_min(*res.gaps, res.scheme, _ACTIVE)
    grads = np.array([_offset_jet(frame(*res.gaps), *off, False)[1] for off in active])
    if class_tag == SEMI_REGULAR:
        grads = grads.sum(axis=1, keepdims=True)
    lhs = np.vstack((grads.T, np.ones(len(active))))
    rhs = np.zeros(len(lhs))
    rhs[-1] = 1.0
    lam, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    assert lam.min() >= -1e-12, (active, lam)
    assert np.abs(lhs @ lam - rhs).max() <= 1e-12, (active, lam)


def test_semi_regular_rationals_sit_on_the_crossing():
    # the polish resolves a kinked maximum to within rounding; the
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
    """Whether each shape lies in the box of some kept grid point."""
    gx, gy, radius = grid.g1, grid.g2, grid.radius
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
    # the rectilinear grid covers S = {gap3 >= gap1 >= gap2}: the relabelling
    # that sorts a shape's three gaps moves it into S
    low, mid, _ = np.sort([g1[ok], g2[ok], pi - g1[ok] - g2[ok]], axis=0)
    # and S's own edges gap1 = gap2, gap3 = gap1 and gap2 near 0, and its corners
    edges = (
        [t * pi / 3, pi / 2 - t * pi / 6, t * pi / 2, near, pi / 2 - near, pi / 3 - near],
        [t * pi / 3, t * pi / 3, near, 0.5 * near, near, pi / 3 - near],
    )
    g1, g2 = np.concatenate([mid, *edges[0]]), np.concatenate([low, *edges[1]])
    ok = (g1 > 0.0) & (g2 > 0.0) & (g1 + g2 < pi)
    grid = _rect_grid(n)
    assert _covered(grid, g1[ok], g2[ok]).all()
    # every kept point lies on the sextant's side of the diagonal and is valid
    assert (grid.g1 >= grid.g2).all()
    assert (grid.g1 + grid.g2 < pi - optimizer.GRID_MARGIN).all()
    if n == 48:
        # the default grid scans at most a quarter of the triangle's points
        sq1, sq2, _ = square_layout(grid)
        assert 4 * grid.g1.size <= (sq1 + sq2 < pi - optimizer.GRID_MARGIN).sum()

    gamma = np.concatenate([near, pi / 2 - near, t * pi / 2])
    gamma = gamma[(gamma > 0.0) & (gamma < pi / 2)]
    assert _covered(_semi_grid(n), gamma, gamma).all()


@pytest.mark.parametrize("n", [24, 48, 96, 160, 240])
def test_own_cell_boxes_are_the_full_triangle_boxes_on_the_sextant(n):
    # the points of the whole-triangle field with gap1 >= gap2 whose boxes
    # meet gap3 >= gap1 are the production field's, with the same radii, bit
    # for bit: clipping and reassigning cells only ever changed points not kept
    full = full_triangle_grid(n)
    g1, g2, radius = full.g1, full.g2, full.radius
    keep = (g1 >= g2) & (2.0 * g1 + g2 - 3.0 * radius <= math.pi)
    grid = _rect_grid(n)
    for got, want in [(grid.g1, g1), (grid.g2, g2), (grid.radius, radius)]:
        assert got.tobytes() == want[keep].tobytes()


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
    # bit: scanning one scheme per offset fills each offset's table row
    grid = make_grid(48)
    i, j = np.array(_PIN_OFFSETS).T
    grid.scan(np.arange(len(_PIN_OFFSETS)), i, j)
    for i, j in _PIN_OFFSETS:
        arr = grid.table[grid.index[i * 2**32 + j]]
        # one entry per kept point: 209 of the 48 x 48 square, or the whole diagonal
        assert arr.shape == (209 if make_grid is _rect_grid else 48,)
        bad = [
            p for p in range(arr.size)
            if arr[p] != offset_dist(float(grid.g1[p]), float(grid.g2[p]), i, j)
        ]
        assert bad == [], (i, j)


def test_offset_gaps_match_the_scalar_kernel_bit_for_bit():
    # the array twin of geometry.hexagon_gap runs the same operations, so at
    # each shape where NumPy's sin and cos give math's it gives the same gaps,
    # the origin and the touching neighbours on both sides of the fold's
    # chord included
    rng = np.random.default_rng(27)
    u, v = rng.uniform(0.0, 1.0, (2, 400))
    g1 = 1e-3 + u * (math.pi - 3e-3)
    g2 = 1e-3 + v * (math.pi - 2e-3 - g1)
    trig = np.stack([np.sin(g1), np.cos(g1), np.sin(g2), np.cos(g2)], 1).tolist()
    agree = [[math.sin(a), math.cos(a), math.sin(b), math.cos(b)] == row
             for a, b, row in zip(g1.tolist(), g2.tolist(), trig)]
    assert sum(agree) >= 200
    offsets = [*zip(*rng.integers(-30, 31, (2, 60)).tolist()), (0, 0), (1, 0), (0, 1), (-1, 1),
               (-1, 0), (0, -1), (1, -1)]
    i, j = (np.array(col, dtype=float)[:, None] for col in zip(*offsets))
    gaps = _offset_gaps(frame(g1, g2, np.sin, np.cos), i, j)
    for p in np.flatnonzero(agree).tolist():
        vx, vy, eix, eiy, ejx, ejy = frame(float(g1[p]), float(g2[p]))
        want = [hexagon_gap(a * eix + b * ejx, a * eiy + b * ejy, vx, vy)[0] for a, b in offsets]
        assert gaps[:, p].tolist() == want, (g1[p], g2[p])


_SCAN_KS = [*range(3, 46), 49, 56, 77, 112, 156, 175]


@pytest.mark.parametrize("make_grid", [_rect_grid, _semi_grid])
def test_scan_matches_the_per_offset_scan(make_grid):
    # batched over schemes and held at the kept points, the scan gives every
    # scheme the peak, first peak point, largest bound and per-point bounds
    # of one offset at a time over the whole square, bit for bit; one field
    # serves every k, so later k's reuse earlier rows
    grid = make_grid(48)
    oracle = PerOffsetScan(grid)
    for k in _SCAN_KS:
        lists = [same_color_offsets(scheme) for scheme in schemes(k)]
        owner, i, j = window_offsets(k, schemes(k))
        peak, top, upper, bounds = grid.scan(owner, i, j, per_point=True)
        assert all(key in grid.index for key in (i * 2**32 + j).tolist())
        vals = np.array([oracle.scheme_min(offsets) for offsets in lists])
        want = np.array([oracle.scheme_bounds(offsets) for offsets in lists])
        assert peak.tobytes() == vals.max(axis=1).tobytes(), k
        assert top.tolist() == vals.argmax(axis=1).tolist(), k
        assert upper.tobytes() == want.max(axis=1).tobytes(), k
        assert bounds.tobytes() == want.tobytes(), k
        # without per_point the scan holds no per-point rows and gives the same numbers
        alone = grid.scan(owner, i, j)
        assert alone[3] is None
        assert [a.tobytes() for a in alone[:3]] == [a.tobytes() for a in (peak, top, upper)], k
    assert len(grid.table) == len(grid.index) == len(oracle._dist)


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
    doubled = frame(math.pi / 3.0, math.pi / 3.0)
    for k in range(3, 31):
        for tag, res in results[k].per_class.items():
            assert res.d <= res.d_upper, (k, tag)
        # the regular bound is the best value of any scheme at the one shape,
        # which a tied scheme reported by the tie rule may miss by an ulp
        regular = results[k].per_class[REGULAR]
        assert regular.d_upper == max(min_gap(scheme, doubled) for scheme in schemes(k)), k
        assert regular.d <= regular.d_upper <= regular.d + optimizer._TIE_TOL, k
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
        rows = re.search(r"; table rows computed (\d+); evaluations \d+$", lines[0])
        assert rows
        computed.append(int(rows.group(1)))
    assert computed[0] > 0 and computed[1] == 0


def test_non_canonical_triples_are_logged(caplog):
    for k, tag, canonical in [(5, REGULAR, False), (8, SEMI_REGULAR, True)]:
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="hexcoloring.optimizer"):
            res = solve(k, tag)
        assert res.triple.canonical is canonical
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("finalize:")]
        t1, t2 = tuple(res.triple.t1), tuple(res.triple.t2)
        event = (f"finalize: k={k} {tag} scheme ({res.scheme.g}, {res.scheme.h}) has a "
                 f"non-canonical triple t1={t1} t2={t2}")
        assert lines == ([] if canonical else [event])


def test_polish_logs_an_abandoned_step(caplog):
    # every shape but the start reads -1.0, so even a quarter step loses
    res = solve(11, RECTILINEAR)
    x, y = res.gaps[0] + 1e-6, res.gaps[1]
    val, active = _eval_min(x, y, res.scheme, _ACTIVE)
    fn = lambda a, b: val if (a, b) == (x, y) else -1.0
    with caplog.at_level(logging.DEBUG, logger="hexcoloring.optimizer"):
        got = _polish(fn, (x, y), val, active)
    assert got == ((x, y), val, val)
    lines = [r.getMessage() for r in caplog.records]
    assert len(lines) == 1 and lines[0].startswith("newton: step abandoned at ("), lines


def test_polish_frames_each_shape_once(monkeypatch):
    # fn frames through geometry.frame, so only the polish's own frames,
    # through optimizer.frame, are counted
    res = solve(11, RECTILINEAR)
    fn = lambda a, b, tol=None: min_gap(res.scheme, frame(a, b), tol)
    x, y = res.gaps[0] + 1e-6, res.gaps[1]
    _, active = fn(*res.gaps, _ACTIVE)
    assert len(active) == 2
    shapes = []

    def counted(*shape):
        shapes.append(shape)
        return frame(*shape)

    monkeypatch.setattr(optimizer, "frame", counted)
    _polish(fn, (x, y), fn(x, y), active)
    assert shapes and len(set(shapes)) == len(shapes), shapes


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
            r"solve: k=(\d+) semi_regular refined (\d+), mapped (\d+), skipped (\d+) by the bound "
            r"\((\d+) only after bisection\); ",
            line,
        )
        assert counts, line
        k, r, mapped, skipped, late = (int(c) for c in counts.groups())
        assert r + mapped + skipped == len(schemes(k)) and late <= skipped
        refined, after = refined + r, after + late
    assert refined <= 140
    assert after > 0


@pytest.mark.parametrize("k", [*range(3, 46), 77])
def test_bisected_bound_lies_between_optimum_and_scan_bound(k):
    # the bound that the semi-regular skip test proves on halved cells lies
    # between them: the test never clears a scheme whose optimum reaches the
    # target, and answers "cannot reach", with no evaluation, once the target
    # passes the scheme's scan bound
    grid = _get_field(SEMI_REGULAR)
    candidates = schemes(k)
    owner, i, j = window_offsets(k, candidates)
    _, _, uppers, bounds = grid.scan(owner, i, j, per_point=True)
    for n, scheme in enumerate(candidates):
        own, upper = bounds[n], uppers[n]
        d = optimize_scheme(k, scheme, SEMI_REGULAR).d
        for target in (d, d - 1e-9):
            assert _may_reach(scheme, grid, own, target, [0, 0]), (scheme, target)
        for target in (math.nextafter(upper, math.inf), upper + 1.0):
            counts = [0, 0]
            assert not _may_reach(scheme, grid, own, target, counts), (scheme, target)
            assert counts == [0, 0]


@pytest.mark.parametrize("k", [56, 77, 112, 156])
def test_orbit_bound_skips_and_certifies_large_k(k, caplog):
    with caplog.at_level(logging.DEBUG, logger="hexcoloring.optimizer"):
        res = solve(k, RECTILINEAR)
    assert res.d <= res.d_upper <= res.d + 0.3
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("solve:")]
    assert len(lines) == 1
    counts = re.match(
        rf"solve: k={k} rectilinear refined (\d+), mapped (\d+), skipped (\d+) by the bound; ",
        lines[0],
    )
    assert counts
    refined, mapped, skipped = (int(c) for c in counts.groups())
    assert refined + mapped + skipped == len(schemes(k))
    assert skipped > 0
    # an orbit's bound is the largest of its members' scan bounds, one for all
    per_scheme = {s: optimize_scheme(k, s) for s in schemes(k)}
    for scheme, r in per_scheme.items():
        assert {per_scheme[sym.image_scheme(scheme)].d_upper for sym in SYMMETRIES} == {r.d_upper}
    assert res.d_upper == max(r.d_upper for r in per_scheme.values())


def test_largest_readme_k_crowns_the_cubic_form():
    # acceptance C5 checks k = 756 through closed forms only; solve it
    res = solve_all(756)
    assert res.champion_class == RECTILINEAR
    assert res.champion.closed_form_tag == "cubic_f"
    assert abs(res.champion.dsq - cubic_f(756)[1]) <= 1e-9


def _cold_rectilinear_peak(k: int) -> int:
    """Bytes traced by ``tracemalloc`` at the peak of ``solve(k, RECTILINEAR)`` on a new field."""
    optimizer._get_field.cache_clear()
    tracemalloc.start()
    try:
        solve(k, RECTILINEAR)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cold_rectilinear_solve_stays_small():
    # the table is held at the 209 kept grid points, not over the 48 x 48
    # square, and the scan hands each scheme three numbers, not a row per
    # grid point: 2.7 MB traced at the peak, 3.9 MB with a row of values and
    # one of bounds per scheme, 9.8 MB with the values over the square
    assert _cold_rectilinear_peak(156) < 3.3e6


def test_cold_rectilinear_solve_stays_small_at_k756():
    # 10.7 MB traced at the peak, 19.3 MB with a row of values and one of
    # bounds per scheme
    assert _cold_rectilinear_peak(756) < 13e6


@pytest.mark.parametrize("class_tag", [REGULAR, SEMI_REGULAR, RECTILINEAR])
def test_summary_counts_evaluations(class_tag, caplog):
    # optimize_scheme logs one summary for every class, the regular one too
    with caplog.at_level(logging.DEBUG, logger="hexcoloring.optimizer"):
        optimize_scheme(12, ColorScheme(12, 6, 2), class_tag)
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("solve:")]
    assert len(lines) == 1
    if class_tag == REGULAR:
        assert lines[0].startswith("solve: k=12 regular refined 1, mapped 0, skipped 0 by the")
        assert lines[0].endswith("; table rows computed 0; evaluations 1")
    counts = []
    for _ in range(2):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="hexcoloring.optimizer"):
            solve(12, class_tag)
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("solve:")]
        assert len(lines) == 1
        assert re.match(rf"solve: k=12 {class_tag} refined \d+, mapped \d+, skipped \d+", lines[0])
        found = re.search(r"; evaluations (\d+)$", lines[0])
        assert found
        counts.append(int(found.group(1)))
    assert counts[0] > 0
    assert counts[1] == counts[0]


# objective evaluations over solve_all(k) for k = 3..30, per class, as
# measured; they repeat exactly.  A golden section that narrows every
# semi-regular bracket to 1e-12 or starts over where Newton ends on no
# crossing, or a regular class that evaluates every scheme, goes over its
# ceiling.
_SWEEP_EVALUATIONS = {REGULAR: 107, SEMI_REGULAR: 938, RECTILINEAR: 643}


def test_sweep_evaluations_stay_under_their_ceilings(caplog):
    with caplog.at_level(logging.DEBUG, logger="hexcoloring.optimizer"):
        for k in range(3, 31):
            solve_all(k)
    total = dict.fromkeys(CLASS_TAGS, 0)
    for record in caplog.records:
        found = re.match(r"solve: k=\d+ (\w+) .*; evaluations (\d+)$", record.getMessage())
        if found:
            total[found.group(1)] += int(found.group(2))
    for tag in CLASS_TAGS:
        assert 0 < total[tag] <= _SWEEP_EVALUATIONS[tag], (tag, total[tag])


def _regular_exhaustive(k: int):
    """The regular class's answer with every scheme evaluated, none skipped."""
    pt = (math.pi / 3.0, math.pi / 3.0)
    doubled = frame(*pt)
    cands = [(min_gap(scheme, doubled), scheme, pt) for scheme in schemes(k)]
    return optimizer._finalize(k, REGULAR, cands, max(val for val, _, _ in cands))


def test_regular_bound_holds_for_every_scheme():
    # the doubled regular hexagon holds the disc of radius sqrt(3) / 2, so no
    # gap exceeds |b1| - sqrt(3) / 2 for the reduced basis's first vector b1
    doubled = frame(math.pi / 3.0, math.pi / 3.0)
    for k in range(3, 201):
        for scheme in schemes(k):
            bound = math.sqrt(_reduced_basis(scheme, *doubled[2:])[4]) - math.sqrt(3.0) / 2.0
            assert min_gap(scheme, doubled) <= bound + 1e-12, scheme


def test_regular_bound_order_skips_no_answer():
    for k in [*range(3, 121), 756]:
        assert repr(solve(k, REGULAR)) == repr(_regular_exhaustive(k)), k


@pytest.mark.parametrize("k", range(3, 61))
def test_semi_regular_handover_matches_the_full_golden_section(k, monkeypatch):
    # Newton from the golden section's 1e-7 bracket ends where it ends from
    # the 1e-12 one, or the search runs the golden section to 1e-12 itself
    got = [optimize_scheme(k, scheme, SEMI_REGULAR) for scheme in schemes(k)]
    monkeypatch.setattr(optimizer, "_search_semi", golden_search_semi)
    for res in got:
        ref = optimize_scheme(k, res.scheme, SEMI_REGULAR)
        assert abs(res.d - ref.d) <= 1e-12, res.scheme
        assert abs(res.gaps[0] - ref.gaps[0]) <= 1e-12, res.scheme
        assert res.dsq_rational == ref.dsq_rational, res.scheme


def test_resumed_golden_section_matches_a_fresh_one(monkeypatch):
    # a search whose Newton ends on no crossing continues its golden section
    # from the 1e-7 bracket, and reaches the point that a golden section run
    # afresh to 1e-12 reaches, bit for bit
    fallbacks = []
    real_search = optimizer._search_semi

    def search(fn, lo, hi):
        # each pass lists the active offsets once, at the point it may polish
        starts = []

        def listing(a, b, tol=None):
            if tol is not None:
                starts.append((a, fn(a, b)))
            return fn(a, b, tol)

        got = real_search(listing, lo, hi)
        if len(starts) == 2:
            fallbacks.append((fn, lo, hi, starts[1], got))
        return got

    monkeypatch.setattr(optimizer, "_search_semi", search)
    for k in range(3, 61):
        for scheme in schemes(k):
            optimize_scheme(k, scheme, SEMI_REGULAR)
    assert fallbacks
    for fn, lo, hi, resumed, got in fallbacks:
        assert resumed == golden_max(lambda g: fn(g, g), lo, hi, optimizer._GOLDEN_TOL)
        assert got == golden_search_semi(fn, lo, hi)


def _feature(g1, g2, i, j):
    """The doubled-hexagon vertex or edge nearest offset (i, j)'s point, searched directly."""
    vx, vy, eix, eiy, ejx, ejy = frame(g1, g2)
    return nearest_feature(i * eix + j * ejx, i * eiy + j * ejy, vx, vy)


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
    gap, grad, hess = _offset_jet(frame(g1, g2), i, j)
    assert gap == offset_dist(g1, g2, i, j)
    h = 1e-6
    steps = [(h, 0.0), (-h, 0.0), (0.0, h), (0.0, -h)]
    feature = _feature(g1, g2, i, j)
    if gap < 1e-3 or any(_feature(g1 + a, g2 + b, i, j) != feature for a, b in steps):
        return  # inside the hexagon, or the nearest vertex or edge changes nearby
    for k, ((a1, b1), (a2, b2)) in enumerate([steps[:2], steps[2:]]):
        fd = (offset_dist(g1 + a1, g2 + b1, i, j) - offset_dist(g1 + a2, g2 + b2, i, j)) / (2 * h)
        assert abs(grad[k] - fd) <= 1e-6 * (1.0 + abs(fd)), (k, grad, fd)
        up, down = (_offset_jet(frame(g1 + a, g2 + b), i, j)[1] for a, b in ((a1, b1), (a2, b2)))
        for m in range(2):
            fd = (up[m] - down[m]) / (2 * h)
            assert abs(hess[k][m] - fd) <= 1e-4 * (1.0 + abs(fd)), (k, m, hess, fd)


def _scheme_vals(class_tag, k, candidates=None):
    """(scheme, its values at the kept grid points, its ``_start``, the field) for each scheme.

    The values are ``PerOffsetScan``'s, which match the scan's bit for bit;
    the start is from the scan's peak and first peak point, as ``solve``
    takes it."""
    grid = _get_field(class_tag)
    oracle = PerOffsetScan(grid)
    candidates = candidates or schemes(k)
    peak, top, _, _ = grid.scan(*window_offsets(k, candidates))
    for n, scheme in enumerate(candidates):
        vals = oracle.scheme_min(same_color_offsets(scheme))
        yield scheme, vals, _start(grid, peak[n], top[n]), grid


@pytest.mark.parametrize("k", range(3, 21))
def test_finishing_only_the_leading_start_loses_nothing(k):
    # the polished ascent from the best grid point matches Nelder-Mead run
    # to the end from each of the former multistart's eight seeds
    for scheme, vals, start, grid in _scheme_vals(RECTILINEAR, k):
        val, _ = _refine(RECTILINEAR, scheme, start, grid, [0])
        seeds = rect_seeds(vals, grid)
        assert abs(val - refine_every_start(scheme, seeds, grid.cell)) <= 1e-12, scheme


@pytest.mark.parametrize("k", _SCAN_KS)
def test_dropping_the_regular_start_changes_no_class_answer(k, monkeypatch):
    got = solve_all(k)
    monkeypatch.setattr(optimizer, "_refine", refine_from_both_starts)
    want = solve_all(k)
    assert got.champion_class == want.champion_class
    for tag, res in got.per_class.items():
        ref = want.per_class[tag]
        assert abs(res.d - ref.d) <= 1e-12, tag
        assert (res.scheme, res.dsq_rational, res.d_upper) == (
            ref.scheme, ref.dsq_rational, ref.d_upper), tag
        assert (res.triple.t1, res.triple.t2) == (ref.triple.t1, ref.triple.t2), tag


_full_triangle_field = functools.lru_cache(maxsize=1)(full_triangle_grid)


@pytest.mark.parametrize("k", _SCAN_KS)
def test_scanning_one_sextant_changes_no_rectilinear_answer(k, monkeypatch):
    # the scan over the whole triangle finds the same rectilinear answer, and
    # for k <= 30 it gives no scheme a better result
    got = solve(k, RECTILINEAR)
    per_scheme = {s: optimize_scheme(k, s) for s in schemes(k)} if k <= 30 else {}
    monkeypatch.setattr(optimizer, "_get_field", lambda tag: _full_triangle_field(COARSE_GRID))
    want = solve(k, RECTILINEAR)
    assert abs(got.d - want.d) <= 1e-12
    assert (got.dsq_rational, got.scheme) == (want.dsq_rational, want.scheme)
    for scheme, res in per_scheme.items():
        assert res.d >= optimize_scheme(k, scheme).d - 1e-12, scheme


def test_optimize_scheme_maps_its_orbit_optimum(monkeypatch):
    # the refined member's sliver optimum, mapped, reaches d = 1; the search
    # from (22, 0)'s own start stops at 0.99972
    assert abs(optimize_scheme(44, ColorScheme(44, 22, 0)).d - 1.0) <= 1e-9
    refines = []
    real = optimizer._refine
    monkeypatch.setattr(optimizer, "_refine", lambda *a: refines.append(a[1]) or real(*a))
    # at k = 15, (5, 2) leads the orbit of (3, 0) and its optimum maps onto
    # (3, 0); the optimum of (15, 4) is a sliver whose image on (3, 2) rounds
    # out of the triangle, so (3, 2) is searched from its own start as well
    for scheme, searched in [((3, 0), [(5, 2)]), ((3, 2), [(15, 4), (3, 2)])]:
        refines.clear()
        scheme = ColorScheme(15, *scheme)
        res = optimize_scheme(15, scheme)
        assert refines == [ColorScheme(15, *gh) for gh in searched]
        assert gaps_valid(*res.gaps) and res.d == _eval_min(*res.gaps, scheme)


@pytest.mark.parametrize("class_tag", [SEMI_REGULAR, RECTILINEAR])
def test_optimize_scheme_reproduces_the_solve_winner(class_tag):
    # optimize_scheme runs solve's scheme loop on the winner's orbit, so it
    # returns the winner's result: its gaps, triple and dsq_rational as well
    # as d (SolveResult equality leaves out d_upper)
    for k in range(3, 121):
        res = solve(k, class_tag)
        assert optimize_scheme(k, res.scheme, class_tag) == res, k


@pytest.mark.parametrize("k", [130, 167])
def test_optimize_scheme_reproduces_the_semi_regular_winner_beyond_120(k):
    # here the winner's mirror partner, from a start of its own, stops lower
    # (8.342 and 9.963), so a partner may take the winner's optimum only
    # when both start from the same grid point
    res = solve(k, SEMI_REGULAR)
    assert optimize_scheme(k, res.scheme, SEMI_REGULAR) == res


@pytest.mark.parametrize("gamma", [0.4, 0.9, math.pi / 3.0, 1.3])
def test_mirror_partners_share_the_semi_regular_objective(gamma):
    # the mirror (gap1, gap2) -> (gap2, gap1) fixes every shape (gamma, gamma),
    # so a scheme and its mirror image have one objective on the diagonal
    mirror = SYMMETRIES[3]
    assert mirror.image_gaps(gamma, gamma) == (gamma, gamma)
    for k in range(3, 41):
        for scheme in schemes(k):
            image = mirror.image_scheme(scheme)
            assert abs(_eval_min(gamma, gamma, scheme) - _eval_min(gamma, gamma, image)) <= 1e-12, (
                scheme, image)


def test_mapped_semi_regular_partners_share_their_start(monkeypatch):
    # a semi-regular scheme takes its mirror image's optimum only when that
    # image was searched from the scheme's own start; at k = 130 and 167 the
    # winner's partner, searched first from another start, stops lower
    searched, loops = {}, []
    real_refine, real_loop = optimizer._refine, optimizer._refine_schemes

    def refine(class_tag, scheme, start, grid, counts):
        searched[scheme] = start
        return real_refine(class_tag, scheme, start, grid, counts)

    def loop(*args):
        refined, bound = real_loop(*args)
        loops.append([scheme for _, scheme, _ in refined])
        return refined, bound

    monkeypatch.setattr(optimizer, "_refine", refine)
    monkeypatch.setattr(optimizer, "_refine_schemes", loop)
    grid = _get_field(SEMI_REGULAR)
    mapped = 0
    for k in [*range(3, 61), 130, 167]:
        searched.clear()
        solve(k, SEMI_REGULAR)
        candidates = schemes(k)
        peak, top, _, _ = grid.scan(*window_offsets(k, candidates))
        for scheme in loops.pop():
            if scheme not in searched:
                mirror = SYMMETRIES[3].image_scheme(scheme)
                n = candidates.index(scheme)
                own = _start(grid, peak[n], top[n])
                assert searched.get(mirror) == own, (k, scheme, mirror)
                mapped += 1
    assert mapped > 0


# schemes whose ascents try near-degenerate shapes, and their optima; at one
# shape that (112, 56, 55)'s ascent tries, the reduced sublattice vector is
# 1.1e-7 long and 1.4 million offsets lie within 4 radius of the minimum
_SLIVER_OPTIMA = {
    (112, 56, 55): 0.9998347517133226,
    (156, 52, 0): 2.0,
    (58, 29, 27): 1.0,
    (64, 64, 31): 1.0,
    (36, 36, 24): 2.0,
}


@pytest.mark.parametrize("kgh", sorted(_SLIVER_OPTIMA), ids=str)
def test_ascent_lists_offsets_only_at_accepted_points(kgh, monkeypatch):
    listings = []
    real = optimizer.min_gap

    def counted(scheme, frame, tol=None):
        out = real(scheme, frame, tol)
        if tol is not None:
            listings.append(len(out[1]))
        return out

    monkeypatch.setattr(optimizer, "min_gap", counted)
    res = optimize_scheme(kgh[0], ColorScheme(*kgh))
    assert max(listings) <= 10 and len(listings) <= 50, listings
    assert abs(res.d - _SLIVER_OPTIMA[kgh]) <= 1e-12


def _assert_semi_matches_former_starts(k, candidates=None):
    for scheme, vals, start, grid in _scheme_vals(SEMI_REGULAR, k, candidates):
        counts = [0]
        got = _refine(SEMI_REGULAR, scheme, start, grid, counts)
        starts = semi_starts(vals, grid.centers)
        assert got == refine_semi_every_start(scheme, starts, grid.cell), scheme
        assert counts[0] > 0


@pytest.mark.parametrize("k", range(3, 31))
def test_semi_regular_starts_past_the_best_change_nothing(k):
    # the former starts also searched the second and third coarse maxima
    _assert_semi_matches_former_starts(k)


def test_semi_regular_plateau_schemes_match_their_former_starts():
    # for k <= 175, (k, k, 0) and (k, k, k - 1) are the only schemes with
    # more than one coarse maximum; their objective is near 0 on a plateau
    for k in range(3, 121):
        _assert_semi_matches_former_starts(k, [ColorScheme(k, k, 0), ColorScheme(k, k, k - 1)])


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

    def counted(hexagon, scheme):
        calls.append((hexagon.gaps, scheme))
        return canonical_triple(hexagon, scheme)

    monkeypatch.setattr(optimizer, "canonical_triple", counted)
    # each of these solves breaks a tie between schemes by their triples
    for k, tag in [(7, REGULAR), (6, SEMI_REGULAR), (6, RECTILINEAR)]:
        calls.clear()
        res = solve(k, tag)
        assert len(calls) == len(set(calls)), (k, tag)
        assert res.triple == canonical_triple(hexagon_from_gaps(*res.gaps), res.scheme)

