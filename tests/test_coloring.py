import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexcoloring.coloring import (
    SYMMETRIES,
    ColorScheme,
    TileIndex,
    canonical_triple,
    min_gap,
    same_color_offsets,
    schemes,
    window_offsets,
)
from hexcoloring import geometry
from hexcoloring.geometry import (
    DomainError,
    hexagon_from_gaps,
    hexagon_gap,
)
from helpers import lattice_basis, regular_hexagon, rotated
from offset_window import (
    min_distance_over_offsets,
    min_offset_distance,
    offset_dist,
    tile_by_tile_window,
    window_radius,
)

gap_pairs = st.tuples(
    st.floats(min_value=0.1, max_value=2.6, allow_nan=False),
    st.floats(min_value=0.1, max_value=2.6, allow_nan=False),
).filter(lambda g: g[0] + g[1] < math.pi - 0.1)

small_k = st.integers(min_value=1, max_value=24)


def scheme_for(k):
    return st.sampled_from(schemes(k))


def test_schemes_enumeration():
    assert [(s.g, s.h) for s in schemes(1)] == [(1, 0)]
    assert [(s.g, s.h) for s in schemes(4)] == [
        (1, 0),
        (2, 0),
        (2, 1),
        (4, 0),
        (4, 1),
        (4, 2),
        (4, 3),
    ]
    # sum over divisors g of k of g choices for h
    assert len(schemes(22)) == 1 + 2 + 11 + 22
    with pytest.raises(DomainError):
        schemes(0)


@given(k=small_k)
def test_every_scheme_has_index_k(k):
    for s in schemes(k):
        assert s.k == k
        assert k % s.g == 0
        assert 0 <= s.h < s.g
        # one tile in k gets each color: density of the sublattice is 1/k
        assert s.g * s.rows_step == k


def test_scheme_validation():
    for k, g, h in [(6, 4, 0), (6, 3, 3), (6, 3, -1), (0, 1, 0), (6, 0, 0)]:
        with pytest.raises(DomainError):
            ColorScheme(k, g, h)


def test_membership_pattern():
    s = ColorScheme(6, 3, 1)
    assert s.contains(0, 0)
    assert s.contains(3, 0) and s.contains(-3, 0)
    assert s.contains(1, 2) and s.contains(4, 2)
    assert not s.contains(1, 0)
    assert not s.contains(0, 1)  # row 1 is a different color band
    assert not s.contains(0, 2)


@given(k=small_k, data=st.data())
def test_membership_closed_under_addition(k, data):
    s = data.draw(scheme_for(k))
    span = st.integers(min_value=-8, max_value=8)
    i1, j1, i2, j2 = (data.draw(span) for _ in range(4))
    # build two genuine members, then check their sum and difference
    m1 = (i1 * s.g + j1 * s.h, j1 * s.rows_step)
    m2 = (i2 * s.g + j2 * s.h, j2 * s.rows_step)
    assert s.contains(*m1) and s.contains(*m2)
    assert s.contains(m1[0] + m2[0], m1[1] + m2[1])
    assert s.contains(m1[0] - m2[0], m1[1] - m2[1])


def test_enumeration_bound():
    assert window_radius(7) == math.isqrt(27) + 2
    assert window_radius(7, 3) == window_radius(7) + 2
    assert window_radius(1) == 3


def test_offsets_frozen_sets():
    got = sorted(map(tuple, same_color_offsets(ColorScheme(7, 7, 4))))
    assert got == [(-3, 1), (-2, 3), (-1, 5), (1, 2), (2, 4), (4, 1), (7, 0)]
    got = sorted(map(tuple, same_color_offsets(ColorScheme(22, 11, 6))))
    assert got == [(-5, 2), (-4, 6), (1, 4), (2, 8), (6, 2), (11, 0)]


def test_window_offsets_match_the_tile_by_tile_window():
    # the vectorised enumerator gives every scheme the window the first
    # tile-by-tile loop gave it, and same_color_offsets (checked up to k = 60,
    # past which it costs seconds) its (j, i)-sorted list
    for k in range(3, 176):
        candidates = schemes(k)
        expected = [tile_by_tile_window(s) for s in candidates]
        owner, i, j = window_offsets(k, candidates)
        assert list(zip(owner.tolist(), i.tolist(), j.tolist())) == [
            (n, *t) for n, offsets in enumerate(expected) for t in offsets
        ], k
        for s, offsets in zip(candidates, expected if k <= 60 else []):
            assert same_color_offsets(s) == offsets, s


@given(k=small_k, data=st.data())
def test_offsets_are_members_in_upper_half(k, data):
    s = data.draw(scheme_for(k))
    offs = same_color_offsets(s)
    assert len(offs) == len(set(offs))
    for i, j in offs:
        assert s.contains(i, j)
        assert j > 0 or (j == 0 and i > 0)
    # generators of the sublattice are always present
    assert TileIndex(s.g, 0) in offs
    assert TileIndex(s.h, s.rows_step) in offs


def test_min_distance_mirror_asymmetry():
    # complementary residues are not mirror images: (7,3) collapses to 1/2
    # at the regular shape while (7,4) attains sqrt(7)/2
    hx = regular_hexagon()
    d3, off3 = min_distance_over_offsets(hx, ColorScheme(7, 7, 3))
    d4, _ = min_distance_over_offsets(hx, ColorScheme(7, 7, 4))
    assert abs(d3 - 0.5) <= 1e-12
    assert tuple(off3) == (-1, 2)
    assert abs(d4 - math.sqrt(7) / 2) <= 1e-12


@given(gaps=gap_pairs, angle=st.floats(min_value=-4.0, max_value=4.0, allow_nan=False))
def test_min_distance_rotation_invariant(gaps, angle):
    hx = hexagon_from_gaps(*gaps)
    s = ColorScheme(7, 7, 4)
    d0, _ = min_distance_over_offsets(hx, s)
    d1, _ = min_distance_over_offsets(rotated(hx, angle), s)
    assert abs(d0 - d1) <= 1e-10


def test_lattice_basis_positions():
    hx = regular_hexagon()
    basis = lattice_basis(hx)
    ox, oy = basis.position(0, 0)
    assert ox == 0.0 and oy == 0.0
    px, py = basis.position(2, 3)
    ex, ey = basis.e_i
    fx, fy = basis.e_j
    assert abs(px - (2 * ex + 3 * fx)) <= 1e-15
    assert abs(py - (2 * ey + 3 * fy)) <= 1e-15
    # regular tiling: row step has the expected height 3/4
    assert abs(fy - 0.75) <= 1e-12


def test_canonical_triples():
    hx = regular_hexagon()
    t = canonical_triple(hx, ColorScheme(3, 3, 1))
    assert (tuple(t.t1), tuple(t.t2)) == ((2, -1), (1, 1))
    t = canonical_triple(hx, ColorScheme(7, 7, 4))
    assert (tuple(t.t1), tuple(t.t2)) == ((3, -1), (1, 2))
    t = canonical_triple(hx, ColorScheme(4, 2, 0))
    assert (tuple(t.t1), tuple(t.t2)) == ((2, 0), (0, 2))
    # single color: a unimodular pair does the job
    t = canonical_triple(hx, ColorScheme(1, 1, 0))
    assert t.t1.i * t.t2.j - t.t2.i * t.t1.j == 1


@given(k=st.integers(min_value=2, max_value=18), data=st.data(), gaps=gap_pairs)
def test_triple_determinant_is_k(k, data, gaps):
    s = data.draw(scheme_for(k))
    hx = hexagon_from_gaps(*gaps)
    t = canonical_triple(hx, s)
    assert t.t1.i * t.t2.j - t.t2.i * t.t1.j == k
    assert s.contains(*t.t1) and s.contains(*t.t2)
    # sector constraints: t1 right of the j axis and at or below row 0
    assert t.t1.i > 0 and -t.t1.i <= t.t1.j <= 0
    assert t.t2.j > 0 and t.t2.i >= 0


def test_triple_distances_reported():
    hx = regular_hexagon()
    t = canonical_triple(hx, ColorScheme(7, 7, 4))
    want = math.sqrt(7) / 2
    for d in (t.d01, t.d02, t.d12):
        assert abs(d - want) <= 1e-12
    assert t.canonical


# SYMMETRIES[1] is the rotation of the gap directions, SYMMETRIES[3] the mirror
_ROTATION, _MIRROR = SYMMETRIES[1], SYMMETRIES[3]


def test_symmetries_permute_schemes_into_small_orbits():
    for k in range(3, 61):
        all_schemes = schemes(k)
        # solve skips SYMMETRIES[0] as the identity
        assert [SYMMETRIES[0].image_scheme(s) for s in all_schemes] == all_schemes
        for sym in SYMMETRIES:
            images = [sym.image_scheme(s) for s in all_schemes]
            assert sorted(images, key=lambda s: (s.g, s.h)) == all_schemes, (k, sym)
        orbits = set()
        for s in all_schemes:
            orbit = frozenset(sym.image_scheme(s) for sym in SYMMETRIES)
            for member in orbit:
                assert _ROTATION.image_scheme(member) in orbit, (k, s)
                assert _MIRROR.image_scheme(member) in orbit, (k, s)
            assert len(orbit) in (1, 2, 3, 6), (k, s, len(orbit))
            orbits.add(orbit)
        if k == 12:
            assert len(orbits) == 8


@settings(derandomize=True, max_examples=200)
@given(
    k=st.integers(min_value=3, max_value=60),
    data=st.data(),
    gaps=gap_pairs,
    sym=st.sampled_from(SYMMETRIES),
)
def test_symmetry_preserves_min_distance(k, data, gaps, sym):
    s = data.draw(scheme_for(k))
    slack = 1 + math.isqrt(4 * k)
    d0, _ = min_distance_over_offsets(hexagon_from_gaps(*gaps), s, slack=slack)
    image = hexagon_from_gaps(*sym.image_gaps(*gaps))
    d1, _ = min_distance_over_offsets(image, sym.image_scheme(s), slack=slack)
    assert abs(d0 - d1) <= 1e-12


def _gram_floor(frame) -> float:
    """Smallest eigenvalue of the tiling basis' Gram matrix: |c|^2 >= it * (i^2 + j^2)."""
    *_, eix, eiy, ejx, ejy = frame
    a, b, c = eix * eix + eiy * eiy, eix * ejx + eiy * ejy, ejx * ejx + ejy * ejy
    return (a + c) / 2 - math.hypot((a - c) / 2, b)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=60),
    data=st.data(),
    u=st.floats(min_value=0.0, max_value=1.0),
    v=st.floats(min_value=0.0, max_value=1.0),
    tol=st.sampled_from([1e-6, 0.3]),
)
def test_min_gap_matches_a_complete_window(k, data, u, v, tol):
    s = data.draw(scheme_for(k))
    g1 = 0.01 + u * (math.pi - 0.03)
    g2 = 0.01 + v * (math.pi - 0.02 - g1)
    frame = geometry.frame(g1, g2)
    value, near = min_gap(s, frame, tol)
    assert value == min_gap(s, frame)
    gap = lambda t: min_offset_distance((t,), frame)
    assert near and all(s.contains(*t) and gap(t) <= value + tol for t in near)
    assert min(gap(t) for t in near) == value
    slack = 1 + math.isqrt(4 * k)
    offsets = tile_by_tile_window(s, slack)
    window = min_offset_distance(offsets, frame)
    assert value <= window
    # offsets outside the window have |i| + |j| >= B, so |c|^2 >= floor * B^2 / 2
    reach = _gram_floor(frame) * window_radius(k, slack) ** 2 / 2
    if reach >= (value + tol + 1.0) ** 2:
        assert value == window
        assert near == [t for t in offsets if gap(t) <= window + tol]


def test_min_gap_lists_every_offset_within_tol_at_a_sliver():
    # the reduced b1 = (0, 1) is shorter than 1/4 here, and its gap is 0
    s = ColorScheme(4, 4, 0)
    frame = geometry.frame(2.699, 0.31)
    value, near = min_gap(s, frame, 1.0)
    assert value == 0.0
    gap = lambda t: min_offset_distance((t,), frame)
    window = tile_by_tile_window(s, slack=1 + math.isqrt(4 * s.k))
    assert near == [t for t in window if gap(t) <= value + 1.0]
    assert len(near) == 5


def _triple_key(frame, t1, t2):
    """canonical_triple's key for the pair t1, t2, and the pair's three gaps."""
    vx, vy, eix, eiy, ejx, ejy = frame
    gap = lambda i, j: hexagon_gap(i * eix + j * ejx, i * eiy + j * ejy, vx, vy)[0]
    d01, d02, d12 = gap(*t1), gap(*t2), gap(t2[0] - t1[0], t2[1] - t1[1])
    shaped = abs(d01 - d02) <= 1e-7 and d01 <= d12 + 1e-7
    return (max(d01, d02, d12), d01 + d02 + d12, 0 if shaped else 1, (*t1, *t2)), (d01, d02, d12)


def _box_wedge_pairs(scheme, bound):
    """Every pair of same-colored offsets t1 in the wedge i > 0, -i <= j <= 0
    and t2 in i >= 0, j > 0 with determinant k, in the box |i|, |j| <= bound."""
    i, j = np.mgrid[-bound : bound + 1, -bound : bound + 1].reshape(2, -1)
    m = scheme.rows_step
    colored = (j % m == 0) & ((i - (j // m) * scheme.h) % scheme.g == 0)
    first = np.stack([i, j], 1)[colored & (i > 0) & (-i <= j) & (j <= 0)]
    second = np.stack([i, j], 1)[colored & (i >= 0) & (j > 0)]
    det = np.outer(first[:, 0], second[:, 1]) - np.outer(first[:, 1], second[:, 0])
    a, b = np.nonzero(det == scheme.k)
    return zip(map(tuple, first[a].tolist()), map(tuple, second[b].tolist()))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(k=st.integers(min_value=1, max_value=12), data=st.data(), gaps=gap_pairs)
def test_canonical_triple_matches_a_brute_force_box(k, data, gaps):
    s = data.draw(scheme_for(k))
    frame = geometry.frame(*gaps)
    t = canonical_triple(hexagon_from_gaps(*gaps), s)
    key, dists = _triple_key(frame, tuple(t.t1), tuple(t.t2))
    assert (t.d01, t.d02, t.d12) == dists
    box = (_triple_key(frame, *pair)[0] for pair in _box_wedge_pairs(s, 4 * k + 4))
    assert min(box) >= key
    dmin = min_gap(s, frame)
    assert t.canonical == (min(dists) <= dmin + 1e-9 and key[2] == 0)


def test_canonical_triple_finds_a_pair_past_the_old_window():
    # (11, 1) has i + j = 12, past the index window |i| + j <= 11 that the
    # candidates once came from, which settled on (0, 2) with largest gap 4.5147
    t = canonical_triple(hexagon_from_gaps(0.72, 0.18), ColorScheme(22, 22, 11))
    assert (tuple(t.t1), tuple(t.t2)) == ((11, -1), (11, 1))
    assert abs(max(t.d01, t.d02, t.d12) - 4.4339) <= 1e-4
    assert abs(t.d12 - 0.93590) <= 1e-5


def test_min_gap_keeps_a_tie_at_the_prune():
    # at this shape the offset (-1, 2) is nearest a vertex of the doubled
    # tile, so |c| = gap + 1, and its gap is one ulp below (4, 1)'s
    scheme = ColorScheme(9, 9, 4)
    frame = geometry.frame(0.27824682273479706, 0.27824682273479723)
    best, near = min_gap(scheme, frame, 1e-6)
    assert TileIndex(-1, 2) in near
    assert min_gap(scheme, frame) == best == offset_dist(
        0.27824682273479706, 0.27824682273479723, -1, 2
    )
