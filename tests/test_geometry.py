import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geometry_oracle import convex_distance, polygon_area, segment_distance
from helpers import regular_hexagon
from hexcoloring.coloring import lattice_basis
from hexcoloring.geometry import (
    CLASS_TAGS,
    RECTILINEAR,
    REGULAR,
    SEMI_REGULAR,
    DomainError,
    Hexagon,
    hexagon_from_gaps,
    point_to_hexagon_distance,
)


def semi_regular_from_r(r: float) -> Hexagon:
    """Semi-regular hexagon whose pair of vertical edges has length ``r``.

    Valid for 0 < r < 1.  r = 1/2 gives the regular hexagon.
    """
    if not (0.0 < r < 1.0):
        raise DomainError(f"r must lie in (0, 1): got {r}")
    gap = math.acos(r)
    return hexagon_from_gaps(gap, gap)

# keep clear of the degeneracy margin so derived quantities stay well scaled
gap_pairs = st.tuples(
    st.floats(min_value=0.05, max_value=2.9, allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.05, max_value=2.9, allow_nan=False, allow_infinity=False),
).filter(lambda g: g[0] + g[1] < math.pi - 0.05)

unit_points = st.tuples(
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False),
)


@given(gaps=gap_pairs)
def test_vertices_on_half_radius_circle(gaps):
    hx = hexagon_from_gaps(*gaps)
    assert len(hx.vertices) == 6
    for x, y in hx.vertices:
        assert abs(math.hypot(x, y) - 0.5) <= 1e-12


@given(gaps=gap_pairs)
def test_central_symmetry_gives_unit_diagonals(gaps):
    hx = hexagon_from_gaps(*gaps)
    for m in range(3):
        ax, ay = hx.vertices[m]
        bx, by = hx.vertices[m + 3]
        assert abs(ax + bx) <= 1e-12 and abs(ay + by) <= 1e-12
        assert abs(math.hypot(ax - bx, ay - by) - 1.0) <= 1e-12


@given(gaps=gap_pairs)
def test_vertices_counterclockwise_convex(gaps):
    hx = hexagon_from_gaps(*gaps)
    v = hx.vertices
    for m in range(6):
        ax, ay = v[m]
        bx, by = v[(m + 1) % 6]
        cx, cy = v[(m + 2) % 6]
        cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        assert cross > 0.0


@given(gaps=gap_pairs)
def test_edge_lengths_are_gap_chords(gaps):
    gap1, gap2 = gaps
    gap3 = math.pi - gap1 - gap2
    hx = hexagon_from_gaps(gap1, gap2)
    v = hx.vertices

    def edge(m):
        ax, ay = v[m]
        bx, by = v[(m + 1) % 6]
        return math.hypot(ax - bx, ay - by)

    assert abs(edge(0) - math.sin(gap1 / 2)) <= 1e-12
    assert abs(edge(1) - math.sin(gap2 / 2)) <= 1e-12
    assert abs(edge(2) - math.sin(gap3 / 2)) <= 1e-12
    assert abs(hx.s - math.sin(gap1 / 2)) <= 1e-15
    assert abs(hx.r - math.sin(gap3 / 2)) <= 1e-15


def test_class_tags():
    third = math.pi / 3
    assert hexagon_from_gaps(third, third).class_tag == REGULAR
    assert hexagon_from_gaps(0.9, 0.9).class_tag == SEMI_REGULAR
    assert hexagon_from_gaps(0.9, 1.1).class_tag == RECTILINEAR
    assert regular_hexagon().class_tag == REGULAR
    assert CLASS_TAGS == (REGULAR, SEMI_REGULAR, RECTILINEAR)


@pytest.mark.parametrize(
    "gap1,gap2",
    [(0.0, 1.0), (1.0, 0.0), (-0.1, 1.0), (2.0, 2.0), (math.pi, 0.1), (1e-12, 1.0)],
)
def test_invalid_gaps_rejected(gap1, gap2):
    with pytest.raises(DomainError):
        hexagon_from_gaps(gap1, gap2)


def test_semi_regular_from_r():
    hx = semi_regular_from_r(0.2)
    assert hx.class_tag == SEMI_REGULAR
    assert abs(hx.r - 0.2) <= 1e-12
    assert abs(hx.gaps[0] - hx.gaps[1]) <= 1e-15
    # r = 1/2 forces all three gaps equal
    assert semi_regular_from_r(0.5).class_tag == REGULAR
    for bad in (0.0, 1.0, -0.3, 1.5):
        with pytest.raises(DomainError):
            semi_regular_from_r(bad)


@given(gaps=gap_pairs, angle=st.floats(min_value=-7.0, max_value=7.0, allow_nan=False))
def test_rotation_preserves_shape_data(gaps, angle):
    hx = hexagon_from_gaps(*gaps)
    rot = hx.rotated(angle)
    assert rot.class_tag == hx.class_tag
    assert rot.r == hx.r and rot.s == hx.s
    for (ax, ay), (bx, by) in zip(hx.vertices, rot.vertices):
        assert abs(math.hypot(ax, ay) - math.hypot(bx, by)) <= 1e-12


def test_segment_distance_cases():
    # proper crossing
    assert segment_distance(((-1, 0), (1, 0)), ((0, -1), (0, 1))) == 0.0
    # shared endpoint
    assert segment_distance(((0, 0), (1, 0)), ((1, 0), (1, 1))) == 0.0
    # collinear overlap
    assert segment_distance(((0, 0), (2, 0)), ((1, 0), (3, 0))) == 0.0
    # parallel, vertical gap of exactly 0.5
    assert abs(segment_distance(((0, 0), (1, 0)), ((0, 0.5), (1, 0.5))) - 0.5) <= 1e-15
    # degenerate point segments
    assert abs(segment_distance(((0, 0), (0, 0)), ((3, 4), (3, 4))) - 5.0) <= 1e-15
    # closest pair is endpoint to interior
    d = segment_distance(((0, 0), (4, 0)), ((2, 1), (2, 3)))
    assert abs(d - 1.0) <= 1e-15


@given(a=st.tuples(unit_points, unit_points), b=st.tuples(unit_points, unit_points))
def test_segment_distance_symmetric(a, b):
    assert segment_distance(a, b) == segment_distance(b, a)


@given(gaps=gap_pairs, offset=unit_points)
def test_convex_distance_swap_symmetry(gaps, offset):
    hx = hexagon_from_gaps(*gaps)
    neg = (-offset[0], -offset[1])
    assert abs(convex_distance(hx, hx, offset) - convex_distance(hx, hx, neg)) <= 1e-12


@given(gaps=gap_pairs, offset=unit_points)
@settings(max_examples=60)
def test_pair_distance_matches_doubled_hexagon_route(gaps, offset):
    # dist(H, H + c) must agree with the point-to-(2H) formulation
    hx = hexagon_from_gaps(*gaps)
    slow = convex_distance(hx, hx, offset)
    fast = point_to_hexagon_distance(*offset, *_doubled(hx))
    assert abs(slow - fast) <= 1e-12


def _doubled(hx):
    """Vertex x and y tuples of ``hx`` doubled about its center."""
    return tuple(2 * x for x, _ in hx.vertices), tuple(2 * y for _, y in hx.vertices)


def test_point_to_convex_distance_oracle():
    vx, vy = _doubled(regular_hexagon())
    # rightmost edge of the doubled regular hexagon is the line x = sqrt(3)/2
    want = 10.0 - math.sqrt(3) / 2
    assert abs(point_to_hexagon_distance(10.0, 0.0, vx, vy) - want) <= 1e-12
    assert point_to_hexagon_distance(0.0, 0.0, vx, vy) == 0.0
    assert point_to_hexagon_distance(vx[0], vy[0], vx, vy) == 0.0


def test_overlapping_translates_have_zero_distance():
    hx = regular_hexagon()
    assert convex_distance(hx, hx, (0.0, 0.0)) == 0.0
    assert convex_distance(hx, hx, (0.1, 0.05)) == 0.0


def test_polygon_area_regular():
    want = 3 * math.sqrt(3) / 8
    assert abs(polygon_area(regular_hexagon()) - want) <= 1e-12


@given(gaps=gap_pairs)
def test_tile_area_equals_lattice_cell(gaps):
    # translates along the lattice tile the plane, so the areas must agree
    hx = hexagon_from_gaps(*gaps)
    basis = lattice_basis(hx)
    (eix, eiy), (ejx, ejy) = basis.e_i, basis.e_j
    cell = abs(eix * ejy - eiy * ejx)
    assert abs(polygon_area(hx) - cell) <= 1e-10


def test_hexagon_is_frozen():
    hx = regular_hexagon()
    with pytest.raises(Exception):
        hx.r = 2.0
    assert isinstance(hx, Hexagon)
