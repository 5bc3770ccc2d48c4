import pytest

from helpers import regular_hexagon
from hexcoloring.coloring import ColorScheme
from hexcoloring.geometry import DomainError
from hexcoloring.optimizer import solve
from hexcoloring.svg import render_svg


@pytest.fixture(scope="module")
def k7_scene():
    res = solve(7, "regular")
    hexagon = regular_hexagon()
    return res, render_svg(hexagon, res.scheme, 4, axes=True, highlight=res.triple)


def test_tile_count(k7_scene):
    _, scene = k7_scene
    assert len(scene.tiles) == 9 * 9


def test_base_tiles_match_membership(k7_scene):
    res, scene = k7_scene
    gray = {(t.i, t.j) for t in scene.tiles if t.base}
    want = {
        (i, j)
        for j in range(-4, 5)
        for i in range(-4, 5)
        if res.scheme.contains(i, j)
    }
    assert gray == want
    assert len(gray) == 11


def test_highlighted_tiles(k7_scene):
    res, scene = k7_scene
    lit = {(t.i, t.j) for t in scene.tiles if t.highlighted}
    t1, t2 = res.triple.t1, res.triple.t2
    assert lit == {(0, 0), (t1.i, t1.j), (t2.i, t2.j)}
    for t in scene.tiles:
        if t.highlighted:
            assert t.base


def test_xml_document(k7_scene):
    _, scene = k7_scene
    xml = scene.xml()
    assert xml.startswith('<?xml version="1.0" encoding="UTF-8"')
    assert 'version="1.1"' in xml
    assert 'xmlns="http://www.w3.org/2000/svg"' in xml
    assert "viewBox=" in xml
    assert xml.count("<polygon") == 81
    assert xml.count("#b9b9b9") == 11
    assert xml.rstrip().endswith("</svg>")
    # no external references sneak in
    assert "http://" not in xml.replace("http://www.w3.org/2000/svg", "")


def test_axes_drawn(k7_scene):
    _, scene = k7_scene
    assert scene.axes is not None
    assert scene.xml().count("<line") == 2
    plain = render_svg(regular_hexagon(), ColorScheme(7, 7, 4), 2)
    assert plain.axes is None
    assert "<line" not in plain.xml()


def test_render_is_deterministic(k7_scene):
    res, scene = k7_scene
    again = render_svg(
        regular_hexagon(), res.scheme, 4, axes=True, highlight=res.triple
    )
    assert again.xml() == scene.xml()


def test_row_axis_is_horizontal():
    scene = render_svg(regular_hexagon(), ColorScheme(1, 1, 0), 1)
    by_index = {(t.i, t.j): t for t in scene.tiles}

    def centroid(tile):
        xs = [p[0] for p in tile.points]
        ys = [p[1] for p in tile.points]
        return sum(xs) / 6, sum(ys) / 6

    x0, y0 = centroid(by_index[(0, 0)])
    x1, y1 = centroid(by_index[(1, 0)])
    assert abs(y1 - y0) <= 1e-9
    assert x1 > x0
    # screen y grows downward, so row 1 sits above row 0
    _, y_up = centroid(by_index[(0, 1)])
    assert y_up < y0


def test_scale_is_100_per_diameter():
    scene = render_svg(regular_hexagon(), ColorScheme(1, 1, 0), 1)
    tile = next(t for t in scene.tiles if (t.i, t.j) == (0, 0))
    xs = [p[0] for p in tile.points]
    ys = [p[1] for p in tile.points]
    # unit diameter spans 100 user units
    width = max(xs) - min(xs)
    height = max(ys) - min(ys)
    assert max(width, height) == pytest.approx(100.0, abs=0.51)


def test_extent_validation():
    with pytest.raises(DomainError):
        render_svg(regular_hexagon(), ColorScheme(7, 7, 4), 0)
