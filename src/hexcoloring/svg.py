"""Render a colored hexagon tiling patch as a standalone SVG document."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .coloring import ColorScheme, TripleRepresentation
from .geometry import DomainError, Hexagon, frame

# one unit diameter = 100 SVG user units, identical in every scene
SCALE = 100.0

_MARGIN = 12.0
_BASE_FILL = "#b9b9b9"
_PLAIN_FILL = "#ffffff"
_STROKE = "#1a1a1a"
_HIGHLIGHT_STROKE = "#c0392b"
_AXIS_COLOR = "#2255aa"


@dataclass(frozen=True)
class SceneTile:
    """One drawn tile: lattice index, polygon in user units, base-color flag."""

    i: int
    j: int
    points: tuple[tuple[float, float], ...]
    base: bool
    highlighted: bool = False


@dataclass(frozen=True)
class SvgScene:
    viewport: tuple[float, float, float, float]
    tiles: tuple[SceneTile, ...]
    axes: tuple[tuple[float, float], tuple[float, float]] | None

    def xml(self) -> str:
        x, y, w, h = self.viewport
        out = [
            '<?xml version="1.0" encoding="UTF-8" standalone="no"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{w:.1f}" height="{h:.1f}" '
            f'viewBox="{x:.1f} {y:.1f} {w:.1f} {h:.1f}">',
        ]
        for tile in self.tiles:
            pts = " ".join(f"{px:.2f},{py:.2f}" for px, py in tile.points)
            fill = _BASE_FILL if tile.base else _PLAIN_FILL
            stroke = _HIGHLIGHT_STROKE if tile.highlighted else _STROKE
            width = 2.5 if tile.highlighted else 1.0
            out.append(
                f'<polygon points="{pts}" fill="{fill}" '
                f'stroke="{stroke}" stroke-width="{width:.1f}"/>'
            )
        if self.axes is not None:
            for (ax, ay), label in zip(self.axes, ("i", "j")):
                out.append(
                    f'<line x1="0.00" y1="0.00" x2="{ax:.2f}" y2="{ay:.2f}" '
                    f'stroke="{_AXIS_COLOR}" stroke-width="2.0"/>'
                )
                out.append(
                    f'<text x="{1.12 * ax:.2f}" y="{1.12 * ay:.2f}" '
                    f'font-size="18" fill="{_AXIS_COLOR}" '
                    f'text-anchor="middle">{label}</text>'
                )
        out.append("</svg>")
        return "\n".join(out) + "\n"


def render_svg(
    hexagon: Hexagon,
    scheme: ColorScheme,
    extent: int,
    *,
    axes: bool = False,
    highlight: TripleRepresentation | None = None,
) -> SvgScene:
    """Scene with tiles at all |i|, |j| <= extent; base-color tiles fill gray.

    The lattice is rotated so e_i runs horizontally and the y axis points up
    on screen (SVG user y is flipped).  Highlighted tiles are the origin and
    the triple members, when they fall inside the window.
    """
    if extent < 1:
        raise DomainError(f"extent must be at least 1: got {extent}")
    *_, eix, eiy, ejx, ejy = frame(*hexagon.gaps)
    norm = math.hypot(eix, eiy)
    ca, sa = eix / norm, eiy / norm

    def position(i: int, j: int) -> tuple[float, float]:
        return i * eix + j * ejx, i * eiy + j * ejy

    def place(px: float, py: float) -> tuple[float, float]:
        # rotate e_i onto +x, then flip y for screen coordinates
        return (
            SCALE * (ca * px + sa * py),
            -SCALE * (-sa * px + ca * py),
        )

    marked = {(0, 0)}
    if highlight is not None:
        marked.add((highlight.t1.i, highlight.t1.j))
        marked.add((highlight.t2.i, highlight.t2.j))

    tiles = []
    span = range(-extent, extent + 1)
    for j in span:
        for i in span:
            cx, cy = position(i, j)
            pts = tuple(place(cx + vx, cy + vy) for vx, vy in hexagon.vertices)
            base = scheme.contains(i, j)
            tiles.append(
                SceneTile(
                    i=i,
                    j=j,
                    points=pts,
                    base=base,
                    highlighted=highlight is not None and (i, j) in marked and base,
                )
            )

    xs = [p[0] for t in tiles for p in t.points]
    ys = [p[1] for t in tiles for p in t.points]
    viewport = (
        min(xs) - _MARGIN,
        min(ys) - _MARGIN,
        (max(xs) - min(xs)) + 2.0 * _MARGIN,
        (max(ys) - min(ys)) + 2.0 * _MARGIN,
    )
    arrows = None
    if axes:
        arrows = (place(eix, eiy), place(ejx, ejy))
    return SvgScene(viewport=viewport, tiles=tuple(tiles), axes=arrows)
