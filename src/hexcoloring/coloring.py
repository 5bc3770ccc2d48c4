"""Lattice colorings of a hexagon tiling and same-color tile enumeration.

Tiles sit at integer combinations i * e_i + j * e_j of the two lattice
vectors spanned by a hexagon's vertices.  A coloring with k colors is an
index-k sublattice: tiles share the base tile's color exactly when their
index pair lies in the subgroup generated by (g, 0) and (h, k/g), where
g divides k and 0 <= h < g.  Every k-coloring of this kind arises from
exactly one such (g, h), so enumerating pairs enumerates colorings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .geometry import DomainError, Hexagon, Point, point_to_hexagon_distance


class TileIndex(NamedTuple):
    i: int
    j: int


@dataclass(frozen=True)
class LatticeBasis:
    e_i: Point
    e_j: Point

    def position(self, i: float, j: float) -> Point:
        return (
            i * self.e_i[0] + j * self.e_j[0],
            i * self.e_i[1] + j * self.e_j[1],
        )


def lattice_basis(hexagon: Hexagon) -> LatticeBasis:
    """Translation vectors of the tiling generated by ``hexagon``.

    e_i spans a row of edge-to-edge tiles; e_j steps to the next row.
    """
    v = hexagon.vertices
    return LatticeBasis(
        e_i=(v[0][0] - v[2][0], v[0][1] - v[2][1]),
        e_j=(v[0][0] + v[1][0], v[0][1] + v[1][1]),
    )


@dataclass(frozen=True)
class ColorScheme:
    """Sublattice coloring with k colors, generated by (g, 0) and (h, k/g)."""

    k: int
    g: int
    h: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise DomainError(f"k must be positive: got {self.k}")
        if self.g < 1 or self.k % self.g != 0:
            raise DomainError(f"g must divide k: got g={self.g}, k={self.k}")
        if not 0 <= self.h < self.g:
            raise DomainError(f"h must lie in [0, g): got h={self.h}, g={self.g}")

    @property
    def rows_step(self) -> int:
        """Row period k/g: rows j with j % rows_step == 0 contain color 0."""
        return self.k // self.g

    def contains(self, i: int, j: int) -> bool:
        """Whether tile (i, j) has the same color as the base tile."""
        m = self.k // self.g
        if j % m != 0:
            return False
        return (i - (j // m) * self.h) % self.g == 0


def schemes(k: int) -> list[ColorScheme]:
    """All distinct k-colorings, ordered by (g, h)."""
    if k < 1:
        raise DomainError(f"k must be positive: got {k}")
    out = []
    for g in range(1, k + 1):
        if k % g == 0:
            out.extend(ColorScheme(k, g, h) for h in range(g))
    return out


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(m, x, y) with x * a + y * b = m = gcd(a, b) >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


class Symmetry(NamedTuple):
    """A relabelling of the hexagon's gap directions; it maps the tiling onto itself.

    Index pairs move by (i, j) -> (a i + b j, c i + d j) with index_map
    (a, b, c, d); shapes move to the gaps at positions gap_order of
    (gap1, gap2, gap3), where gap3 = pi - gap1 - gap2.  For every scheme L and
    shape x the minimum same-color gap satisfies d(L, x) = d(L', x'), with L'
    = image_scheme(L) and x' = image_gaps(x).
    """

    index_map: tuple[int, int, int, int]
    gap_order: tuple[int, int]

    def image_scheme(self, scheme: ColorScheme) -> ColorScheme:
        """The image sublattice, put back into its unique (g, h) form."""
        a, b, c, d = self.index_map
        m = scheme.rows_step
        # images of the generators (g, 0) and (h, k/g)
        ui, uj = a * scheme.g, c * scheme.g
        vi, vj = a * scheme.h + b * m, c * scheme.h + d * m
        rows, x, y = _ext_gcd(uj, vj)
        g = scheme.k // rows
        return ColorScheme(scheme.k, g, (x * ui + y * vi) % g)

    def image_gaps(self, gap1: float, gap2: float) -> tuple[float, float]:
        gaps = (gap1, gap2, math.pi - gap1 - gap2)
        return gaps[self.gap_order[0]], gaps[self.gap_order[1]]


# the six relabellings: rotation (i, j) -> (i + j, -i) with gaps
# (gap1, gap2) -> (gap2, gap3), mirror (i, j) -> (-i - j, j) with
# (gap1, gap2) -> (gap2, gap1), and their products; the identity comes first
SYMMETRIES = (
    Symmetry((1, 0, 0, 1), (0, 1)),
    Symmetry((1, 1, -1, 0), (1, 2)),
    Symmetry((0, 1, -1, -1), (2, 0)),
    Symmetry((-1, -1, 0, 1), (1, 0)),
    Symmetry((0, -1, -1, 0), (2, 1)),
    Symmetry((1, 0, -1, -1), (0, 2)),
)


def enumeration_bound(k: int, slack: int = 1) -> int:
    """Index window radius ceil(2 * sqrt(k)) + slack used by enumerations."""
    return math.isqrt(4 * k - 1) + 1 + slack


def _half_plane_offsets(scheme: ColorScheme, bound: int) -> Iterator[TileIndex]:
    # one representative per +/- pair: j > 0, or j = 0 with i > 0
    m = scheme.rows_step
    for j in range(0, bound, m):
        a = j // m
        lo = 1 if j == 0 else -(bound - 1 - j)
        hi = bound - 1 - j
        # smallest i >= lo with i = a * h (mod g)
        first = lo + (a * scheme.h - lo) % scheme.g
        for i in range(first, hi + 1, scheme.g):
            yield TileIndex(i, j)


def same_color_offsets(scheme: ColorScheme, *, slack: int = 1) -> list[TileIndex]:
    """Nonzero same-color index offsets, one per +/- pair, sorted by (j, i).

    Enumerates the window |i| + j < ceil(2 sqrt(k)) + slack, which reaches
    past the nearest same-color tiles for every scheme; the two generators
    (g, 0) and (h, k/g) are always included even when they fall outside.
    """
    bound = enumeration_bound(scheme.k, slack)
    found = set(_half_plane_offsets(scheme, bound))
    found.add(TileIndex(scheme.g, 0))
    found.add(TileIndex(scheme.h, scheme.rows_step))
    return sorted(found, key=lambda t: (t.j, t.i))


def min_offset_distance(offsets, frame) -> float:
    """Smallest gap between the base tile and the tiles at ``offsets``.

    ``frame`` is (vx, vy, eix, eiy, ejx, ejy): the vertices of the tile
    doubled about its center, and the tiling's basis (eix, eiy), (ejx, ejy).
    The gap to the tile at offset c equals the distance from the point c to
    that doubled tile, because the tiles are translates of a centrally
    symmetric convex body.
    """
    vx, vy, eix, eiy, ejx, ejy = frame
    best = lim = 1e300
    for i, j in offsets:
        cx = i * eix + j * ejx
        cy = i * eiy + j * ejy
        # the doubled hexagon fits in the unit circle: d >= |c| - 1
        if cx * cx + cy * cy >= lim:
            continue
        d = point_to_hexagon_distance(cx, cy, vx, vy)
        if d < best:
            best = d
            lim = (best + 1.0) * (best + 1.0)
    return best


def _doubled_frame(hexagon: Hexagon) -> tuple:
    """The ``frame`` argument of min_offset_distance for ``hexagon``."""
    basis = lattice_basis(hexagon)
    vx = tuple(2.0 * x for x, _ in hexagon.vertices)
    vy = tuple(2.0 * y for _, y in hexagon.vertices)
    return (vx, vy, *basis.e_i, *basis.e_j)


def min_distance_over_offsets(
    hexagon: Hexagon, scheme: ColorScheme, *, slack: int = 1
) -> tuple[float, TileIndex]:
    """Minimum gap between same-colored tiles, with the first offset realizing it."""
    frame = _doubled_frame(hexagon)
    offsets = same_color_offsets(scheme, slack=slack)
    best = min_offset_distance(offsets, frame)
    # the pruned scan settles on the first offset that attains the minimum
    return best, next(t for t in offsets if min_offset_distance((t,), frame) == best)


class NoTripleError(RuntimeError):
    """No index pair with determinant k was found for the scheme."""


@dataclass(frozen=True)
class TripleRepresentation:
    """Two offsets t1, t2 whose tiles, with the base tile, frame the coloring.

    d01 and d02 are the base tile's gaps to the tiles at t1 and t2; d12 is
    the gap between those two tiles.  The pair has determinant k, so it
    generates the color sublattice.  canonical is True when the selected
    pair realizes the scheme minimum with d01 = d02 <= d12.
    """

    t1: TileIndex
    t2: TileIndex
    d01: float
    d02: float
    d12: float
    canonical: bool


def _sector_candidates(scheme: ColorScheme, bound: int) -> tuple[list, list]:
    first, second = [], []
    for i in range(0, bound + 1):
        for j in range(-i, 1):
            if i > 0 and scheme.contains(i, j):
                first.append(TileIndex(i, j))
        for j in range(1, bound + 1 - i):
            if scheme.contains(i, j):
                second.append(TileIndex(i, j))
    return first, second


def canonical_triple(
    hexagon: Hexagon, scheme: ColorScheme, *, slack: int = 1
) -> TripleRepresentation:
    """Select the triple of mutually nearest same-colored tiles.

    t1 is taken from the wedge i > 0, -i <= j <= 0 and t2 from i >= 0,
    j > 0, constrained to i1 * j2 - i2 * j1 = k so the pair generates the
    sublattice.  Among pairs whose smallest pairwise gap attains the scheme
    minimum, the one minimizing (largest gap, total gap) wins, preferring
    equal-gap pairs on ties.  If no pair attains the minimum the best
    remaining pair is returned with canonical set to False.
    """
    frame = _doubled_frame(hexagon)
    dmin = min_offset_distance(same_color_offsets(scheme, slack=slack), frame)
    dist_cache: dict[TileIndex, float] = {}

    def dist(i: int, j: int) -> float:
        key = TileIndex(i, j)
        d = dist_cache.get(key)
        if d is None:
            d = min_offset_distance(((i, j),), frame)
            dist_cache[key] = d
        return d

    bound = enumeration_bound(scheme.k, slack)
    limit = 4 * scheme.k + 4
    while True:
        first, second = _sector_candidates(scheme, bound)
        pairs = [
            (t1, t2)
            for t1 in first
            for t2 in second
            if t1.i * t2.j - t2.i * t1.j == scheme.k
        ]
        if pairs:
            break
        if bound > limit:
            raise NoTripleError(f"no generating pair for k={scheme.k} within {bound}")
        bound *= 2

    scored = []
    for t1, t2 in pairs:
        d01 = dist(t1.i, t1.j)
        d02 = dist(t2.i, t2.j)
        d12 = dist(t2.i - t1.i, t2.j - t1.j)
        shaped = abs(d01 - d02) <= 1e-7 and d01 <= d12 + 1e-7
        key = (
            max(d01, d02, d12),
            d01 + d02 + d12,
            0 if shaped else 1,
            (t1.i, t1.j, t2.i, t2.j),
        )
        scored.append((key, t1, t2, d01, d02, d12, shaped))

    attaining = [row for row in scored if min(row[3], row[4], row[5]) <= dmin + 1e-9]
    fallback = not attaining
    if fallback:
        attaining = scored
    key, t1, t2, d01, d02, d12, shaped = min(attaining, key=lambda row: row[0])
    return TripleRepresentation(
        t1=t1, t2=t2, d01=d01, d02=d02, d12=d12, canonical=shaped and not fallback
    )
