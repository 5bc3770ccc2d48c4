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
from typing import NamedTuple

from .geometry import DomainError, Hexagon, frame, hexagon_gap


class TileIndex(NamedTuple):
    i: int
    j: int


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


def window_offsets(k: int, schemes) -> tuple:
    """Every k-coloring's nonzero same-color offsets, as one (owner, i, j) array triple.

    Offset (i[e], j[e]) belongs to ``schemes[owner[e]]``; sorted by (owner,
    j, i).  Each scheme gets one offset per +/- pair (j > 0, or j = 0 with
    i > 0) in the window |i| + j < ceil(2 sqrt(k)) + 1, which reaches
    past the nearest same-color tiles for every scheme, and its generators
    (g, 0) and (h, k/g) where they fall outside.
    """
    # imported here so that the package's import still loads numpy only once
    # optimizer, the largest module, is compiled: 1.4 MB less peak memory
    import numpy as np
    bound = math.isqrt(4 * k - 1) + 2
    g, h = np.array([(s.g, s.h) for s in schemes], dtype=np.int64).reshape(-1, 2).T
    m = k // g
    # each scheme's rows j = a m below bound, and j = m even beyond it; on
    # each, every g-th i from the first i = a h (mod g) at or above lo up to
    # bound - 1 - j, then on rows 0 and 1 the generator (g, 0) or (h, m) if
    # it lies outside
    count = np.maximum((bound - 1) // m + 1, 2)
    row = np.repeat(np.arange(len(g)), count)
    a = np.arange(row.size) - np.repeat(np.cumsum(count) - count, count)
    step, j = g[row], a * m[row]
    lo = np.where(j == 0, 1, j - (bound - 1))
    first = lo + (a * h[row] - lo) % step
    count = np.maximum((bound - 1 - j - first) // step + 1, 0)
    gen = np.where(a == 0, step, h[row])
    total = count + ((a < 2) & (gen + j >= bound))
    t = np.arange(total.sum()) - np.repeat(np.cumsum(total) - total, total)
    i = np.where(t < np.repeat(count, total), np.repeat(first, total) + t * np.repeat(step, total),
                 np.repeat(gen, total))
    return np.repeat(row, total), i, np.repeat(j, total)


def same_color_offsets(scheme: ColorScheme) -> list[TileIndex]:
    """``window_offsets`` for one scheme: its same-color offsets, sorted by (j, i)."""
    _, i, j = window_offsets(scheme.k, [scheme])
    return list(map(TileIndex, i.tolist(), j.tolist()))


# relative margin against rounding on the row and column bounds and on each
# point's |c| prune, so that no offset whose gap ties the minimum to the last
# bits is pruned (|c| = gap + 1 where a vertex of the doubled tile is nearest)
_ROUNDING = 1.0 + 1e-9


def _reduced_basis(scheme: ColorScheme, eix: float, eiy: float, ejx: float, ejy: float):
    """The generators (g, 0), (h, k/g) Lagrange-Gauss reduced at this tiling basis:
    (i1, j1, x1, y1, n1, i2, j2, x2, y2, n2), the index pairs, points and squared
    norms of b1, b2, with |b1| <= |b2| <= |b2 -/+ b1| up to rounding."""
    i1, j1, i2, j2 = scheme.g, 0, scheme.h, scheme.k // scheme.g
    x1, y1 = i1 * eix, i1 * eiy
    x2, y2 = i2 * eix + j2 * ejx, i2 * eiy + j2 * ejy
    n1, n2 = x1 * x1 + y1 * y1, x2 * x2 + y2 * y2
    if n2 < n1:
        i1, j1, x1, y1, n1, i2, j2, x2, y2, n2 = i2, j2, x2, y2, n2, i1, j1, x1, y1, n1
    # every pass that goes on shortens b1, so rounding cannot make it cycle
    while True:
        mu = round((x1 * x2 + y1 * y2) / n1)
        if mu:
            i2, j2 = i2 - mu * i1, j2 - mu * j1
            x2, y2 = i2 * eix + j2 * ejx, i2 * eiy + j2 * ejy
            n2 = x2 * x2 + y2 * y2
        if n2 >= n1:
            return i1, j1, x1, y1, n1, i2, j2, x2, y2, n2
        i1, j1, x1, y1, n1, i2, j2, x2, y2, n2 = i2, j2, x2, y2, n2, i1, j1, x1, y1, n1


def min_gap(scheme: ColorScheme, frame, tol: float | None = None):
    """Smallest gap between the base tile and any tile of its color.

    ``frame`` is (vx, vy, eix, eiy, ejx, ejy): the tile's vertices doubled
    about its center, and the tiling's basis.  The gap to the tile at offset
    c is the distance from the point c to the doubled tile, which fits in
    the unit circle, so only offsets with |c| < best + 1 can lower the best
    gap.  The generators are Lagrange-Gauss reduced at this shape
    (``_reduced_basis``) and the sublattice is scanned row by row, as Fincke
    and Pohst (1985) enumerate short vectors.  Each gap is
    ``geometry.hexagon_gap``'s from i * e_i + j * e_j to the doubled tile, in
    the ``geometry.frame`` of the shape, and the result is exact at every
    shape.  With ``tol``, returns (minimum, offsets within ``tol`` of it), the
    offsets in the half-plane and order of ``same_color_offsets``.
    """
    vx, vy, eix, eiy, ejx, ejy = frame
    i1, j1, x1, y1, n1, i2, j2, x2, y2, n2 = _reduced_basis(scheme, eix, eiy, ejx, ejy)
    best = hexagon_gap(i1 * eix + j1 * ejx, i1 * eiy + j1 * ejy, vx, vy)[0]
    near = [(best, i1, j1)]
    slack = tol or 0.0
    lim = (best + slack + 1.0) * (best + slack + 1.0)
    # row r holds the points col * b1 + r * b2, centred on col = -r * shift
    # at height r * sqrt(h2) above the row through the origin.  The gap is
    # convex in the point and 0 at the origin, so the gap at col * b1 is at
    # least col times the gap at b1: row 0 only adds offsets within ``tol``.
    shift = (x1 * x2 + y1 * y2) / n1
    h2 = n2 - shift * shift * n1
    row = 0 if tol is not None else 1
    while row * row * h2 < lim * _ROUNDING:
        centre, half = -row * shift, math.sqrt((lim * _ROUNDING - row * row * h2) / n1)
        i0, j0, lo = row * i2, row * j2, 2 if row == 0 else math.floor(centre - half)
        for col in range(lo, math.ceil(centre + half) + 1):
            i, j = col * i1 + i0, col * j1 + j0
            cx = i * eix + j * ejx
            cy = i * eiy + j * ejy
            if cx * cx + cy * cy >= lim * _ROUNDING:
                continue
            d = hexagon_gap(cx, cy, vx, vy)[0]
            if d <= best + slack:
                if d < best:
                    best = d
                    lim = (best + slack + 1.0) * (best + slack + 1.0)
                if tol is not None:
                    near.append((d, i, j))
        row += 1
    if tol is None:
        return best
    # each offset as the one of +/- (i, j) that same_color_offsets lists
    found = [TileIndex(i, j) if j > 0 or (j == 0 and i > 0) else TileIndex(-i, -j)
             for d, i, j in near if d <= best + tol]
    return best, sorted(found, key=lambda t: (t.j, t.i))


@dataclass(frozen=True)
class TripleRepresentation:
    """Two offsets t1, t2 whose tiles, with the base tile, frame the coloring.

    d01 and d02 are the base tile's gaps to the tiles at t1 and t2; d12 is
    the gap between those two tiles.  The pair has determinant k, so it
    generates the color sublattice.  canonical is True when the pair's
    smallest gap attains the scheme minimum and d01 = d02 <= d12; the pair
    is chosen by its gaps alone, so it can be False even at an optimum.
    """

    t1: TileIndex
    t2: TileIndex
    d01: float
    d02: float
    d12: float
    canonical: bool


def canonical_triple(hexagon: Hexagon, scheme: ColorScheme) -> TripleRepresentation:
    """Select the triple of mutually nearest same-colored tiles.

    t1 is taken from the wedge i > 0, -i <= j <= 0 and t2 from i >= 0,
    j > 0, constrained to i1 * j2 - i2 * j1 = k so the pair generates the
    sublattice.  The pair minimizing (largest gap, total gap) wins,
    preferring equal-gap pairs and then the smaller indices on ties.  Gaps
    are measured in ``geometry.frame`` at ``hexagon``'s gaps.

    The candidates are the offsets ``min_gap`` lists with gap at most C, and
    their negations.  C is first the largest gap of the reduced triangle b1,
    b2, b2 -/+ b1, less any excess of b1's gap over the minimum.  The choice
    is complete once the chosen pair's largest gap is at most C, as a pair
    with a smaller key has no larger gap, so both its offsets were listed.
    Else C rises to that gap, and the next listing is complete; with no pair
    listed, C grows by 1.25 (C = 0 means k = 1, where the touching tiles
    pair up).  It ends: the generators (g, 0), (h, k/g) are such a pair.
    """
    doubled = frame(*hexagon.gaps)
    vx, vy, eix, eiy, ejx, ejy = doubled
    gaps = {}

    def dist(i: int, j: int) -> float:
        if (i, j) not in gaps:
            gaps[i, j] = hexagon_gap(i * eix + j * ejx, i * eiy + j * ejy, vx, vy)[0]
        return gaps[i, j]

    def scored(t1: TileIndex, t2: TileIndex) -> tuple:
        d01, d02, d12 = dist(*t1), dist(*t2), dist(t2.i - t1.i, t2.j - t1.j)
        shaped = abs(d01 - d02) <= 1e-7 and d01 <= d12 + 1e-7
        key = (max(d01, d02, d12), d01 + d02 + d12, 0 if shaped else 1, (*t1, *t2))
        return key, t1, t2, d01, d02, d12, shaped

    i1, j1, x1, y1, _, i2, j2, x2, y2, _ = _reduced_basis(scheme, eix, eiy, ejx, ejy)
    sign = 1 if x1 * x2 + y1 * y2 >= 0 else -1
    gap1 = dist(i1, j1)
    bound = max(gap1, dist(i2, j2), dist(i2 - sign * i1, j2 - sign * j1))
    # min_gap lists the gaps up to its minimum plus tol, and the minimum is at
    # most b1's gap: C is the triangle's largest gap when b1 attains it
    tol = bound * _ROUNDING - gap1
    while True:
        dmin, listed = min_gap(scheme, doubled, tol)
        cover = dmin + tol
        offsets = listed + [TileIndex(-i, -j) for i, j in listed]
        first = [t for t in offsets if t.i > 0 and -t.i <= t.j <= 0]
        second = [t for t in offsets if t.i >= 0 and t.j > 0]
        pairs = [scored(t1, t2) for t1 in first for t2 in second
                 if t1.i * t2.j - t2.i * t1.j == scheme.k]
        if not pairs:
            tol = 1.25 * cover - dmin
            continue
        key, t1, t2, d01, d02, d12, shaped = min(pairs)
        if key[0] <= cover:
            break
        tol = key[0] * _ROUNDING - dmin
    canonical = shaped and min(d01, d02, d12) <= dmin + 1e-9
    return TripleRepresentation(t1=t1, t2=t2, d01=d01, d02=d02, d12=d12, canonical=canonical)
