"""Maximin colorings of unit-diameter hexagon tilings.

For each color count k the package searches hexagon shapes (regular,
semi-regular, rectilinear) and sublattice coloring schemes for the tiling
that pushes same-colored tiles as far apart as possible, and cross-checks
the results against closed forms and an embedded reference table.
"""

from .analysis import (
    classify,
    compare_reference,
    load_reference,
    monotonicity_report,
)
from .coloring import (
    ColorScheme,
    TileIndex,
    TripleRepresentation,
    canonical_triple,
    schemes,
)
from .evaluator import (
    cubic_f,
    cubic_spec,
    loeschian_decompositions,
    quartic_dsq,
    real_roots,
    regular_dsq,
)
from .geometry import (
    CLASS_TAGS,
    RECTILINEAR,
    REGULAR,
    SEMI_REGULAR,
    DomainError,
    Hexagon,
    hexagon_from_gaps,
)
from .optimizer import (
    SolveResult,
    optimize_scheme,
    solve,
    solve_all,
)
from .svg import render_svg

__version__ = "0.1.0"

__all__ = [
    "CLASS_TAGS",
    "ColorScheme",
    "DomainError",
    "Hexagon",
    "RECTILINEAR",
    "REGULAR",
    "SEMI_REGULAR",
    "SolveResult",
    "TileIndex",
    "TripleRepresentation",
    "__version__",
    "canonical_triple",
    "classify",
    "compare_reference",
    "cubic_f",
    "cubic_spec",
    "hexagon_from_gaps",
    "load_reference",
    "loeschian_decompositions",
    "monotonicity_report",
    "optimize_scheme",
    "quartic_dsq",
    "real_roots",
    "regular_dsq",
    "render_svg",
    "schemes",
    "solve",
    "solve_all",
]
