"""Rational reconstruction, result classification, and reference regression.

The embedded reference dataset (data/reference.csv) lists, for a range of
color counts, the best known gap per color count together with exact
squared-gap rationals where available.  Solver output is compared against
it with a fixed tolerance; beating the reference is treated as a loud
diagnostic, never silently accepted.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Iterable, Mapping, Sequence

from .geometry import CLASS_TAGS

_log = logging.getLogger(__name__)

# comparison tolerance on d against the reference column
REFERENCE_TOL = 1e-4

MATCH = "match"
BELOW = "below_reference"
ABOVE = "above_reference"

# pairs (k, n) with n > 3 that are worth flagging individually; gaps of
# n <= 3 are scanned exhaustively
LONG_RANGE_DROPS = ((29, 4), (77, 8), (98, 7), (187, 18))


class MissingRowError(KeyError):
    """A requested color count has no reference row."""


# A solved squared gap is trusted as rational only when the reconstructed
# fraction is unambiguous at solver precision: absolute error at most 1e-11
# and error at most 1/(300 q^2), so a continued-fraction accident would need
# a partial quotient of ~300.  Quadratic surds with moderate discriminants
# cannot fake that; reconstruction failures degrade to None, never to a
# wrong fraction.
_STABLE_MAX_DEN = 150_000
_STABLE_ABS = Fraction(1, 10**11)


def stable_dsq_rational(dsq: float):
    """(num, den) for a squared gap that is confidently rational, else None."""
    if not math.isfinite(dsq):
        return None
    exact = Fraction(dsq)
    frac = exact.limit_denominator(_STABLE_MAX_DEN)
    q = frac.denominator
    if abs(exact - frac) <= min(_STABLE_ABS, Fraction(1, 300 * q * q)):
        return (frac.numerator, frac.denominator)
    return None


def classify(result) -> str:
    """Tag a solve result by the kind of closed form its squared gap matches.

    One of "cubic_f", "quartic", "rational", "unknown", read off the result's
    ``closed_form_tag`` (which the solver matches against every closed form)
    and ``dsq_rational``.  The polynomial families come first, since any float
    is approximated well by some fraction; the rational tag demands an
    unambiguous reconstruction.  Quadratic-surd values are reported as
    unknown.
    """
    if result.closed_form_tag in ("cubic_f", "quartic"):
        return result.closed_form_tag
    return "unknown" if result.dsq_rational is None else "rational"


@dataclass(frozen=True)
class ReferenceRow:
    """One reference entry: best known gap for k colors and how it is reached."""

    k: int
    i1: int
    j1: int
    i2: int
    j2: int
    class_of_best: str
    dsq_rational: tuple[int, int] | None
    r_rational: tuple[int, int] | None
    d_approx: float
    record_flag: bool

    def validate(self) -> None:
        if self.class_of_best not in CLASS_TAGS:
            raise ValueError(f"k={self.k}: bad class {self.class_of_best!r}")
        if self.i1 * self.j2 - self.i2 * self.j1 != self.k:
            raise ValueError(f"k={self.k}: triple determinant mismatch")
        if not (self.d_approx > 0.0):
            raise ValueError(f"k={self.k}: d_approx must be positive")
        if self.dsq_rational is not None:
            num, den = self.dsq_rational
            if den <= 0 or num <= 0:
                raise ValueError(f"k={self.k}: bad dsq rational")
            if abs(self.d_approx - math.sqrt(num / den)) > 5e-6:
                raise ValueError(f"k={self.k}: d_approx disagrees with dsq rational")
        if self.r_rational is not None:
            num, den = self.r_rational
            if den <= 0 or not 0 < num / den < 1:
                raise ValueError(f"k={self.k}: r must lie in (0, 1)")


def _parse_row(raw: Mapping[str, str]) -> ReferenceRow:
    def field(name: str) -> str:
        # csv.DictReader leaves a column that the header or a short row
        # lacks as absent or None
        value = raw.get(name)
        if value is None:
            raise ValueError(f"missing column {name!r}")
        return value.strip()

    def opt_pair(a: str, b: str):
        sa, sb = field(a), field(b)
        if not sa and not sb:
            return None
        return (int(sa), int(sb))

    record = field("record")
    if record not in ("0", "1"):
        raise ValueError(f"record must be 0 or 1: got {record!r}")
    row = ReferenceRow(
        k=int(field("k")),
        i1=int(field("i1")),
        j1=int(field("j1")),
        i2=int(field("i2")),
        j2=int(field("j2")),
        class_of_best=field("class"),
        dsq_rational=opt_pair("dsq_num", "dsq_den"),
        r_rational=opt_pair("r_num", "r_den"),
        d_approx=float(field("d_approx")),
        record_flag=record == "1",
    )
    row.validate()
    return row


def load_reference(source=None) -> list[ReferenceRow]:
    """Load and validate reference rows; ``source`` is a path or None for embedded."""
    if source is None:
        text = (
            resources.files("hexcoloring").joinpath("data/reference.csv").read_text()
        )
        lines = text.splitlines()
    else:
        with open(source, newline="", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    rows = [_parse_row(raw) for raw in csv.DictReader(lines)]
    seen = set()
    for row in rows:
        if row.k in seen:
            raise ValueError(f"duplicate reference row for k={row.k}")
        seen.add(row.k)
    return rows


@dataclass(frozen=True)
class ComparisonEntry:
    k: int
    status: str
    computed_d: float
    reference_d: float

    @property
    def delta(self) -> float:
        return self.computed_d - self.reference_d


@dataclass(frozen=True)
class ComparisonReport:
    entries: tuple[ComparisonEntry, ...]

    @property
    def worst_abs_delta(self) -> float:
        return max((abs(e.delta) for e in self.entries), default=0.0)

    @property
    def ok(self) -> bool:
        return all(e.status == MATCH for e in self.entries)


def compare_reference(
    results: Iterable, table: Sequence[ReferenceRow] | None = None
) -> ComparisonReport:
    """Compare solved champions against the reference, keyed by k.

    ``results`` is any iterable of objects with ``k`` and ``d`` attributes.
    Raises MissingRowError when some result's k has no reference row.
    Exceeding the reference is logged loudly: it means either a genuine
    improvement or a transcription error, and must be looked at.
    """
    if table is None:
        table = load_reference()
    by_k = {row.k: row for row in table}
    entries = []
    for res in results:
        row = by_k.get(res.k)
        if row is None:
            raise MissingRowError(res.k)
        if res.d < row.d_approx - REFERENCE_TOL:
            status = BELOW
        elif res.d > row.d_approx + REFERENCE_TOL:
            status = ABOVE
            _log.warning(
                "k=%d: computed d=%.9f exceeds reference %.6f; "
                "verify before trusting either value",
                res.k,
                res.d,
                row.d_approx,
            )
        else:
            status = MATCH
        entries.append(
            ComparisonEntry(k=res.k, status=status, computed_d=res.d, reference_d=row.d_approx)
        )
    entries.sort(key=lambda e: e.k)
    return ComparisonReport(entries=tuple(entries))


def monotonicity_report(results: Mapping[int, float]) -> list[tuple[int, int]]:
    """Pairs (k, n) where the gap drops: d(k) < d(k-n) - 1e-9.

    Scans n in {1, 2, 3} for every k present, plus a short list of known
    larger drops checked when both endpoints are present.
    """
    flags = []
    for k in sorted(results):
        for n in (1, 2, 3):
            prev = results.get(k - n)
            if prev is not None and results[k] < prev - 1e-9:
                flags.append((k, n))
    for k, n in LONG_RANGE_DROPS:
        if k in results and k - n in results and results[k] < results[k - n] - 1e-9:
            if (k, n) not in flags:
                flags.append((k, n))
    flags.sort()
    return flags
