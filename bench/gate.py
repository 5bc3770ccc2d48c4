"""Correctness gate: each output against this benchmark's golden snapshot.

The snapshot (golden.json) holds the outputs of the commit that introduced
the benchmark, over every workload's pool.  ``record_golden.py`` writes it.
A solve_all result must match its champion ``d`` within 1e-12 and its
``dsq_rational``, champion class and scheme ``(g, h)`` exactly, and must be
within REFERENCE_TOL of the reference table where a row exists.  A table row
must match at its printed 9-decimal precision, with the same ``g``, ``h`` and
champion flag.
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

D_TOL = 1e-12
# the package's own comparison tolerance against the reference table
REFERENCE_TOL = 1e-4
# one unit in the 9th printed decimal, so a rounding flip still passes
ROW_TOL = 1.5e-9

TABLE_HEADER = "k,class,g,h,gap1,gap2,r,d,dsq,champion"
_ROW_EXACT = (0, 1, 2, 3, 9)
_ROW_FLOAT = (4, 5, 6, 7, 8)


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def summarize(result) -> dict:
    """The gated fields of a ``solve_all`` result, as plain JSON values."""
    champ = result.champion
    rat = champ.dsq_rational
    return {
        "d": float(champ.d),
        "dsq_rational": [int(rat[0]), int(rat[1])] if rat is not None else None,
        "champion_class": result.champion_class,
        "g": champ.scheme.g,
        "h": champ.scheme.h,
    }


def check_solve_all(got: dict, want: dict | None, reference_d: float | None = None) -> list[str]:
    """Problems with one summarized result; empty when it passes."""
    if want is None:
        return ["no golden entry"]
    problems = []
    if not abs(got["d"] - want["d"]) <= D_TOL:
        problems.append(f"d={got['d']!r}, golden {want['d']!r}")
    for key in ("dsq_rational", "champion_class", "g", "h"):
        if got[key] != want[key]:
            problems.append(f"{key}={got[key]!r}, golden {want[key]!r}")
    if reference_d is not None and not abs(got["d"] - reference_d) <= REFERENCE_TOL:
        problems.append(f"d={got['d']!r}, reference {reference_d!r}")
    return problems


def check_table_row(got: list[str], want: list[str] | None) -> list[str]:
    """Problems with one CSV row (split on commas); empty when it passes."""
    if want is None:
        return ["no golden row"]
    if len(got) != len(want):
        return [f"row has {len(got)} fields, golden {len(want)}"]
    problems = [f"field {i}: {got[i]!r}, golden {want[i]!r}" for i in _ROW_EXACT if got[i] != want[i]]
    for i in _ROW_FLOAT:
        try:
            ok = abs(float(got[i]) - float(want[i])) <= ROW_TOL
        except ValueError:
            ok = False
        if not ok:
            problems.append(f"field {i}: {got[i]!r}, golden {want[i]!r}")
    return problems


def table_rows_by_key(text: str) -> dict[tuple[str, str], list[str]]:
    """CSV text of ``hexcoloring table`` keyed by (k, class)."""
    lines = text.splitlines()
    if not lines or lines[0] != TABLE_HEADER:
        raise ValueError("table output lacks the expected header")
    rows = {}
    for line in lines[1:]:
        fields = line.split(",")
        rows[(fields[0], fields[1])] = fields
    return rows
