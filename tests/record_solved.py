"""Write data/solved.csv: every class's solve for k = 3..175 and 756.

    PYTHONPATH=src python3 tests/record_solved.py

Each row holds one class's result at one k: the scheme (g, h), the gaps and
``d`` at full precision, ``dsq_rational``, the closed-form tag, the triple,
``d_upper`` and whether the class is ``solve_all``'s champion.  The tier-1
test ``test_solved_table_is_reproduced`` compares every fresh solve against
this file.  Re-record it only in a change that is meant to alter the
answers, and list each changed row with its old and new values there.

Before writing, it prints each field that test would flag, as ``k,class
column: old -> new``.  A field within the test's tolerance keeps its
recorded text, so the file moves only where the answers do.
"""

from __future__ import annotations

import csv
import io
import sys
from pathlib import Path

from hexcoloring.optimizer import solve_all

SOLVED_PATH = Path(__file__).resolve().parent / "data" / "solved.csv"
SOLVED_KS = (*range(3, 176), 756)
COLUMNS = ("k", "class", "g", "h", "gap1", "gap2", "d", "dsq_rational", "closed_form_tag",
           "i1", "j1", "i2", "j2", "canonical", "d_upper", "champion")


def solved_rows(k: int) -> list[dict[str, str]]:
    """One row per class of ``solve_all(k)``, each field as its CSV text; floats by repr."""
    solved = solve_all(k)
    rows = []
    for tag, res in solved.per_class.items():
        t = res.triple
        rat = res.dsq_rational
        values = (k, tag, res.scheme.g, res.scheme.h, repr(res.gaps[0]), repr(res.gaps[1]),
                  repr(res.d), "" if rat is None else f"{rat[0]}/{rat[1]}", res.closed_form_tag,
                  t.t1.i, t.t1.j, t.t2.i, t.t2.j, int(t.canonical), repr(res.d_upper),
                  int(tag == solved.champion_class))
        rows.append(dict(zip(COLUMNS, map(str, values))))
    return rows


def load_solved(path: Path = SOLVED_PATH) -> dict[tuple[str, str], dict[str, str]]:
    """The recorded rows, keyed by (k, class) as text."""
    with open(path, encoding="utf-8", newline="") as fh:
        return {(row["k"], row["class"]): row for row in csv.DictReader(fh)}


def main() -> int:
    # the test's tolerances; imported here, since the test imports this module
    from test_solved import _CLOSE

    recorded = load_solved() if SOLVED_PATH.exists() else {}
    out = io.StringIO()
    writer = csv.DictWriter(out, COLUMNS, lineterminator="\n")
    writer.writeheader()
    for k in SOLVED_KS:
        for row in solved_rows(k):
            old = recorded.get((row["k"], row["class"]), {})
            for col in COLUMNS[2:]:
                tol = _CLOSE.get(col)
                if col in old and tol is not None and abs(float(row[col]) - float(old[col])) <= tol:
                    row[col] = old[col]
                elif old.get(col) != row[col]:
                    print(f"{row['k']},{row['class']} {col}: {old.get(col)} -> {row[col]}")
            writer.writerow(row)
    SOLVED_PATH.parent.mkdir(exist_ok=True)
    SOLVED_PATH.write_text(out.getvalue(), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
