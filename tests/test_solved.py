"""Every class's solve for k = 3..175 and 756 against the committed table.

``record_solved.py`` wrote ``data/solved.csv``.  A fresh solve must give
``d`` within 1e-12 and the gaps within ROW_TOL, the 9th-decimal tolerance
of the benchmark's table gate, since flat maxima leave the gaps free to
move where ``d`` does not.  Every other field must be exactly as recorded.
"""

from record_solved import COLUMNS, SOLVED_KS, load_solved, solved_rows

D_TOL = 1e-12
ROW_TOL = 1.5e-9

_CLOSE = {"d": D_TOL, "gap1": ROW_TOL, "gap2": ROW_TOL}


def test_solved_table_is_reproduced():
    want = load_solved()
    problems = []
    got_keys = []
    for k in SOLVED_KS:
        for got in solved_rows(k):
            key = (got["k"], got["class"])
            got_keys.append(key)
            row = want.get(key)
            if row is None:
                problems.append(f"{key}: no recorded row")
                continue
            for col in COLUMNS:
                tol = _CLOSE.get(col)
                same = (abs(float(got[col]) - float(row[col])) <= tol if tol is not None
                        else got[col] == row[col])
                if not same:
                    problems.append(f"{key} {col}={got[col]}, recorded {row[col]}")
    assert sorted(got_keys) == sorted(want)
    assert problems == []
