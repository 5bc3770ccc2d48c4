import json
import os

import pytest

from hexcoloring.cli import (
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    ResultDocument,
    main,
    parse_result,
    serialize_result,
)
from hexcoloring.geometry import REGULAR, SEMI_REGULAR
from hexcoloring.optimizer import solve, solve_all


def test_solve_summary_line(capsys):
    assert main(["solve", "--k", "8"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == "k=8 class=semi_regular d=1.400000 d2=1.960000 g=4 h=1 triple=(3,-2),(1,2)\n"


def test_solve_regular_class(capsys):
    assert main(["solve", "--k", "7", "--class", "regular"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == "k=7 class=regular d=1.322876 d2=1.750000 g=7 h=4 triple=(3,-1),(1,2)\n"


def test_solve_domain_error(capsys):
    assert main(["solve", "--k", "2"]) == EXIT_DOMAIN
    assert "error" in capsys.readouterr().err


def test_usage_errors(capsys):
    assert main([]) == EXIT_USAGE
    assert main(["solve", "--bogus"]) == EXIT_USAGE
    assert main(["table", "--kmin", "9", "--kmax", "3"]) == EXIT_USAGE
    assert main(["table", "--kmin", "2", "--kmax", "5"]) == EXIT_USAGE
    capsys.readouterr()


def test_json_document_roundtrip(tmp_path, capsys):
    path = tmp_path / "out.json"
    assert main(["solve", "--k", "8", "--json", str(path)]) == EXIT_OK
    capsys.readouterr()
    text = path.read_text()

    raw = json.loads(text)
    assert raw["schema_version"] == "1"
    assert raw["k"] == 8
    assert raw["class"] == "semi_regular"
    assert raw["dsq"] == 1.96
    assert raw["dsq_rational"] == [49, 25]
    assert raw["triple"]["canonical"] is True

    doc = parse_result(text)
    assert isinstance(doc, ResultDocument)
    assert serialize_result(doc) == text
    # serialization is idempotent through a second round trip
    assert parse_result(serialize_result(doc)) == doc


def test_json_write_is_atomic(tmp_path, capsys):
    path = tmp_path / "out.json"
    assert main(["solve", "--k", "4", "--json", str(path)]) == EXIT_OK
    capsys.readouterr()
    assert path.exists()
    leftovers = [n for n in os.listdir(tmp_path) if n != "out.json"]
    assert leftovers == []


def test_table_output(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["table", "--kmin", "3", "--kmax", "5", "--csv", str(a)]) == EXIT_OK
    assert main(["table", "--kmin", "3", "--kmax", "5", "--csv", str(b)]) == EXIT_OK
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()

    lines = a.read_text().splitlines()
    assert lines[0] == "k,class,g,h,gap1,gap2,r,d,dsq,champion"
    assert len(lines) == 1 + 3 * 3
    # exactly one champion per k
    for k in (3, 4, 5):
        rows = [ln for ln in lines[1:] if ln.startswith(f"{k},")]
        assert len(rows) == 3
        assert sum(int(ln.split(",")[-1]) for ln in rows) == 1


def test_table_stdout_and_class_filter(capsys):
    assert main(["table", "--kmin", "4", "--kmax", "4", "--classes", "regular"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("4,regular,2,0,")
    assert lines[1].endswith(",1")


def test_table_rows_follow_solve_all(capsys):
    # each k's rows and champion flag are solve_all's over the listed classes,
    # in CLASS_TAGS order whatever the order given
    assert main(["table", "--kmin", "6", "--kmax", "9", "--classes", "semi", "regular"]) == EXIT_OK
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    expected = []
    for k in range(6, 10):
        solved = solve_all(k, classes=(SEMI_REGULAR, REGULAR))
        for tag, res in solved.per_class.items():
            assert res == solve(k, tag)
            expected.append(
                [str(k), tag, str(res.scheme.g), str(res.scheme.h), f"{res.d:.9f}",
                 str(int(tag == solved.champion_class))]
            )
    assert [[r[0], r[1], r[2], r[3], r[7], r[9]] for r in rows] == expected
    # ties within 1e-9 (k = 7 and 9) go to the more restricted class
    champions = {r[0]: r[1] for r in rows if r[9] == "1"}
    assert champions == {"6": SEMI_REGULAR, "7": REGULAR, "8": SEMI_REGULAR, "9": REGULAR}


def test_verify_passes_on_small_range(capsys):
    assert main(["verify", "--kmax", "8"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("status=match") == 6
    assert "drop: d(5) < d(4)" in out
    assert "verified 6 rows" in out


def test_verify_detects_tampering(tmp_path, capsys):
    # copy the embedded table but nudge one d_approx upward
    from hexcoloring.analysis import load_reference

    rows = load_reference()
    header = "k,i1,j1,i2,j2,class,dsq_num,dsq_den,r_num,r_den,d_approx,record"
    lines = [header]
    for row in rows:
        tampered = row.k == 5
        dsq = (
            f"{row.dsq_rational[0]},{row.dsq_rational[1]}"
            if row.dsq_rational and not tampered
            else ","
        )
        rr = f"{row.r_rational[0]},{row.r_rational[1]}" if row.r_rational else ","
        # raise the claimed gap so the solver comes in below it; the rational
        # is dropped on that row to keep the row self-consistent
        d = row.d_approx + (0.001 if tampered else 0.0)
        lines.append(
            f"{row.k},{row.i1},{row.j1},{row.i2},{row.j2},{row.class_of_best},"
            f"{dsq},{rr},{d:.6f},{int(row.record_flag)}"
        )
    bad = tmp_path / "tampered.csv"
    bad.write_text("\n".join(lines) + "\n")

    assert main(["verify", "--kmax", "6", "--reference", str(bad)]) == EXIT_VERIFY
    captured = capsys.readouterr()
    assert "status=below_reference" in captured.out
    assert "verification failed" in captured.err


def test_verify_checks_every_row_by_default(tmp_path, capsys):
    from pathlib import Path

    import hexcoloring

    text = (Path(hexcoloring.__file__).parent / "data" / "reference.csv").read_text()
    header, *rows = text.splitlines()
    keep = [row for row in rows if row.split(",")[0] in {"3", "4", "5", "41"}]
    ref = tmp_path / "subset.csv"
    ref.write_text("\n".join([header, *keep]) + "\n")

    assert main(["verify", "--reference", str(ref)]) == EXIT_OK
    assert "verified 4 rows" in capsys.readouterr().out
    assert main(["verify", "--kmax", "30", "--reference", str(ref)]) == EXIT_OK
    assert "verified 3 rows" in capsys.readouterr().out


def test_verify_missing_reference_file(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    assert main(["verify", "--reference", str(missing)]) == EXIT_USAGE
    assert "cannot read" in capsys.readouterr().err


def test_svg_output(tmp_path, capsys):
    path = tmp_path / "tiling.svg"
    assert main(["solve", "--k", "7", "--class", "regular", "--svg", str(path)]) == EXIT_OK
    capsys.readouterr()
    xml = path.read_text()
    assert xml.count("<polygon") == 81
    assert xml.count("#b9b9b9") == 11
    assert xml.count("<line") == 2


def test_closedform_outputs(capsys):
    assert main(["closedform", "--k", "156"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "loeschian d2=97 d=9.848858\ncubic_f d2=98.095077911 d=9.904296\n"
    )
    assert main(["closedform", "--k", "11"]) == EXIT_OK
    assert capsys.readouterr().out == "quartic d2=2.802794467 d=1.674155\n"
    assert main(["closedform", "--k", "10"]) == EXIT_OK
    assert capsys.readouterr().out == "none\n"
    assert main(["closedform", "--k", "7"]) == EXIT_OK
    assert capsys.readouterr().out == "loeschian d2=7/4 d=1.322876\n"


def test_custom_solver_options(capsys):
    assert main(["solve", "--k", "5", "--grid", "24", "--starts", "4"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("k=5 class=")


def test_options_echoed_in_json(tmp_path, capsys):
    path = tmp_path / "out.json"
    assert main(["solve", "--k", "5", "--grid", "24", "--json", str(path)]) == EXIT_OK
    capsys.readouterr()
    raw = json.loads(path.read_text())
    assert raw["opts"]["coarse_grid"] == 24
