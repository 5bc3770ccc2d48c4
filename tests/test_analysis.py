import math
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hexcoloring.analysis import (
    ABOVE,
    BELOW,
    MATCH,
    MissingRowError,
    classify,
    compare_reference,
    load_reference,
    monotonicity_report,
    stable_dsq_rational,
)
from helpers import rational_reconstruct
from hexcoloring.evaluator import cubic_f, quartic_dsq
from hexcoloring.optimizer import _closed_form_tag

HEADER = "k,i1,j1,i2,j2,class,dsq_num,dsq_den,r_num,r_den,d_approx,record\n"


def test_rational_reconstruct_examples():
    assert rational_reconstruct(1.96, 100) == (49, 25)
    assert rational_reconstruct(193496 / 21275, 10**6, 1e-8) == (193496, 21275)
    assert rational_reconstruct(math.pi, 10, 1e-9) is None
    assert rational_reconstruct(0.5, 2) == (1, 2)
    assert rational_reconstruct(float("nan"), 100) is None
    assert rational_reconstruct(float("inf"), 100) is None
    assert rational_reconstruct(1.25, 0) is None


@given(
    num=st.integers(min_value=1, max_value=5000),
    den=st.integers(min_value=1, max_value=1000),
)
def test_rational_reconstruct_roundtrip(num, den):
    f = Fraction(num, den)
    got = rational_reconstruct(num / den, 1000)
    assert got == (f.numerator, f.denominator)


def test_stable_gate_accepts_solver_noise():
    for num, den in [(49, 25), (153, 32), (193496, 21275), (709371, 111724)]:
        x = num / den
        assert stable_dsq_rational(x) == (num, den)
    # the error budget shrinks as 1/(300 q^2), so moderate denominators
    # survive solver-sized noise while six-digit ones demand near-exactness
    assert stable_dsq_rational(49 / 25 + 2e-12) == (49, 25)
    assert stable_dsq_rational(193496 / 21275 + 2e-12) == (193496, 21275)
    assert stable_dsq_rational(709371 / 111724 + 2e-12) is None


def test_stable_gate_rejects_surds():
    # quadratic surds have small continued-fraction quotients forever
    for v in (math.sqrt(2), math.sqrt(3), (31 + math.sqrt(933)) / 12, math.pi):
        assert stable_dsq_rational(v) is None
    # close to 1/3 but off by more than the absolute gate
    assert stable_dsq_rational(1 / 3 + 1e-9) is None


def _tagged(k, dsq):
    """A result stand-in carrying the solver's closed-form tag and rational."""
    return SimpleNamespace(
        k=k,
        dsq=dsq,
        closed_form_tag=_closed_form_tag(k, dsq),
        dsq_rational=stable_dsq_rational(dsq),
    )


def test_classify_tags():
    # the solver's matcher names the closed form a squared gap matches
    assert _closed_form_tag(8, 1.96) == "none"
    assert _closed_form_tag(7, 1.75) == "loeschian"
    assert _closed_form_tag(30, cubic_f(30)[1]) == "cubic_f"
    assert _closed_form_tag(11, quartic_dsq(11)) == "quartic"
    assert _closed_form_tag(35, 4.0 + math.sqrt(2)) == "none"
    # k = 12 = 3 * 4 is in the cubic family, but 4 is its Loeschian value
    assert _closed_form_tag(12, 4.0) == "loeschian"
    # classify maps that tag and the stable rational to its own vocabulary
    assert classify(_tagged(8, 1.96)) == "rational"
    assert classify(_tagged(7, 1.75)) == "rational"
    assert classify(_tagged(30, cubic_f(30)[1])) == "cubic_f"
    assert classify(_tagged(11, quartic_dsq(11))) == "quartic"
    assert classify(_tagged(35, 4.0 + math.sqrt(2))) == "unknown"
    # a cubic-family k reported at a non-cubic value falls through
    assert classify(_tagged(12, 4.0)) == "rational"


def test_reference_table_loads_and_validates():
    rows = load_reference()
    assert len(rows) == 35
    ks = [row.k for row in rows]
    assert ks == sorted(ks) and len(set(ks)) == len(ks)
    assert ks[:28] == list(range(3, 31))
    for row in rows:
        row.validate()
        assert row.i1 * row.j2 - row.i2 * row.j1 == row.k


def test_reference_known_rows():
    by_k = {row.k: row for row in load_reference()}
    assert by_k[8].dsq_rational == (49, 25)
    assert by_k[8].r_rational == (1, 5)
    assert by_k[15].dsq_rational == (153, 32)
    assert by_k[24].dsq_rational == (869, 86)
    assert by_k[22].dsq_rational == (193496, 21275)
    assert by_k[7].class_of_best == "regular"
    assert (by_k[7].i1, by_k[7].j1, by_k[7].i2, by_k[7].j2) == (3, -1, 1, 2)


def test_load_reference_from_path(tmp_path):
    good = tmp_path / "table.csv"
    good.write_text(HEADER + "3,2,-1,1,1,regular,1,4,,,0.500000,1\n")
    rows = load_reference(good)
    assert len(rows) == 1 and rows[0].k == 3
    assert rows[0].dsq_rational == (1, 4)
    assert rows[0].record_flag


@pytest.mark.parametrize(
    "row",
    [
        "3,2,-1,1,1,hexagonal,1,4,,,0.500000,1",  # bad class tag
        "3,2,-1,2,1,regular,1,4,,,0.500000,1",  # determinant is 4, not 3
        "3,2,-1,1,1,regular,1,4,,,-0.5,1",  # negative d
        "3,2,-1,1,1,regular,1,3,,,0.500000,1",  # d disagrees with rational
        "3,2,-1,1,1,regular,1,4,7,5,0.500000,1",  # r outside (0,1)
        "3,2,-1,1,1,regular,1,4,1,0,0.500000,1",  # r denominator 0
        "3,2,-1,1,1,regular,1,4,,,0.500000,yes",  # record flag not 0 or 1
        "3,2,-1",  # short row: i2 and every later column missing
    ],
)
def test_load_reference_rejects_bad_rows(tmp_path, row):
    bad = tmp_path / "table.csv"
    bad.write_text(HEADER + row + "\n")
    with pytest.raises(ValueError):
        load_reference(bad)


def test_load_reference_rejects_duplicates(tmp_path):
    bad = tmp_path / "table.csv"
    line = "3,2,-1,1,1,regular,1,4,,,0.500000,1\n"
    bad.write_text(HEADER + line + line)
    with pytest.raises(ValueError):
        load_reference(bad)


def _result(k, d):
    return SimpleNamespace(k=k, d=d)


def test_compare_reference_statuses():
    table = load_reference()
    by_k = {row.k: row for row in table}
    results = [
        _result(3, by_k[3].d_approx),
        _result(4, by_k[4].d_approx - 0.01),
        _result(5, by_k[5].d_approx + 0.01),
    ]
    report = compare_reference(results, table)
    statuses = {e.k: e.status for e in report.entries}
    assert statuses == {3: MATCH, 4: BELOW, 5: ABOVE}
    assert not all(e.status == MATCH for e in report.entries)
    assert [e.k for e in report.entries if e.status == BELOW] == [4]
    assert report.worst_abs_delta == pytest.approx(0.01)


def test_compare_reference_within_tolerance():
    table = load_reference()
    results = [_result(row.k, row.d_approx + 5e-5) for row in table]
    report = compare_reference(results, table)
    assert all(e.status == MATCH for e in report.entries)
    assert report.worst_abs_delta <= 1e-4


def test_compare_reference_missing_row():
    with pytest.raises(MissingRowError):
        compare_reference([_result(2000, 1.0)], load_reference())


def test_monotonicity_report():
    table = load_reference()
    flags = monotonicity_report({row.k: row.d_approx for row in table})
    assert flags == [
        (5, 1),
        (10, 1),
        (11, 2),
        (17, 1),
        (18, 1),
        (18, 2),
        (22, 1),
        (23, 1),
        (23, 2),
        (26, 1),
        (29, 1),
        (29, 2),
        (29, 4),
    ]
    # d may dip below closer predecessors but never below d(k-3)
    assert all(n != 3 for _, n in flags)
    assert (29, 4) in flags


def test_monotonicity_report_trivial_cases():
    assert monotonicity_report({}) == []
    assert monotonicity_report({3: 0.5}) == []
    assert monotonicity_report({3: 0.5, 4: 0.6, 5: 0.7}) == []
    assert monotonicity_report({3: 0.5, 4: 0.49}) == [(4, 1)]
