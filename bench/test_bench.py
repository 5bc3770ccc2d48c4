"""Tests of the benchmark's own checks.  Run with: python3 -m pytest bench -q"""

from __future__ import annotations

import copy
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import child  # noqa: E402
import gate  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    LARGE_K,
    SEMI_POOL,
    SEMI_TABLE,
    SEMI_WIDTH,
    SOLVE_ALL_SETS,
    SWEEP_SMALL,
    k_values,
    solve_all_pool_ks,
)

GOLDEN = gate.load_golden()


def _fake_result(entry: dict):
    rat = entry["dsq_rational"]
    champ = SimpleNamespace(
        d=entry["d"],
        dsq_rational=tuple(rat) if rat is not None else None,
        scheme=SimpleNamespace(g=entry["g"], h=entry["h"]),
    )
    return SimpleNamespace(champion=champ, champion_class=entry["champion_class"])


def test_gate_accepts_golden_and_rejects_changes():
    want = GOLDEN["solve_all"]["8"]
    assert gate.check_solve_all(dict(want), want, reference_d=1.4) == []
    changed = [
        {**want, "d": want["d"] + 1e-10},
        {**want, "g": want["g"] + 1},
        {**want, "h": want["h"] + 1},
        {**want, "dsq_rational": [want["dsq_rational"][0] + 1, want["dsq_rational"][1]]},
        {**want, "dsq_rational": None},
        {**want, "champion_class": "rectilinear"},
    ]
    for got in changed:
        assert gate.check_solve_all(got, want), got
    assert gate.check_solve_all(dict(want), want, reference_d=1.4 + 2e-4)
    assert gate.check_solve_all(dict(want), None)


def test_gate_compares_table_rows_at_printed_precision():
    want = GOLDEN["semi_table"]["10"]["semi_regular"].split(",")
    assert gate.check_table_row(list(want), want) == []
    flipped = copy.copy(want)
    flipped[7] = f"{float(want[7]) + 1e-9:.9f}"
    assert gate.check_table_row(flipped, want) == []
    off = copy.copy(want)
    off[7] = f"{float(want[7]) + 3e-9:.9f}"
    assert gate.check_table_row(off, want)
    for i in (2, 3, 9):
        other = copy.copy(want)
        other[i] = str(int(want[i]) + 1)
        assert gate.check_table_row(other, want)


def test_raising_solve_counts_as_failed_and_stays_timed():
    def solve_all(k):
        if k == 5:
            raise RuntimeError("boom")
        return _fake_result(GOLDEN["solve_all"][str(k)])

    out = child.run_solve_all(solve_all, [3, 5, 8], GOLDEN, {8: 1.4})
    assert out["attempted"] == 3
    assert list(out["failures"]) == ["5"]
    assert set(out["per_k_s"]) == {"3", "5", "8"}
    assert out["wall_s"] == pytest.approx(sum(out["per_k_s"].values()))


def test_wrong_answer_counts_as_failed():
    def solve_all(k):
        entry = dict(GOLDEN["solve_all"][str(k)])
        if k == 4:
            entry["d"] += 1e-10
        return _fake_result(entry)

    out = child.run_solve_all(solve_all, [3, 4], GOLDEN, {})
    assert list(out["failures"]) == ["4"]


def test_failing_table_call_fails_every_row(tmp_path):
    ks = list(range(3, 6))
    out = child.run_semi_table(lambda argv: 1, ks, GOLDEN, str(tmp_path))
    assert out["attempted"] == 6
    assert len(out["failures"]) == 6


def test_wrappers_record_and_restore_every_name():
    from hexcoloring import cli, optimizer

    modules = {"optimizer": optimizer, "cli": cli}
    before = {(m, a): getattr(modules[m], a) for m, a, _, _ in TARGETS}
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(modules):
            for (m, a), orig in before.items():
                assert getattr(modules[m], a) is not orig
            with tracer.span("optimizer.solve_all", 3):
                optimizer.solve_all(3)
            raise RuntimeError("stop")
    for (m, a), orig in before.items():
        assert getattr(modules[m], a) is orig, f"{m}.{a} not restored"
    metrics = tracer.metrics()
    assert tracer.absent == []
    assert metrics["coloring.schemes.items"][0] == 3 * len(optimizer.schemes(3))
    for cls in ("regular", "semi_regular", "rectilinear"):
        assert metrics[f"optimizer.solve.{cls}.calls"][0] == 1
    assert {rec[2] for rec in tracer.spans} == {3}


def test_missing_name_is_reported_absent():
    from hexcoloring import cli, optimizer

    stripped = SimpleNamespace(
        **{a: getattr(optimizer, a) for m, a, _, _ in TARGETS if m == "optimizer" and a != "schemes"}
    )
    tracer = Tracer()
    with tracer.installed({"optimizer": stripped, "cli": cli}):
        pass
    assert tracer.absent == ["optimizer.schemes"]
    metrics = tracer.metrics()
    assert "coloring.schemes.items" not in metrics
    assert "optimizer.solve.rectilinear.s_per_scheme" not in metrics
    assert "coloring.same_color_offsets.calls" in metrics


def test_default_seed_gives_the_documented_sets():
    assert k_values(SWEEP_SMALL, 0) == list(range(3, 31))
    assert k_values(LARGE_K, 0) == [56, 77, 112, 156]
    assert k_values(SEMI_TABLE, 0) == list(range(3, 121))
    for seed in (1, 2, 3):
        assert sorted(k_values(SWEEP_SMALL, seed)) == list(range(3, 31))
        assert k_values(LARGE_K, seed) == k_values(LARGE_K, seed)


def test_held_out_draws_stay_in_the_golden_pool():
    pool = set(solve_all_pool_ks())
    assert pool <= {int(k) for k in GOLDEN["solve_all"]}
    for seed in range(20):
        for workload in (SWEEP_SMALL, LARGE_K):
            ks = k_values(workload, seed, held_out=True)
            assert ks == k_values(workload, seed, held_out=True)
            assert len(ks) == len(SOLVE_ALL_SETS[workload][0]) == len(set(ks))
            assert set(ks) <= set(SOLVE_ALL_SETS[workload][1])
        ks = k_values(SEMI_TABLE, seed, held_out=True)
        assert len(ks) == SEMI_WIDTH and SEMI_POOL[0] <= ks[0] and ks[-1] <= SEMI_POOL[1]
        assert all(str(k) in GOLDEN["semi_table"] for k in ks)
