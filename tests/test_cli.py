import io
import json
import os
import signal
import stat
import sys
import time
from contextlib import contextmanager, nullcontext

import pytest

from hexcoloring.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    _map_over_cpus,
    main,
    serialize_result,
)
from hexcoloring import cli
from hexcoloring.geometry import CLASS_TAGS, REGULAR, SEMI_REGULAR, DomainError
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


# the whole document ``solve --k 8 --json`` writes
_V2_DOCUMENT = """\
{
  "class": "semi_regular",
  "classification": "rational",
  "d": 1.4,
  "dsq": 1.96,
  "dsq_rational": [
    49,
    25
  ],
  "g": 4,
  "gaps": [
    1.36943840600457,
    1.36943840600457
  ],
  "h": 1,
  "k": 8,
  "opts": {
    "coarse_grid": 48
  },
  "r": 0.2,
  "s": 0.632455532033676,
  "schema_version": "2",
  "triple": {
    "canonical": true,
    "d01": 1.4,
    "d02": 1.4,
    "d12": 1.4,
    "i1": 3,
    "i2": 1,
    "j1": -2,
    "j2": 2
  }
}
"""


def test_json_document_roundtrip(tmp_path, capsys):
    path = tmp_path / "out.json"
    assert main(["solve", "--k", "8", "--json", str(path)]) == EXIT_OK
    capsys.readouterr()
    text = path.read_text()
    assert text == _V2_DOCUMENT
    assert serialize_result(json.loads(text)) == text


# a version 1 document, as ``solve --k 8 --json`` wrote it before the solver
# options other than coarse_grid were removed
_V1_DOCUMENT = """\
{
  "class": "semi_regular",
  "classification": "rational",
  "d": 1.4,
  "dsq": 1.96,
  "dsq_rational": [
    49,
    25
  ],
  "g": 4,
  "gaps": [
    1.36943840600457,
    1.36943840600457
  ],
  "h": 1,
  "k": 8,
  "opts": {
    "coarse_grid": 48,
    "enumeration_slack": 1,
    "max_iters": 400,
    "param_tol": 1e-12,
    "starts_per_axis": 12,
    "value_tol": 1e-12
  },
  "r": 0.2,
  "s": 0.632455532033676,
  "schema_version": "1",
  "triple": {
    "canonical": true,
    "d01": 1.4,
    "d02": 1.4,
    "d12": 1.4,
    "i1": 3,
    "i2": 1,
    "j1": -2,
    "j2": 2
  }
}
"""


def test_version_1_document_still_parses():
    doc = json.loads(_V1_DOCUMENT)
    assert (doc["schema_version"], len(doc["opts"])) == ("1", 6)
    assert serialize_result(doc) == _V1_DOCUMENT


def test_json_write_is_atomic(tmp_path, capsys):
    path = tmp_path / "out.json"
    assert main(["solve", "--k", "4", "--json", str(path)]) == EXIT_OK
    capsys.readouterr()
    assert path.exists()
    leftovers = [n for n in os.listdir(tmp_path) if n != "out.json"]
    assert leftovers == []


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
def test_written_files_follow_the_umask(umask, tmp_path, capsys):
    argv = [
        ["solve", "--k", "7", "--class", "regular", "--json", str(tmp_path / "out.json"),
         "--svg", str(tmp_path / "out.svg")],
        ["table", "--kmin", "3", "--kmax", "3", "--classes", "regular",
         "--csv", str(tmp_path / "out.csv")],
    ]
    old = os.umask(umask)
    try:
        for args in argv:
            assert main(args) == EXIT_OK
    finally:
        os.umask(old)
    capsys.readouterr()
    for name in ("out.json", "out.svg", "out.csv"):
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == 0o666 & ~umask, name


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


def _solved_table_text(ks, tags):
    lines = ["k,class,g,h,gap1,gap2,r,d,dsq,champion"]
    for k in ks:
        solved = solve_all(k, classes=tags)
        for tag, res in solved.per_class.items():
            lines.append(
                f"{k},{tag},{res.scheme.g},{res.scheme.h},{res.gaps[0]:.9f},"
                f"{res.gaps[1]:.9f},{res.r:.9f},{res.d:.9f},{res.dsq:.9f},"
                f"{int(tag == solved.champion_class)}"
            )
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "kmax, names, tags",
    [
        (60, ["regular", "semi"], (REGULAR, SEMI_REGULAR)),
        (12, ["regular", "semi", "rect"], CLASS_TAGS),
    ],
)
def test_forked_table_matches_in_process_solves(kmax, names, tags, monkeypatch, capsys):
    # two workers even on a one-CPU host, so that the forked map is what runs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert main(["table", "--kmin", "3", "--kmax", str(kmax), "--classes", *names]) == EXIT_OK
    assert capsys.readouterr().out == _solved_table_text(range(3, kmax + 1), tags)
    _assert_no_child()


def test_verify_leaves_no_worker_running(monkeypatch, capsys):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert main(["verify", "--kmax", "8"]) == EXIT_OK
    assert "verified 6 rows" in capsys.readouterr().out
    _assert_no_child()


class _ClosedAfterOneLine(io.RawIOBase):
    """The write end of a pipe whose reader takes the first line, then closes its end."""

    def __init__(self):
        self.read_end, self.write_end = os.pipe()
        self.first = None

    def writable(self):
        return True

    def fileno(self):
        return self.write_end

    def write(self, data):
        written = os.write(self.write_end, data)
        if self.first is None and b"\n" in bytes(data):
            self.first = os.read(self.read_end, 1 << 16).split(b"\n")[0]
            os.close(self.read_end)
        return written


def test_verify_into_a_pipe_closed_after_one_line(monkeypatch, capsys):
    # as in ``hexcoloring verify | head -n 1`` with unbuffered output
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    pipe = _ClosedAfterOneLine()
    stdout = io.TextIOWrapper(io.BufferedWriter(pipe), line_buffering=True)
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["verify", "--kmax", "8"]) == EXIT_BROKEN_PIPE == 141
    # the interpreter's last flush: what is left now goes to devnull
    stdout.close()
    os.close(pipe.write_end)
    assert pipe.first.startswith(b"k=3 status=match")
    assert capsys.readouterr().err == ""
    _assert_no_child()


def test_one_usable_cpu_forks_no_worker(monkeypatch, capsys):
    def no_fork():
        raise AssertionError("a worker was forked for one usable CPU")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", no_fork)
    assert main(["table", "--kmin", "3", "--kmax", "6", "--classes", "regular"]) == EXIT_OK
    assert capsys.readouterr().out == _solved_table_text(range(3, 7), (REGULAR,))
    assert main(["verify", "--kmax", "6"]) == EXIT_OK
    assert "verified 4 rows" in capsys.readouterr().out


def test_no_fork_runs_in_process(monkeypatch, capsys):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.delattr(os, "fork")
    assert main(["table", "--kmin", "3", "--kmax", "6", "--classes", "regular"]) == EXIT_OK
    assert capsys.readouterr().out == _solved_table_text(range(3, 7), (REGULAR,))


def _assert_no_child():
    # waitpid(-1) raises only when this process has no child, running or exited
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextmanager
def _deadline(seconds: int):
    """Raise TimeoutError in the block once ``seconds`` have passed, so a stall fails."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _fail_at_seven(k: int) -> int:
    if k == 7:
        raise DomainError(f"no coloring for k={k}")
    return k


def test_worker_exception_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with _deadline(60), pytest.raises(DomainError, match="^no coloring for k=7$"):
        _map_over_cpus(_fail_at_seven, list(range(3, 12)))
    _assert_no_child()


def test_table_whose_worker_raises_exits_with_a_domain_error(monkeypatch, capsys):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(cli, "_table_rows", lambda k, tags: [str(_fail_at_seven(k))])
    assert main(["table", "--kmin", "3", "--kmax", "12"]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no coloring for k=7\n"
    _assert_no_child()


def _die_at_seven(k: int) -> int:
    if k == 7:
        os._exit(3)
    return k


def test_worker_that_dies_is_reported_and_reaped(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with _deadline(60), pytest.raises(RuntimeError, match=r"^a worker exited without a result for k=\d+$"):
        _map_over_cpus(_die_at_seven, list(range(3, 12)))
    _assert_no_child()


def _finished(k: int, slow: int) -> tuple[int, float]:
    """k and the time it finished, the slow k last."""
    if k == slow:
        time.sleep(0.3)
    return k, time.monotonic()


def test_results_come_back_in_k_order_when_later_tasks_finish_first(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    ks = list(range(3, 13))
    with _deadline(60):
        got = _map_over_cpus(_finished, ks, ks[-1])
    assert [k for k, _ in got] == ks
    # the last k goes out first: the other worker finished every earlier k
    # while the first one slept
    assert max(t for _, t in got[:-1]) < got[-1][1]
    _assert_no_child()


def _started(k: int) -> float:
    """When the task for k started; each task takes about 50 ms."""
    start = time.monotonic()
    time.sleep(0.05)
    return start


def test_tasks_go_out_from_the_largest_k(monkeypatch):
    # callers pass ascending k, whose cost grows with k: the two workers
    # start on the two largest
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    ks = list(range(3, 11))
    with _deadline(60):
        starts = _map_over_cpus(_started, ks)
    earliest = sorted(zip(starts, ks))[:2]
    assert sorted(k for _, k in earliest) == [ks[-2], ks[-1]]
    _assert_no_child()


def test_interrupted_map_stops_and_reaps_its_workers(monkeypatch):
    # as on Ctrl-C: the exception reaches the caller at once, and no worker
    # is left solving
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    t0 = time.monotonic()
    with pytest.raises(TimeoutError), _deadline(1):
        _map_over_cpus(time.sleep, [60, 60])
    assert time.monotonic() - t0 < 30
    _assert_no_child()


def _big(k: int) -> bytes:
    return bytes([k]) * (150_000 + k)


def test_results_larger_than_a_pipe_buffer_complete(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    ks = list(range(3, 11))
    with _deadline(60):
        got = _map_over_cpus(_big, ks)
    assert got == [_big(k) for k in ks]
    _assert_no_child()


def test_more_tasks_than_the_task_pipe_holds(monkeypatch):
    # 4 bytes a task: 40,000 tasks overflow a 64 KiB pipe, so the rest are
    # written as the workers drain it
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    ks = list(range(40_000))
    with _deadline(60):
        assert _map_over_cpus(abs, ks) == ks
    _assert_no_child()


def _die(k: int) -> int:
    os._exit(3)


def test_workers_that_all_die_before_every_task_is_written(monkeypatch, capsys):
    # 40,000 tasks overflow the task pipe, so the parent is still writing
    # when the last worker dies: a missing result, not a closed stdout
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with _deadline(60), pytest.raises(RuntimeError, match=r"^a worker exited without a result for k=\d+$"):
        _map_over_cpus(_die, list(range(40_000)))
    _assert_no_child()
    monkeypatch.setattr(cli, "_table_rows", lambda k, tags: [str(_die(k))])
    with _deadline(60), pytest.raises(RuntimeError, match=r"^a worker exited without a result for k=3$"):
        main(["table", "--kmin", "3", "--kmax", "40002"])
    assert capsys.readouterr().out == ""
    _assert_no_child()


@pytest.mark.parametrize(
    "fn, ks, raised, seconds",
    [
        (abs, list(range(3, 12)), None, 60),
        (_fail_at_seven, list(range(3, 12)), DomainError, 60),
        (_die_at_seven, list(range(3, 12)), RuntimeError, 60),
        (time.sleep, [60, 60], TimeoutError, 1),
    ],
    ids=["success", "worker_exception", "worker_dies", "interrupt"],
)
def test_forked_map_leaves_no_descriptor_open(fn, ks, raised, seconds, monkeypatch):
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("no /proc/self/fd to count open descriptors in")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    before = len(os.listdir("/proc/self/fd"))
    with pytest.raises(raised) if raised else nullcontext(), _deadline(seconds):
        _map_over_cpus(fn, ks)
    assert len(os.listdir("/proc/self/fd")) == before
    _assert_no_child()


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


@pytest.mark.parametrize(
    "header, row, reason",
    [
        ("k,i1,j1,i2,j2", "3,2,-1,1,1,hexagonal,1,4,,,0.500000,1", "bad class 'hexagonal'"),
        ("k,i1,j1,j2", "3,2,-1,1,regular,1,4,,,0.500000,1", "missing column 'i2'"),
        ("k,i1,j1,i2,j2", "3,2,-1,1,1,regular,1,4,1,0,0.500000,1", "r must lie in (0, 1)"),
    ],
    ids=["bad class", "no i2 column", "r denominator 0"],
)
def test_verify_rejects_malformed_reference(header, row, reason, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"{header},class,dsq_num,dsq_den,r_num,r_den,d_approx,record\n{row}\n")
    assert main(["verify", "--reference", str(bad)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: invalid reference table: ")
    assert reason in captured.err


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


@pytest.mark.parametrize("k", ["-5", "0"])
def test_closedform_rejects_nonpositive_k(k, capsys):
    assert main(["closedform", "--k", k]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: k must be positive: got {k}\n")


_SOLVING_COMMANDS = [
    ["solve", "--k", "5"],
    ["table", "--kmin", "5", "--kmax", "5"],
    ["verify", "--kmax", "5"],
]


@pytest.mark.parametrize("argv", _SOLVING_COMMANDS, ids=lambda argv: argv[0])
def test_solvers_take_no_solver_flags(argv, capsys):
    # the coarse grid is fixed, and the former --grid and --starts flags are gone
    assert main([*argv, "--grid", "24"]) == EXIT_USAGE
    assert main([*argv, "--starts", "4"]) == EXIT_USAGE
    assert capsys.readouterr().out == ""
