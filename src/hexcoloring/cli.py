"""Command line surface: solve one k, tabulate a range, verify, closed forms.

``table`` and ``verify`` solve their color counts independently, on one
forked worker process per usable CPU (in-process when that is one, or where
there is no ``os.fork``); results come back in k order, so the output is the
same as a single-process run's.

Exit codes: 0 success, 2 usage, 3 domain error, 4 verification failure,
141 stdout's reader gone (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import pickle
import sys
import tempfile
from fractions import Fraction
from math import isqrt

from .analysis import (
    MATCH,
    classify,
    compare_reference,
    load_reference,
    monotonicity_report,
)
from .geometry import (
    RECTILINEAR,
    REGULAR,
    SEMI_REGULAR,
    DomainError,
    hexagon_from_gaps,
)
from .optimizer import COARSE_GRID, SolveResult, closed_forms, solve, solve_all
from .svg import render_svg

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_VERIFY = 4
EXIT_BROKEN_PIPE = 141

_CLASS_FLAGS = {"regular": REGULAR, "semi": SEMI_REGULAR, "rect": RECTILINEAR}

# version 1 documents also carried the since removed solver options in
# ``opts``; version 2 records only the fixed coarse grid there
SCHEMA_VERSION = "2"


def _q(x: float) -> float:
    # 15 significant digits: stable text form that parses back to itself
    return float(f"{x:.15g}")


def result_document(result: SolveResult) -> dict:
    """The JSON document of one solve, all floats quantized to 15 digits."""
    t = result.triple
    return {
        "schema_version": SCHEMA_VERSION,
        "k": result.k,
        "class": result.class_tag,
        "g": result.scheme.g,
        "h": result.scheme.h,
        "gaps": [_q(result.gaps[0]), _q(result.gaps[1])],
        "r": _q(result.r),
        "s": _q(result.s),
        "d": _q(result.d),
        "dsq": _q(result.dsq),
        "dsq_rational": list(result.dsq_rational) if result.dsq_rational else None,
        "triple": {
            "i1": t.t1.i,
            "j1": t.t1.j,
            "i2": t.t2.i,
            "j2": t.t2.j,
            "d01": _q(t.d01),
            "d02": _q(t.d02),
            "d12": _q(t.d12),
            "canonical": t.canonical,
        },
        "classification": classify(result),
        "opts": {"coarse_grid": COARSE_GRID},
    }


def serialize_result(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".hexcoloring-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        # mkstemp makes the file 0600: give it the mode open() would, under the umask
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _summary_line(result: SolveResult) -> str:
    t = result.triple
    return (
        f"k={result.k} class={result.class_tag} "
        f"d={result.d:.6f} d2={result.dsq:.6f} "
        f"g={result.scheme.g} h={result.scheme.h} "
        f"triple=({t.t1.i},{t.t1.j}),({t.t2.i},{t.t2.j})"
    )


def cmd_solve(args: argparse.Namespace) -> int:
    if args.class_name == "all":
        result = solve_all(args.k).champion
    else:
        result = solve(args.k, _CLASS_FLAGS[args.class_name])
    print(_summary_line(result))
    if args.json is not None:
        _atomic_write(args.json, serialize_result(result_document(result)))
    if args.svg is not None:
        hexagon = hexagon_from_gaps(*result.gaps)
        extent = max(4, isqrt(result.k))
        scene = render_svg(
            hexagon, result.scheme, extent, axes=True, highlight=result.triple
        )
        _atomic_write(args.svg, scene.xml())
    return EXIT_OK


def _map_over_cpus(fn, ks: list[int], *args) -> list:
    """``[fn(k, *args) for k in ks]``, on one forked worker per usable CPU.

    Workers take task indices one at a time from a shared pipe, so the work
    goes to whichever worker is free; being forked, they hold ``fn`` and
    ``args`` already.  Indices go out from the last k to the first: callers
    pass ascending k, whose cost grows with k, so no large k runs alone
    last.  Each worker pickles its results into a temporary file of its
    own, and this process reads the files once every worker has
    exited.  The results come back in k order; the exception a worker's
    ``fn`` raised is raised here, the lowest k's first, and a RuntimeError
    if a worker died with tasks unanswered.  With one usable CPU (or one
    k), or without ``os.fork``, everything runs in this process.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    workers = min(cpus, len(ks))
    if workers <= 1 or not hasattr(os, "fork"):
        return [fn(k, *args) for k in ks]
    import signal  # only a forked map needs it

    pids, outcomes = [], {}
    try:
        with contextlib.ExitStack() as stack:
            sinks = [stack.enter_context(tempfile.TemporaryFile()) for _ in range(workers)]
            read_end, write_end = os.pipe()
            tasks_in = stack.enter_context(open(read_end, "rb", buffering=0))
            tasks_out = stack.enter_context(open(write_end, "wb", buffering=0))
            for sink in sinks:
                pid = os.fork()
                if pid == 0:
                    try:
                        tasks_out.close()
                        _worker(fn, ks, args, tasks_in, sink)
                        os._exit(0)
                    finally:
                        # no exit handlers, no flush of buffers copied from this process
                        os._exit(1)
                pids.append(pid)
            tasks_in.close()
            tasks = b"".join(i.to_bytes(_TASK_BYTES, "little") for i in reversed(range(len(ks))))
            try:
                for start in range(0, len(tasks), _TASK_CHUNK):
                    tasks_out.write(tasks[start:start + _TASK_CHUNK])
            except BrokenPipeError:
                pass  # every worker has gone: their results are missing, as said below
            tasks_out.close()
            while pids:
                os.waitpid(pids[-1], 0)
                pids.pop()
            for sink in sinks:
                sink.seek(0)
                while True:
                    try:
                        i, ok, value = pickle.load(sink)
                    except (EOFError, pickle.UnpicklingError):
                        break  # the end, or a worker that died while writing a record
                    outcomes[i] = ok, value
    except BaseException:
        # KeyboardInterrupt included: the workers' results are not wanted
        for pid in pids:
            os.kill(pid, signal.SIGTERM)
        raise
    finally:
        for pid in pids:
            os.waitpid(pid, 0)
    results = []
    for i, k in enumerate(ks):
        if i not in outcomes:
            raise RuntimeError(f"a worker exited without a result for k={k}")
        ok, value = outcomes[i]
        if not ok:
            raise value
        results.append(value)
    return results


# a task is an index into ks, as this many little-endian bytes; tasks go
# into the pipe at most POSIX's least PIPE_BUF bytes at a time, a write that
# lands whole, so that a worker never reads part of a task
_TASK_BYTES, _TASK_CHUNK = 4, 512


def _worker(fn, ks: list[int], args: tuple, tasks, sink) -> None:
    """A forked worker's work: solve each task read from ``tasks`` and pickle its record into ``sink``.

    A record is (index, ok, value): fn's result, or the exception it raised."""
    while task := tasks.read(_TASK_BYTES):
        i = int.from_bytes(task, "little")
        try:
            record = pickle.dumps((i, True, fn(ks[i], *args)))
        except Exception as exc:
            try:
                record = pickle.dumps((i, False, exc))
            except Exception:
                record = pickle.dumps((i, False, RuntimeError(f"{type(exc).__name__}: {exc}")))
        sink.write(record)
    sink.flush()


def _table_rows(k: int, tags: list[str]) -> list[str]:
    """One k's CSV lines: a row per class in ``tags``, flagging the champion."""
    solved = solve_all(k, classes=tags)
    return [
        f"{k},{tag},{res.scheme.g},{res.scheme.h},"
        f"{res.gaps[0]:.9f},{res.gaps[1]:.9f},{res.r:.9f},"
        f"{res.d:.9f},{res.dsq:.9f},{int(tag == solved.champion_class)}"
        for tag, res in solved.per_class.items()
    ]


def _table_text(kmin: int, kmax: int, class_names: list[str]) -> str:
    tags = [_CLASS_FLAGS[name] for name in class_names]
    lines = ["k,class,g,h,gap1,gap2,r,d,dsq,champion"]
    for rows in _map_over_cpus(_table_rows, list(range(kmin, kmax + 1)), tags):
        lines.extend(rows)
    return "\n".join(lines) + "\n"


def cmd_table(args: argparse.Namespace) -> int:
    if args.kmin > args.kmax:
        print(f"error: --kmin {args.kmin} exceeds --kmax {args.kmax}", file=sys.stderr)
        return EXIT_USAGE
    if args.kmin < 3:
        print(f"error: --kmin must be at least 3: got {args.kmin}", file=sys.stderr)
        return EXIT_USAGE
    text = _table_text(args.kmin, args.kmax, args.classes)
    if args.csv is not None:
        _atomic_write(args.csv, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _champion(k: int) -> SolveResult:
    return solve_all(k).champion


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        table = load_reference(args.reference)
    except OSError as exc:
        print(f"error: cannot read reference table: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: invalid reference table: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rows = [row for row in table if args.kmax is None or row.k <= args.kmax]
    if not rows:
        print(f"error: no reference rows with k <= {args.kmax}", file=sys.stderr)
        return EXIT_USAGE
    results = _map_over_cpus(_champion, [row.k for row in rows])
    report = compare_reference(results, rows)
    for entry in report.entries:
        print(
            f"k={entry.k} status={entry.status} computed={entry.computed_d:.6f} "
            f"reference={entry.reference_d:.6f} delta={entry.delta:+.2e}"
        )
    drops = monotonicity_report({res.k: res.d for res in results})
    for k, n in drops:
        print(f"drop: d({k}) < d({k - n})")
    bad = [e for e in report.entries if e.status != MATCH]
    if bad:
        print(f"verification failed for {len(bad)} of {len(report.entries)} rows", file=sys.stderr)
        return EXIT_VERIFY
    print(f"verified {len(report.entries)} rows, worst |delta| = {report.worst_abs_delta:.2e}")
    return EXIT_OK


def cmd_closedform(args: argparse.Namespace) -> int:
    k = args.k
    if k < 1:
        raise DomainError(f"k must be positive: got {k}")
    lines = []
    for name, dsq in closed_forms(k):
        # an exact Fraction prints as "n" or "n/d"
        text = str(dsq) if isinstance(dsq, Fraction) else f"{dsq:.9f}"
        lines.append(f"{name} d2={text} d={math.sqrt(dsq):.6f}")
    print("\n".join(lines or ["none"]))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hexcoloring",
        description="Maximin colorings of unit-diameter hexagon tilings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_solve = sub.add_parser("solve", help="optimize one color count")
    p_solve.add_argument("--k", type=int, required=True)
    p_solve.add_argument("--class", dest="class_name", choices=[*_CLASS_FLAGS, "all"], default="all")
    p_solve.add_argument("--json", default=None, metavar="PATH")
    p_solve.add_argument("--svg", default=None, metavar="PATH")
    p_solve.set_defaults(func=cmd_solve)

    p_table = sub.add_parser("table", help="tabulate a range of k")
    p_table.add_argument("--kmin", type=int, required=True)
    p_table.add_argument("--kmax", type=int, required=True)
    p_table.add_argument(
        "--classes", nargs="+", choices=list(_CLASS_FLAGS), default=list(_CLASS_FLAGS)
    )
    p_table.add_argument("--csv", default=None, metavar="PATH")
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="regression against the reference table")
    p_verify.add_argument("--reference", default=None, metavar="PATH")
    p_verify.add_argument(
        "--kmax", type=int, default=None, help="check only rows up to this k (default: all)"
    )
    p_verify.set_defaults(func=cmd_verify)

    p_closed = sub.add_parser("closedform", help="closed-form values for one k")
    p_closed.add_argument("--k", type=int, required=True)
    p_closed.set_defaults(func=cmd_closedform)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        status = args.func(args)
        sys.stdout.flush()  # so that a reader that has gone shows below
        return status
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except BrokenPipeError:
        # stdout's reader has gone (``verify | head``): send what is left to
        # devnull, so that the interpreter's final flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
