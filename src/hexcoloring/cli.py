"""Command line surface: solve one k, tabulate a range, verify, closed forms.

``table`` and ``verify`` solve their color counts independently, one worker
process per usable CPU (in-process when that is one); results come back in k
order, so the output is the same as a single-process run's.

Exit codes: 0 success, 2 usage, 3 domain error, 4 verification failure,
141 stdout's reader gone (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from itertools import repeat
from math import isqrt

from .analysis import (
    MATCH,
    classify,
    compare_reference,
    load_reference,
    monotonicity_report,
)
from .evaluator import QUARTICS, cubic_f, quartic_dsq, regular_dsq
from .geometry import (
    RECTILINEAR,
    REGULAR,
    SEMI_REGULAR,
    DomainError,
    hexagon_from_gaps,
)
from .optimizer import SolveOptions, SolveResult, solve, solve_all
from .svg import render_svg

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_VERIFY = 4
EXIT_BROKEN_PIPE = 141

_CLASS_FLAGS = {"regular": REGULAR, "semi": SEMI_REGULAR, "rect": RECTILINEAR}

# version 1 documents also carried the since removed solver options in
# ``opts``; ``parse_result`` reads them unchanged
SCHEMA_VERSION = "2"


def _q(x: float) -> float:
    # 15 significant digits: stable text form that parses back to itself
    return float(f"{x:.15g}")


@dataclass(frozen=True)
class ResultDocument:
    """Serialization image of one solve: all floats quantized to 15 digits."""

    schema_version: str
    k: int
    class_tag: str
    g: int
    h: int
    gaps: tuple[float, float]
    r: float
    s: float
    d: float
    dsq: float
    dsq_rational: tuple[int, int] | None
    triple: dict
    classification: str
    opts: dict

    @classmethod
    def from_result(cls, result: SolveResult, options: SolveOptions) -> "ResultDocument":
        t = result.triple
        return cls(
            schema_version=SCHEMA_VERSION,
            k=result.k,
            class_tag=result.class_tag,
            g=result.scheme.g,
            h=result.scheme.h,
            gaps=(_q(result.gaps[0]), _q(result.gaps[1])),
            r=_q(result.r),
            s=_q(result.s),
            d=_q(result.d),
            dsq=_q(result.dsq),
            dsq_rational=result.dsq_rational,
            triple={
                "i1": t.t1.i,
                "j1": t.t1.j,
                "i2": t.t2.i,
                "j2": t.t2.j,
                "d01": _q(t.d01),
                "d02": _q(t.d02),
                "d12": _q(t.d12),
                "canonical": t.canonical,
            },
            classification=classify(result),
            opts={"coarse_grid": options.coarse_grid},
        )

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "k": self.k,
            "class": self.class_tag,
            "g": self.g,
            "h": self.h,
            "gaps": list(self.gaps),
            "r": self.r,
            "s": self.s,
            "d": self.d,
            "dsq": self.dsq,
            "dsq_rational": list(self.dsq_rational) if self.dsq_rational else None,
            "triple": dict(self.triple),
            "classification": self.classification,
            "opts": dict(self.opts),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ResultDocument":
        rat = data["dsq_rational"]
        return cls(
            schema_version=data["schema_version"],
            k=data["k"],
            class_tag=data["class"],
            g=data["g"],
            h=data["h"],
            gaps=tuple(data["gaps"]),
            r=data["r"],
            s=data["s"],
            d=data["d"],
            dsq=data["dsq"],
            dsq_rational=tuple(rat) if rat is not None else None,
            triple=dict(data["triple"]),
            classification=data["classification"],
            opts=dict(data["opts"]),
        )


def serialize_result(doc: ResultDocument) -> str:
    return json.dumps(doc.to_dict(), indent=2, sort_keys=True) + "\n"


def parse_result(text: str) -> ResultDocument:
    return ResultDocument.from_dict(json.loads(text))


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".hexcoloring-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
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
    options = SolveOptions(args.grid)
    if args.class_name == "all":
        result = solve_all(args.k, options).champion
    else:
        result = solve(args.k, _CLASS_FLAGS[args.class_name], options)
    print(_summary_line(result))
    if args.json is not None:
        doc = ResultDocument.from_result(result, options)
        _atomic_write(args.json, serialize_result(doc))
    if args.svg is not None:
        hexagon = hexagon_from_gaps(*result.gaps)
        extent = max(4, isqrt(result.k))
        scene = render_svg(
            hexagon, result.scheme, extent, axes=True, highlight=result.triple
        )
        _atomic_write(args.svg, scene.xml())
    return EXIT_OK


def _map_over_cpus(fn, ks: list[int], *args) -> list:
    """``[fn(k, *args) for k in ks]``, one worker process per usable CPU.

    ``fn`` must be a module-level function, so that workers can unpickle it.
    With one usable CPU (or one k) everything runs in this process.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    workers = min(cpus, len(ks))
    iterables = (ks, *map(repeat, args))
    if workers <= 1:
        return list(map(fn, *iterables))
    # imported here: the pool modules cost a noticeable share of import time
    from concurrent.futures import ProcessPoolExecutor

    # the with block joins every worker before the command returns
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *iterables))


def _table_rows(k: int, tags: list[str], options: SolveOptions) -> list[str]:
    """One k's CSV lines: a row per class in ``tags``, flagging the champion."""
    solved = solve_all(k, options, classes=tags)
    return [
        f"{k},{tag},{res.scheme.g},{res.scheme.h},"
        f"{res.gaps[0]:.9f},{res.gaps[1]:.9f},{res.r:.9f},"
        f"{res.d:.9f},{res.dsq:.9f},{int(tag == solved.champion_class)}"
        for tag, res in solved.per_class.items()
    ]


def _table_text(kmin: int, kmax: int, class_names: list[str], options: SolveOptions) -> str:
    tags = [_CLASS_FLAGS[name] for name in class_names]
    lines = ["k,class,g,h,gap1,gap2,r,d,dsq,champion"]
    for rows in _map_over_cpus(_table_rows, list(range(kmin, kmax + 1)), tags, options):
        lines.extend(rows)
    return "\n".join(lines) + "\n"


def cmd_table(args: argparse.Namespace) -> int:
    if args.kmin > args.kmax:
        print(f"error: --kmin {args.kmin} exceeds --kmax {args.kmax}", file=sys.stderr)
        return EXIT_USAGE
    if args.kmin < 3:
        print(f"error: --kmin must be at least 3: got {args.kmin}", file=sys.stderr)
        return EXIT_USAGE
    text = _table_text(args.kmin, args.kmax, args.classes, SolveOptions(args.grid))
    if args.csv is not None:
        _atomic_write(args.csv, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _champion(k: int, options: SolveOptions) -> SolveResult:
    return solve_all(k, options).champion


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
    options = SolveOptions(args.grid)
    results = _map_over_cpus(_champion, [row.k for row in rows], options)
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
    lines = []
    reg = regular_dsq(k)
    if reg is not None:
        frac = (
            f"{reg.numerator}"
            if reg.denominator == 1
            else f"{reg.numerator}/{reg.denominator}"
        )
        lines.append(f"loeschian d2={frac} d={math.sqrt(reg):.6f}")
    try:
        _, dsq = cubic_f(k)
        lines.append(f"cubic_f d2={dsq:.9f} d={math.sqrt(dsq):.6f}")
    except DomainError:
        pass
    if k in QUARTICS:
        dsq = quartic_dsq(k)
        lines.append(f"quartic d2={dsq:.9f} d={math.sqrt(dsq):.6f}")
    if not lines:
        lines.append("none")
    print("\n".join(lines))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hexcoloring",
        description="Maximin colorings of unit-diameter hexagon tilings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the solver's options, shared by the commands that solve
    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument(
        "--grid", type=int, default=SolveOptions.coarse_grid, help="coarse scan points per axis"
    )

    p_solve = sub.add_parser("solve", parents=[solver], help="optimize one color count")
    p_solve.add_argument("--k", type=int, required=True)
    p_solve.add_argument(
        "--class", dest="class_name", choices=[*_CLASS_FLAGS, "all"], default="all"
    )
    p_solve.add_argument("--json", default=None, metavar="PATH")
    p_solve.add_argument("--svg", default=None, metavar="PATH")
    p_solve.set_defaults(func=cmd_solve)

    p_table = sub.add_parser("table", parents=[solver], help="tabulate a range of k")
    p_table.add_argument("--kmin", type=int, required=True)
    p_table.add_argument("--kmax", type=int, required=True)
    p_table.add_argument(
        "--classes", nargs="+", choices=list(_CLASS_FLAGS), default=list(_CLASS_FLAGS)
    )
    p_table.add_argument("--csv", default=None, metavar="PATH")
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser(
        "verify", parents=[solver], help="regression against the reference table"
    )
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
