"""Command line surface: solve one k, tabulate a range, verify, closed forms.

Exit codes: 0 success, 2 usage, 3 domain error, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from math import isqrt

from .analysis import (
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

_CLASS_FLAGS = {"regular": REGULAR, "semi": SEMI_REGULAR, "rect": RECTILINEAR}

SCHEMA_VERSION = "1"


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
            opts={
                "starts_per_axis": options.starts_per_axis,
                "coarse_grid": options.coarse_grid,
                "value_tol": _q(options.value_tol),
                "param_tol": _q(options.param_tol),
                "max_iters": options.max_iters,
                "enumeration_slack": options.enumeration_slack,
            },
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


def _options_from(args: argparse.Namespace) -> SolveOptions:
    kwargs = {}
    if getattr(args, "grid", None) is not None:
        kwargs["coarse_grid"] = args.grid
    if getattr(args, "starts", None) is not None:
        kwargs["starts_per_axis"] = args.starts
    return SolveOptions(**kwargs)


def cmd_solve(args: argparse.Namespace) -> int:
    options = _options_from(args)
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


def _table_text(kmin: int, kmax: int, class_names: list[str], options: SolveOptions) -> str:
    tags = [_CLASS_FLAGS[name] for name in class_names]
    lines = ["k,class,g,h,gap1,gap2,r,d,dsq,champion"]
    for k in range(kmin, kmax + 1):
        solved = solve_all(k, options, classes=tags)
        for tag, res in solved.per_class.items():
            lines.append(
                f"{k},{tag},{res.scheme.g},{res.scheme.h},"
                f"{res.gaps[0]:.9f},{res.gaps[1]:.9f},{res.r:.9f},"
                f"{res.d:.9f},{res.dsq:.9f},{int(tag == solved.champion_class)}"
            )
    return "\n".join(lines) + "\n"


def cmd_table(args: argparse.Namespace) -> int:
    if args.kmin > args.kmax:
        print(f"error: --kmin {args.kmin} exceeds --kmax {args.kmax}", file=sys.stderr)
        return EXIT_USAGE
    if args.kmin < 3:
        print(f"error: --kmin must be at least 3: got {args.kmin}", file=sys.stderr)
        return EXIT_USAGE
    text = _table_text(args.kmin, args.kmax, args.classes, _options_from(args))
    if args.csv is not None:
        _atomic_write(args.csv, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        table = load_reference(args.reference)
    except OSError as exc:
        print(f"error: cannot read reference table: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rows = [row for row in table if args.kmax is None or row.k <= args.kmax]
    if not rows:
        print(f"error: no reference rows with k <= {args.kmax}", file=sys.stderr)
        return EXIT_USAGE
    options = _options_from(args)
    results = [solve_all(row.k, options).champion for row in rows]
    report = compare_reference(results, rows)
    for entry in report.entries:
        print(
            f"k={entry.k} status={entry.status} computed={entry.computed_d:.6f} "
            f"reference={entry.reference_d:.6f} delta={entry.delta:+.2e}"
        )
    drops = monotonicity_report({res.k: res.d for res in results})
    for k, n in drops:
        print(f"drop: d({k}) < d({k - n})")
    bad = [e for e in report.entries if e.status != "match"]
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

    p_solve = sub.add_parser("solve", help="optimize one color count")
    p_solve.add_argument("--k", type=int, required=True)
    p_solve.add_argument(
        "--class", dest="class_name", choices=[*_CLASS_FLAGS, "all"], default="all"
    )
    p_solve.add_argument("--grid", type=int, default=None)
    p_solve.add_argument("--starts", type=int, default=None)
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
    p_table.add_argument("--grid", type=int, default=None)
    p_table.add_argument("--starts", type=int, default=None)
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="regression against the reference table")
    p_verify.add_argument("--reference", default=None, metavar="PATH")
    p_verify.add_argument(
        "--kmax", type=int, default=None, help="check only rows up to this k (default: all)"
    )
    p_verify.add_argument("--grid", type=int, default=None)
    p_verify.add_argument("--starts", type=int, default=None)
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
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
