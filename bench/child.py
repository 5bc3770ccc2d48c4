"""One cold run of one workload, in a fresh process; prints one JSON line.

Started by run.py with PYTHONPATH set to the checkout's ``src`` only.  The
timed set-up is the import of ``hexcoloring`` (with its cli) and one
``load_reference()``; everything the benchmark itself needs is imported
before it, so that set-up is the program's alone.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import warnings
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import gate

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = ROOT / "src" / "hexcoloring"


def run_solve_all(solve_all, ks, golden: dict, reference: dict, span=None) -> dict:
    """Solve each k once, in order; gate each result.

    A k that raises or fails the gate counts as failed, and its time stays in
    the totals.
    """
    times = {}
    failures = {}
    for k in ks:
        t0 = perf_counter()
        try:
            with span("optimizer.solve_all", k) if span else nullcontext():
                result = solve_all(k)
            problems = None
        except Exception as exc:
            problems = [f"raised {type(exc).__name__}: {exc}"]
        times[k] = perf_counter() - t0
        if problems is None:
            try:
                problems = gate.check_solve_all(
                    gate.summarize(result), golden["solve_all"].get(str(k)), reference.get(k)
                )
            except Exception as exc:
                problems = [f"gate raised {type(exc).__name__}: {exc}"]
        if problems:
            failures[k] = problems
    return {
        "wall_s": sum(times.values()),
        "per_k_s": {str(k): t for k, t in times.items()},
        "attempted": len(ks),
        "failures": {str(k): p for k, p in failures.items()},
    }


def run_semi_table(main, ks, golden: dict, workdir: str, span=None) -> dict:
    """One ``hexcoloring table`` call over the k window; gate every CSV row.

    Each (k, class) row counts as one attempt; a raising call or a non-zero
    exit fails them all.
    """
    kmin, kmax = ks[0], ks[-1]
    csv_path = os.path.join(workdir, "table.csv")
    argv = ["table", "--kmin", str(kmin), "--kmax", str(kmax),
            "--classes", "regular", "semi", "--csv", csv_path]
    keys = [(str(k), cls) for k in ks for cls in ("regular", "semi_regular")]
    t0 = perf_counter()
    try:
        with span("cli.main", None) if span else nullcontext():
            code = main(argv)
        error = None if code == 0 else f"exit code {code}"
    except Exception as exc:
        error = f"raised {type(exc).__name__}: {exc}"
    wall = perf_counter() - t0
    failures = {}
    if error is None:
        try:
            with open(csv_path, encoding="utf-8") as fh:
                rows = gate.table_rows_by_key(fh.read())
        except (OSError, ValueError) as exc:
            error = f"unreadable table: {exc}"
    if error is not None:
        failures = {f"{k}/{cls}": [error] for k, cls in keys}
    else:
        for key in keys:
            want = golden["semi_table"].get(key[0], {}).get(key[1])
            got = rows.get(key)
            if got is None:
                problems = ["row missing"]
            else:
                problems = gate.check_table_row(got, want.split(",") if want else None)
            if problems:
                failures[f"{key[0]}/{key[1]}"] = problems
    return {"wall_s": wall, "attempted": len(keys), "failures": failures}


def _setup():
    """Import the package and load the reference table, timed."""
    t0 = perf_counter()
    import hexcoloring
    import hexcoloring.cli
    t1 = perf_counter()
    rows = hexcoloring.load_reference()
    t2 = perf_counter()
    return hexcoloring, rows, t2 - t0, t2 - t1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--ks", default="")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    pkg, rows, setup_s, load_reference_s = _setup()
    if Path(pkg.__file__).resolve().parent != PACKAGE_DIR:
        print(f"imported {pkg.__file__}, not the checkout's src", file=sys.stderr)
        return 2
    out = {"setup_s": setup_s, "load_reference_s": load_reference_s}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    from hexcoloring import cli, optimizer

    ks = [int(k) for k in args.ks.split(",")]
    golden = gate.load_golden()
    reference = {row.k: row.d_approx for row in rows}
    tracer = None
    if args.trace:
        from tracer import SPAN_FIELDS, Tracer

        tracer = Tracer()
    workdir = ROOT / ".bench_out"
    workdir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp, warnings.catch_warnings(
        record=True
    ) if tracer else nullcontext() as caught:
        if tracer:
            warnings.simplefilter("always", DeprecationWarning)
        with tracer.installed({"optimizer": optimizer, "cli": cli}) if tracer else nullcontext():
            span = tracer.span if tracer else None
            if args.workload == "semi_table":
                out.update(run_semi_table(cli.main, ks, golden, tmp, span))
            else:
                out.update(run_solve_all(optimizer.solve_all, ks, golden, reference, span))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        layers = {name: list(v) for name, v in tracer.metrics().items()}
        layers["analysis.load_reference.busy_s"] = [load_reference_s, "s"]
        own = os.path.dirname(pkg.__file__) + os.sep
        layers["optimizer.deprecation_warnings"] = [
            sum(1 for w in caught
                if issubclass(w.category, DeprecationWarning) and w.filename.startswith(own)),
            "count",
        ]
        out["layers"] = layers
        out["absent"] = tracer.absent
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump({"fields": SPAN_FIELDS, "spans": tracer.spans}, fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
