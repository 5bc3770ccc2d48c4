"""Outside-in benchmark of the hexcoloring solver.

    python3 bench/run.py --workload sweep_small --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Each workload run is a fresh,
single-threaded process (child.py) that starts with a cold field cache,
imports the checkout's own ``src``, solves the workload's k set once and
gates every output against golden.json.  This script repeats such runs until
``--seconds`` have passed and at least MIN_RUNS have finished, and reports
medians.  ``--trace 1`` makes one untraced and one traced run and reports
the per-layer metrics.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, k_values

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

MIN_RUNS = 3
# stay inside the three minutes a run may take, even on a slow commit
BUDGET_S = 165.0


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # the user's default warning filters
    env.pop("PYTHONWARNINGS", None)
    return env


def _child(args: list[str], deadline: float) -> dict:
    timeout = max(1.0, deadline - perf_counter())
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), *args],
        cwd=ROOT,
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"child.py {' '.join(args[:2])} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"child.py {' '.join(args[:2])} printed no result")
    return json.loads(lines[-1])


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "hexcoloring").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _environment() -> dict:
    try:
        from importlib.metadata import version

        numpy_version = version("numpy")
    except Exception:
        numpy_version = "unknown"
    return {
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
    }


def _failures(runs: list[dict]) -> tuple[int, int, list[str]]:
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(len(r["failures"]) for r in runs)
    notes = [f"{key}: {'; '.join(p)}" for r in runs for key, p in r["failures"].items()]
    return attempted, failed, notes


def measure(workload: str, ks: list[int], seconds: float, deadline: float) -> tuple[dict, list[dict]]:
    ks_arg = ",".join(map(str, ks))
    start = perf_counter()
    # the first import after a checkout compiles the package; keep it untimed
    _child(["--workload", workload, "--setup-only"], deadline)
    setups: list[float] = []
    runs: list[dict] = []
    longest = 0.0
    while len(runs) < MIN_RUNS or perf_counter() - start < seconds:
        if runs and perf_counter() + longest > deadline:
            break
        t0 = perf_counter()
        # one set-up probe beside each workload process spreads the set-up
        # samples over the run, as the machine's speed drifts
        setups.append(_child(["--workload", workload, "--setup-only"], deadline)["setup_s"])
        runs.append(_child(["--workload", workload, "--ks", ks_arg], deadline))
        longest = max(longest, perf_counter() - t0)
    setups += [r["setup_s"] for r in runs]
    print(f"runs = {len(runs)}, wall_s per run = {[round(r['wall_s'], 4) for r in runs]}")
    if "per_k_s" in runs[0]:
        # the machine's speed drifts by tens of percent over seconds to
        # minutes; a per-k median drops a slow stretch that hits one process
        # but not the others
        per_k = [statistics.median(r["per_k_s"][str(k)] for r in runs) for k in ks]
        wall = sum(per_k)
        print(f"k_max_s = {max(per_k):.4f} s (slowest k, median over runs)")
    else:
        wall = statistics.median(r["wall_s"] for r in runs)
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
    }
    return metrics, runs


def trace(workload: str, ks: list[int], seed: int, deadline: float) -> tuple[dict, list[dict]]:
    ks_arg = ",".join(map(str, ks))
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    plain = _child(["--workload", workload, "--ks", ks_arg], deadline)
    traced = _child(["--workload", workload, "--ks", ks_arg, "--trace", "--spans", str(spans)],
                    deadline)
    metrics = {name: tuple(v) for name, v in traced["layers"].items()}
    metrics["trace.overhead_frac"] = (traced["wall_s"] / plain["wall_s"] - 1.0, "ratio")
    for name in traced["absent"]:
        print(f"absent: {name} no longer exists; its metrics are not reported")
    print(f"spans: {spans.relative_to(ROOT)} ({len(json.loads(spans.read_text())['spans'])} spans)")
    return metrics, [plain, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true",
                        help="draw the k set from the workload's pool instead")
    args = parser.parse_args(argv)

    if not (SRC / "hexcoloring" / "__init__.py").is_file():
        print(f"error: no hexcoloring sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    deadline = perf_counter() + BUDGET_S
    ks = k_values(args.workload, args.seed, args.held_out)
    print("env: " + json.dumps(_environment(), sort_keys=True))
    print(f"workload = {args.workload}, seed = {args.seed}, k = {ks}")
    try:
        if args.trace:
            metrics, runs = trace(args.workload, ks, args.seed, deadline)
        else:
            metrics, runs = measure(args.workload, ks, args.seconds, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed, notes = _failures(runs)
    for note in notes[:20]:
        print(f"failed {note}")
    print(f"failed_frac = {failed / attempted:.4f} ({failed} of {attempted} attempted)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
