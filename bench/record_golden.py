"""Write golden.json: this commit's outputs over every workload's pool.

    PYTHONPATH=src python3 bench/record_golden.py

Run it only when a change is meant to alter the solver's answers, and say so
in that change; the gate compares every benchmark run against this file.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import gate
from workloads import SEMI_POOL, solve_all_pool_ks

from hexcoloring import cli
from hexcoloring.optimizer import solve_all


def main() -> int:
    golden = {"solve_all": {}, "semi_table": {}}
    for k in solve_all_pool_ks():
        golden["solve_all"][str(k)] = gate.summarize(solve_all(k))
        print(f"k={k} {golden['solve_all'][str(k)]}", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.csv")
        argv = ["table", "--kmin", str(SEMI_POOL[0]), "--kmax", str(SEMI_POOL[1]),
                "--classes", "regular", "semi", "--csv", path]
        if cli.main(argv) != 0:
            print("table failed", file=sys.stderr)
            return 1
        with open(path, encoding="utf-8") as fh:
            rows = gate.table_rows_by_key(fh.read())
    for (k, cls), fields in rows.items():
        golden["semi_table"].setdefault(k, {})[cls] = ",".join(fields)
    with open(gate.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
