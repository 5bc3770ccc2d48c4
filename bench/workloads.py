"""The benchmark's workloads: which color counts each one solves, from a seed.

Every seed gives a workload's default set, in an order drawn from the seed
(seed 0 keeps ascending order).  The order moves which k pays for warming
the solver's field cache but not the total work, so runs with different
seeds stay comparable.  ``held_out=True`` instead draws a set of the same
size from the workload's pool, for checking a claim on inputs it was not
tuned on; those sets differ in cost, so compare held-out runs only with
runs of the same seed.
"""

from __future__ import annotations

import random

SWEEP_SMALL = "sweep_small"
LARGE_K = "large_k"
SEMI_TABLE = "semi_table"
WORKLOADS = (SWEEP_SMALL, LARGE_K, SEMI_TABLE)

# (default set, pool) for the workloads that call solve_all once per k
SOLVE_ALL_SETS = {
    # what `hexcoloring verify --kmax 30` and acceptance test C1 run
    SWEEP_SMALL: (tuple(range(3, 31)), tuple(range(3, 46))),
    # the large-k set of ROADMAP aim 1; the pool is every reference row k >= 41
    LARGE_K: ((56, 77, 112, 156), (41, 49, 56, 77, 112, 156, 175)),
}

# semi_table tabulates one contiguous window of k, regular and semi classes
SEMI_WIDTH = 118
SEMI_KMIN = 3
SEMI_POOL = (3, 160)


def solve_all_pool_ks() -> list[int]:
    """Every k any seed of the solve_all workloads can draw."""
    return sorted({k for _, pool in SOLVE_ALL_SETS.values() for k in pool})


def k_values(workload: str, seed: int, held_out: bool = False) -> list[int]:
    """The color counts one run of ``workload`` solves, in solve order."""
    rng = random.Random(seed)
    if workload == SEMI_TABLE:
        kmin = SEMI_KMIN
        if held_out:
            kmin = rng.randint(SEMI_POOL[0], SEMI_POOL[1] - SEMI_WIDTH + 1)
        return list(range(kmin, kmin + SEMI_WIDTH))
    if workload not in SOLVE_ALL_SETS:
        raise ValueError(f"unknown workload {workload!r}")
    default, pool = SOLVE_ALL_SETS[workload]
    if held_out:
        return rng.sample(pool, len(default))
    ks = list(default)
    if seed != 0:
        rng.shuffle(ks)
    return ks
