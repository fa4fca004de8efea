"""Reproducible parallel map over tracer runs.

Run i draws from child i of the master seed's ``SeedSequence``, so results
do not depend on the worker count or scheduling order; outputs are gathered
by run index.
"""

from __future__ import annotations

import numpy as np

from .spectrum import SpectrumModel
from .tracer import TrajectoryRecord, run_lagrangian


def child_seeds(seed, n: int) -> list[np.random.SeedSequence]:
    """Children 0..n-1 of seed's SeedSequence, keyed (*key, i); .spawn() would
    count them, so that a second call gave other streams."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.SeedSequence(ss.entropy, spawn_key=(*ss.spawn_key, i))
            for i in range(n)]


def _one_run(args) -> TrajectoryRecord:
    model, T, dt, record_every, seed = args
    return run_lagrangian(model, T, dt, record_every, seed)


def run_trajectory_ensemble(model: SpectrumModel, T: float, dt: float,
                            record_every: int, master_seed: int, n_runs: int,
                            threads: int = 1) -> list[TrajectoryRecord]:
    jobs = [(model, T, dt, record_every, seed) for seed in child_seeds(master_seed, n_runs)]
    if threads <= 1 or n_runs == 1:
        return [_one_run(j) for j in jobs]
    from concurrent.futures import ProcessPoolExecutor   # only a pool pays its import
    with ProcessPoolExecutor(max_workers=min(threads, n_runs)) as pool:
        return list(pool.map(_one_run, jobs))
