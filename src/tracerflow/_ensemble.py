"""Reproducible parallel map over tracer runs.

Per-run seeds are derived from the master seed by a counter-based mix, so
results do not depend on the worker count or scheduling order; outputs are
gathered by run index.
"""

from __future__ import annotations

from ._util import derive_seed
from .spectrum import SpectrumModel
from .tracer import TrajectoryRecord, run_lagrangian


def _one_run(args) -> TrajectoryRecord:
    model, T, dt, record_every, seed = args
    return run_lagrangian(model, T, dt, record_every, seed)


def run_trajectory_ensemble(model: SpectrumModel, T: float, dt: float,
                            record_every: int, master_seed: int, n_runs: int,
                            threads: int = 1) -> list[TrajectoryRecord]:
    jobs = [(model, T, dt, record_every, derive_seed(master_seed, i))
            for i in range(n_runs)]
    if threads <= 1 or n_runs == 1:
        return [_one_run(j) for j in jobs]
    from concurrent.futures import ProcessPoolExecutor   # only a pool pays its import
    with ProcessPoolExecutor(max_workers=min(threads, n_runs)) as pool:
        return list(pool.map(_one_run, jobs))
