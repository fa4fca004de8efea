"""Passive tracer advection and the Lagrangian observation records.

A tracer is two arrays, its position on the torus and its unwrapped
displacement.  It solves dx/dt = V(t, x(t)) through the exact-in-law
Ornstein-Uhlenbeck field: :func:`advect_step` returns the RK4 increment, and
the caller adds it to both.  The observation process (the field seen from the
tracer) is the exact Fourier shift of the Eulerian field, with no extra
discretization error; :func:`field.ens_observation_step` steps it directly
for the stability and coupling probes of :mod:`ergodic`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectrum import SpectrumModel
from .field import (NumericalFailure, _eval, evaluate, ou_exact_step,
                    sample_stationary, sobolev_norm)

TWO_PI = 2.0 * math.pi


@dataclass
class TrajectoryRecord:
    """Sampled time series of one tracer run."""

    times: np.ndarray            # (n,)
    positions: np.ndarray        # (n, d)
    displacements: np.ndarray    # (n, d)
    velocities: np.ndarray       # (n, d), field value at the tracer
    field_norms: np.ndarray      # (n,), X^m norm of the shifted field
    seed: int | np.random.SeedSequence   # what default_rng received
    dt: float

    def __post_init__(self):
        n = self.times.size
        for arr in (self.positions, self.displacements, self.velocities,
                    self.field_norms):
            if arr.shape[0] != n:
                raise ValueError("record columns have unequal lengths")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("record times must be strictly increasing")

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    def index_at(self, t: float) -> int:
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"time {t} not on the record grid")
        return i


def wrap_torus(x: np.ndarray) -> np.ndarray:
    return np.mod(x, TWO_PI)


def shift_field(model: SpectrumModel, coeffs: np.ndarray, a) -> np.ndarray:
    """Recentre the field at a: coefficient at k multiplied by e^{i k.a}.

    Unit-modulus multipliers, so every X^r norm is preserved exactly.
    """
    a = np.asarray(a, dtype=float)
    mult = np.exp(1j * (model.wavevectors @ a))
    return coeffs * mult[:, None]


def advect_step(x: np.ndarray, model: SpectrumModel, coeffs: np.ndarray, v: np.ndarray,
                dt: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One coupled step from x: the RK4 increment and the field at t + dt.

    v is the velocity at x, evaluate(model, coeffs, x), which is the first
    RK4 stage; the caller has it already (a run records it), so the step
    does not evaluate it again.
    The field snapshots at t, t+dt/2, t+dt (two exact half-steps) feed the RK4
    stages at their standard times, so the field stays exact in law there.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    k = model.wavevectors
    half = ou_exact_step(model, coeffs, dt / 2.0, rng)
    full = ou_exact_step(model, half, dt / 2.0, rng)
    k2 = _eval(half, k, wrap_torus(x + (0.5 * dt) * v))
    k3 = _eval(half, k, wrap_torus(x + (0.5 * dt) * k2))
    k4 = _eval(full, k, wrap_torus(x + dt * k3))
    delta = (dt / 6.0) * (v + 2.0 * (k2 + k3) + k4)
    if not np.isfinite(delta).all():
        raise NumericalFailure("non-finite tracer increment")
    return delta, full


def run_lagrangian(model: SpectrumModel, T: float, dt: float,
                   record_every: int, seed: int) -> TrajectoryRecord:
    """Simulate one tracer through a stationary field realisation.

    The field starts from its invariant law, the tracer at the origin.  At
    each record point the run stores the field value at the tracer (the
    observation-process value at the origin) and the X^m norm of the field
    recentred at the tracer; the next step takes that value as its first
    RK4 stage.
    """
    if T <= 0.0 or dt <= 0.0 or dt > T:
        raise ValueError("require 0 < dt <= T")
    if record_every < 1 or int(record_every) != record_every:
        raise ValueError("record_every must be a positive integer")
    rng = np.random.default_rng(seed)
    field = sample_stationary(model, rng)
    d = model.dimension
    x, disp = np.zeros(d), np.zeros(d)

    n_steps = int(round(T / dt))
    n_rec = n_steps // int(record_every) + 1 + bool(n_steps % record_every)
    times = np.empty(n_rec)
    positions = np.empty((n_rec, d))
    displacements = np.empty((n_rec, d))
    velocities = np.empty((n_rec, d))
    norms = np.empty(n_rec)
    j = 0
    for step in range(n_steps + 1):
        if step % record_every == 0 or step == n_steps:
            v = evaluate(model, field, x)
            times[j], positions[j], displacements[j], velocities[j] = step * dt, x, disp, v
            norms[j] = sobolev_norm(model, shift_field(model, field, x))
            j += 1
        else:
            v = _eval(field, model.wavevectors, x)
        if step < n_steps:
            delta, field = advect_step(x, model, field, v, dt, rng)
            x, disp = wrap_torus(x + delta), disp + delta
    return TrajectoryRecord(times=times, positions=positions,
                            displacements=displacements, velocities=velocities,
                            field_norms=norms, seed=seed, dt=dt)


def stokes_drift_estimate(records: list[TrajectoryRecord]) -> tuple[np.ndarray, np.ndarray]:
    """Ensemble mean and standard error of displacement(T)/T across runs."""
    if len(records) < 2:
        raise ValueError("need at least two records")
    T = records[0].final_time
    for r in records[1:]:
        if abs(r.final_time - T) > 1e-9 * max(1.0, T):
            raise ValueError("records have mismatched horizons")
    per_run = np.stack([r.displacements[-1] / r.final_time for r in records])
    mean = per_run.mean(axis=0)
    stderr = per_run.std(axis=0, ddof=1) / math.sqrt(len(records))
    return mean, stderr


def displacement_identity_gap(record: TrajectoryRecord) -> float:
    """Max-norm gap between the trapezoid integral of the recorded velocity
    and the recorded displacement (both relative to the start)."""
    integral = np.concatenate([
        np.zeros((1, record.velocities.shape[1])),
        np.cumsum(0.5 * (record.velocities[1:] + record.velocities[:-1]) *
                  np.diff(record.times)[:, None], axis=0)])
    gap = integral - (record.displacements - record.displacements[0])
    return float(np.abs(gap).max())


def csv_columns(d: int) -> list[str]:
    cols = ["run_id", "t"]
    cols += [f"x{i}" for i in range(1, d + 1)]
    cols += [f"disp{i}" for i in range(1, d + 1)]
    cols += [f"v{i}" for i in range(1, d + 1)]
    cols.append("norm")
    return cols


def trajectory_csv_rows(run_id: int, record: TrajectoryRecord):
    """One CSV line per record row in csv_columns order; floats as repr."""
    cols = np.column_stack((record.times, record.positions, record.displacements,
                            record.velocities, record.field_norms))
    prefix = str(run_id)
    for row in cols.tolist():
        yield ",".join([prefix, *map(repr, row)])
