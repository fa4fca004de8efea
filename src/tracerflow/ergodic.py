"""Empirical probes for ergodicity of the observation process.

Everything here is a seeded Monte-Carlo diagnostic, not a proof device:
time averages along runs, occupation of balls around the origin (the
only centre measured) with a sliding-window liminf proxy, norm-moment
scans certifying tightness via Chebyshev, noiseless-versus-noisy
stability probes, and shared-noise coupling scans that upper-bound the
equicontinuity modulus of the transition semigroup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import derive_seed
from .spectrum import SpectrumModel
from .field import (NumericalFailure, ens_norm_m, ens_observation_step,
                    ens_ou_step, ens_pair_noise, ens_tile, noiseless_flow_step,
                    origin_value, sample_stationary, sobolev_norm, zero_field)
from .tracer import TrajectoryRecord

OBSERVABLE_KINDS = ("bounded_lipschitz_of_norm", "velocity_at_origin",
                    "indicator_ball")
MOMENT_GRID_DT = 0.1
_STDERR_BATCHES = 20   # batch means behind time_average_with_stderr


@dataclass(frozen=True)
class ObservableSpec:
    """Observable evaluated along observation-process states.

    bounded_lipschitz_of_norm: tanh(||z||_{X^m}^2), bounded and Lipschitz.
    velocity_at_origin: one component of z(0).
    indicator_ball: 1{||z||_{X^m} < delta}, the ball around the origin.
    """

    kind: str = "bounded_lipschitz_of_norm"
    component: int = 0
    delta: float | None = None

    def __post_init__(self):
        if self.kind not in OBSERVABLE_KINDS:
            raise ValueError(f"unknown observable kind {self.kind!r}")
        if self.kind == "indicator_ball" and not (self.delta and self.delta > 0):
            raise ValueError("indicator_ball requires delta > 0")

    def from_norm(self, norms: np.ndarray) -> np.ndarray:
        if self.kind == "bounded_lipschitz_of_norm":
            return np.tanh(np.asarray(norms) ** 2)
        if self.kind == "indicator_ball":
            return (np.asarray(norms) < self.delta).astype(float)
        raise ValueError(f"{self.kind} cannot be computed from norms alone")

    def series(self, record: TrajectoryRecord) -> np.ndarray:
        if self.kind == "velocity_at_origin":
            return record.velocities[:, self.component]
        return self.from_norm(record.field_norms)

    def on_stacked(self, model: SpectrumModel, cpos: np.ndarray) -> np.ndarray:
        """Evaluate on stacked representative slices (members, n_pairs, d)."""
        if self.kind == "velocity_at_origin":
            return origin_value(cpos)[..., self.component]
        return self.from_norm(ens_norm_m(model, cpos))


def _unit_direction(model: SpectrumModel, rng: np.random.Generator) -> np.ndarray:
    """Random X^m-unit perturbation direction; deterministic fallback when the
    model carries no energy to sample from."""
    f = sample_stationary(model, rng)
    nrm = sobolev_norm(model, f, model.m)
    if nrm > 0.0:
        return f / nrm
    f = zero_field(model)
    f[0, 0] = 1.0
    return f / sobolev_norm(model, f, model.m)


def _trapezoid_mean(series: np.ndarray, times: np.ndarray):
    if times.size < 2:
        raise ValueError("record too short to average")
    return np.trapezoid(series, times, axis=0) / (times[-1] - times[0])


def time_average_with_stderr(record: TrajectoryRecord,
                             psi: ObservableSpec) -> tuple[float, float]:
    """Time average plus a batch-means standard error."""
    series = np.asarray(psi.series(record), dtype=float)
    avg = float(_trapezoid_mean(series, record.times))
    batches = np.array_split(series, _STDERR_BATCHES)
    means = np.array([b.mean() for b in batches if b.size])
    stderr = float(means.std(ddof=1) / math.sqrt(means.size))
    return avg, stderr


@dataclass
class ErgodicReport:
    """Single-run summary: time average plus occupation diagnostics."""

    horizon: float
    time_avg: float
    time_avg_stderr: float
    occupation_fraction: float
    window_min: float
    delta: float

    def __post_init__(self):
        if not 0.0 <= self.occupation_fraction <= 1.0:
            raise ValueError("occupation fraction outside [0, 1]")


def summarize_run(record: TrajectoryRecord, psi: ObservableSpec,
                  delta: float | None = None) -> ErgodicReport:
    """Bundle the standard per-run diagnostics (delta defaults to twice the
    median recorded norm, the convention used by the occupation probe)."""
    if delta is None:
        delta = 2.0 * float(np.median(record.field_norms))
    avg, se = time_average_with_stderr(record, psi)
    fraction, window_min = occupation_fraction(record, delta)
    return ErgodicReport(horizon=record.final_time, time_avg=avg,
                         time_avg_stderr=se, occupation_fraction=fraction,
                         window_min=window_min, delta=delta)


def occupation_fraction(record: TrajectoryRecord,
                        delta: float) -> tuple[float, float]:
    """(fraction, window_min) of recorded times with ||Z(t)||_{X^m} < delta,
    the occupation of the ball of radius delta around the origin.

    window_min is a liminf proxy: the smallest window average among windows
    of width one quarter of the run sliding across its second half (an
    artifact convention, not the true liminf).
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    hits = (record.field_norms < delta).astype(float)
    n = hits.size
    half = n // 2
    width = max(1, n // 4)
    mins = [hits[s:s + width].mean() for s in range(half, n - width + 1)] or [hits[half:].mean()]
    return float(hits.mean()), float(min(mins))


def stationary_norm_moment(model: SpectrumModel, n: int) -> float:
    """Closed-form stationary E||V||_{X^m}^{2n} for n in {1, 2}.

    n=1: S2 = sum_k |k|^{2m} Tr energy(k) over all sites.
    n=2: S2^2 + 2 sum_k |k|^{4m} Tr(energy(k)^2), from the chi-square
    structure of independent circular Gaussian conjugate pairs.
    Each site sum is twice the sum over the pair rows; past the float range the moment is inf.
    """
    w = model.sobolev_weight(model.m)
    tr = np.real(np.trace(model.energy, axis1=1, axis2=2))
    s2 = 2.0 * float((w * tr).sum())
    if n == 1:
        return s2
    if n == 2:
        tr_sq = np.real(np.trace(np.einsum("kij,kjl->kil", model.energy,
                                           model.energy), axis1=1, axis2=2))
        try:
            return s2 ** 2 + 4.0 * float((w ** 2 * tr_sq).sum())
        except OverflowError:
            return math.inf
    raise ValueError("closed form implemented for n in {1, 2} only")


@dataclass
class MomentScan:
    times: np.ndarray
    ensemble_means: np.ndarray
    max_value: float
    settled_max: float
    stationary_value: float | None


def moment_scan(model: SpectrumModel, R: float, n: int, T: float,
                ensemble: int, seed: int, grid_dt: float = MOMENT_GRID_DT) -> MomentScan:
    """Ensemble mean of ||V(t)||_{X^m}^{2n} from a worst-case start of norm R.

    The start is a fixed random direction scaled to X^m norm R, shared by
    all members; the field is advanced by exact steps on the grid.  The
    full-grid max certifies finiteness, settled_max (max over t >= T/2) is
    the plateau to compare with the stationary closed form.  Chebyshev on
    these moments yields the tightness certificate.

    For norm observables these exact OU steps are an exact stand-in for the
    observation process: its advective factor is a pure phase per conjugate
    pair and the noise is circular, so the mode moduli follow the OU law.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if ensemble < 2:
        raise ValueError("ensemble must be >= 2")
    n_steps = int(round(T / grid_dt))
    if n_steps < 1:
        raise ValueError(f"horizon T={T} rounds to no grid step of {grid_dt}")
    rng = np.random.default_rng(seed)
    direction = sample_stationary(model, rng)
    nrm = sobolev_norm(model, direction, model.m)
    if R > 0.0 and nrm == 0.0:
        raise ValueError("cannot scale a zero direction to positive radius")
    start = direction * (R / nrm) if R > 0.0 and nrm > 0.0 else np.zeros_like(direction)
    cpos = np.tile(start[None], (ensemble, 1, 1))
    times = np.arange(n_steps + 1) * grid_dt
    means = np.empty(n_steps + 1)
    with np.errstate(over="ignore"):   # a moment past the float range reads inf
        means[0] = float((ens_norm_m(model, cpos) ** (2 * n)).mean())
        for i in range(1, n_steps + 1):
            cpos = ens_ou_step(model, cpos, grid_dt, rng)
            means[i] = float((ens_norm_m(model, cpos) ** (2 * n)).mean())
    settled = means[times >= T / 2.0]
    try:
        stat = stationary_norm_moment(model, n)
    except ValueError:
        stat = None
    return MomentScan(times=times, ensemble_means=means,
                      max_value=float(means.max()),
                      settled_max=float(settled.max()),
                      stationary_value=stat)


@dataclass
class StabilityReport:
    probability: float
    stderr: float
    eps: float
    horizon: float
    norm_sq_mean: float     # ensemble mean of ||Z_T||^2_{X^m}
    norm_sq_closed: float   # its closed form
    z: float                # (norm_sq_mean - norm_sq_closed) / standard error


def stability_probe(model: SpectrumModel, eps: float, T: float, ensemble: int,
                    seed: int, dt: float = 1e-3) -> StabilityReport:
    """Fraction of noisy runs from the zero field staying eps-close in X^m to
    the noiseless flow from the zero field at T.  That flow stays zero, so the
    distance is ||Z_T||; its mean square is compared with the closed form
    E||Z_T||^2 = sum_k |k|^{2m} Tr E(k) (1 - e^{-2 gamma(k) T}) of the
    splitting step (the phase has modulus e^{-gamma dt}, the noise is circular)."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    rng = np.random.default_rng(seed)
    x = y = zero_field(model)
    n_steps = int(round(T / dt))
    for _ in range(n_steps):
        y = noiseless_flow_step(model, y, dt)
    cpos = ens_tile(x, ensemble)
    scale = model.noise_scale(dt)
    for _ in range(n_steps):
        noise = ens_pair_noise(model, rng, scale, ensemble)
        ens_observation_step(model, cpos, dt, noise, out=cpos)
    dist = ens_norm_m(model, cpos - y)
    hits = (dist < eps).astype(float)
    p = float(hits.mean())
    horizon, sq = n_steps * dt, dist ** 2
    trace = np.real(np.trace(model.energy, axis1=1, axis2=2))
    # the sum over all sites is twice the sum over the pair rows
    closed = 2.0 * float((model.sobolev_weight(model.m) * trace
                          * -np.expm1(-2.0 * model.gamma * horizon)).sum())
    with np.errstate(over="ignore", invalid="ignore"):
        mean, se = float(sq.mean()), float(sq.std(ddof=1) / math.sqrt(ensemble))
    if not (math.isfinite(mean) and math.isfinite(se)):
        raise NumericalFailure(f"stability_probe: the mean square distance {mean} "
                               f"or its standard error {se} is not finite")
    # no spread means no noise, and then Z_T = 0 = the closed form
    z = (mean - closed) / se if se > 0.0 else 0.0
    return StabilityReport(probability=p,
                           stderr=float(hits.std(ddof=1) / math.sqrt(ensemble)),
                           eps=float(eps), horizon=horizon,
                           norm_sq_mean=mean, norm_sq_closed=closed, z=z)


@dataclass
class CouplingReport:
    offsets: np.ndarray
    profile: np.ndarray       # D(h) per offset
    stderr: np.ndarray        # ensemble stderr at the maximizing time
    t_argmax: np.ndarray      # the maximizing record time (0: the start)
    horizon: float


def e_property_probe(model: SpectrumModel, offsets, psi: ObservableSpec,
                     T: float, ensemble: int, seed: int, dt: float = 1e-3,
                     record_stride: int = 10) -> CouplingReport:
    """Shared-noise coupling estimate of sup_t |P_t psi(0) - P_t psi(h v)|.

    For each offset h the probe runs coupled members (identical noise within
    a pair, independent across pairs) from the zero field 0 and from h v
    along a fixed unit direction v, and reports D(h) = max over recorded
    times of the absolute difference of the ensemble means, and the first
    record time t_argmax that reaches it.  h = 0 gives exactly zero.  This is
    a diagnostic upper-bound estimator for the equicontinuity modulus, not a
    proof reproduction.
    """
    rng = np.random.default_rng(seed)
    x = zero_field(model)
    direction = _unit_direction(model, rng)
    n_steps = int(round(T / dt))
    scale = model.noise_scale(dt)
    offsets = np.asarray(list(offsets), dtype=float)
    if np.any(offsets < 0.0) or np.any(np.diff(offsets) > 0.0):
        raise ValueError("offsets must be nonnegative and sorted decreasing")

    profile, stderrs, t_argmax = np.empty((3, offsets.size))
    for oi, h in enumerate(offsets):
        pair_rng = np.random.default_rng(derive_seed(seed, oi + 1))
        a = ens_tile(x, ensemble)
        b = ens_tile(x + h * direction, ensemble)
        diff0 = psi.on_stacked(model, b) - psi.on_stacked(model, a)
        best_gap = abs(float(diff0.mean()))
        best_se = float(diff0.std(ddof=1) / math.sqrt(ensemble))
        best_t = 0.0
        for step in range(1, n_steps + 1):
            noise = ens_pair_noise(model, pair_rng, scale, ensemble)
            ens_observation_step(model, a, dt, noise, out=a)
            ens_observation_step(model, b, dt, noise, out=b)
            if step % record_stride and step != n_steps:
                continue
            diff = psi.on_stacked(model, b) - psi.on_stacked(model, a)
            gap = abs(float(diff.mean()))
            if gap > best_gap:
                best_gap = gap
                best_se = float(diff.std(ddof=1) / math.sqrt(ensemble))
                best_t = step * dt
        profile[oi], stderrs[oi], t_argmax[oi] = best_gap, best_se, best_t
    return CouplingReport(offsets=offsets, profile=profile, stderr=stderrs,
                          t_argmax=t_argmax, horizon=n_steps * dt)


@dataclass
class LLNReport:
    horizons: np.ndarray
    variances: np.ndarray


def lln_test(model: SpectrumModel, psi: ObservableSpec, horizons, ensemble: int,
             seed: int, dt: float = 1e-2, record_every: int = 1,
             threads: int = 1) -> LLNReport:
    """Ensemble variance of the time average of psi at nested horizons.

    One ensemble is run to the largest horizon, on threads processes; shorter
    horizons reuse the same realisations (same seeds, nested in time), so the
    variances differ by the averaging window alone.  The reported horizons
    are the record times where the windows end.
    """
    horizons = np.asarray(sorted(horizons), dtype=float)
    if horizons.size < 2:
        raise ValueError("need at least two horizons")
    from ._ensemble import run_trajectory_ensemble
    records = run_trajectory_ensemble(model, float(horizons[-1]), dt,
                                      record_every, seed, ensemble, threads)
    times = records[0].times   # every run records at the same times
    series = [psi.series(rec) for rec in records]
    variances = np.empty(horizons.size)
    for i, T in enumerate(horizons):
        j = records[0].index_at(T) + 1
        horizons[i] = times[j - 1]
        vals = np.asarray([_trapezoid_mean(s[:j], times[:j]) for s in series],
                          dtype=float)
        variances[i] = float(vals.var(ddof=1))
    return LLNReport(horizons=horizons, variances=variances)
