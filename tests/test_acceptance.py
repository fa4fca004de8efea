"""Acceptance suite: one test per release criterion, one printed verdict each.

The default model throughout: d=2, K=8, m=3, alpha=0.5, gamma(k)=|k|^2,
energy(k)=|k|^-14 P_incompressible(k), fixed seeds.  Statistical criteria pin
their ensemble sizes and tolerances here; nothing is left to later tuning.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.stats import ks_2samp

import tracerflow as tf
from tracerflow._ensemble import run_trajectory_ensemble
from tracerflow.chain import (kernel_power_closed_form, kernel_power_profile,
                              ladder_survival_limit, ladder_weights,
                              exact_distribution, simulate_paths)
from tracerflow.ergodic import ObservableSpec, e_property_probe, moment_scan
from tracerflow.field import (ens_norm_m, ens_observation_step, ens_pair_noise,
                              modulus_decay_report, origin_value, ou_covariance_report,
                              ou_exact_step, sample_stationary, sobolev_norm)
from tracerflow.tracer import displacement_identity_gap, run_lagrangian

from conftest import ACCEPTANCE_LINES

MASTER_SEED = 20260810


def verdict(number: int, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def model():
    return tf.build_power_law_spectrum(2, 8, 1.0, 14.0, "incompressible",
                                       1.0, 2.0)


@pytest.fixture(scope="module")
def model_k4():
    return tf.build_power_law_spectrum(2, 4, 1.0, 14.0, "incompressible",
                                       1.0, 2.0)


@pytest.fixture(scope="module")
def tracer_ensemble(model):
    """100 stationary tracer runs to T=200 at dt=0.02, shared by 4 and 5."""
    t0 = time.time()
    records = run_trajectory_ensemble(model, T=200.0, dt=0.02, record_every=1,
                                      master_seed=MASTER_SEED, n_runs=100,
                                      threads=2)
    return records, time.time() - t0


def test_criterion_1_attractor_decay(model):
    t0 = time.time()
    rep = modulus_decay_report(model, n_starts=20, horizon=5.0, dt=1e-3,
                               seed=MASTER_SEED)
    wall = time.time() - t0
    ok = (rep["max_rel_modulus_error"] < 1e-6
          and rep["max_norm_excess"] <= 1e-9 and wall < 10.0)
    verdict(1, ok, "per-mode decay tracks the exponential envelope "
            f"(max rel err {rep['max_rel_modulus_error']:.2e}, norm excess "
            f"{rep['max_norm_excess']:.2e}, {wall:.1f}s)")


def test_criterion_2_ou_covariance(model):
    t0 = time.time()
    rep = ou_covariance_report(model, ensemble=20000, lags=(0.1, 0.5, 1.0),
                               seed=MASTER_SEED + 1)
    wall = time.time() - t0
    worst_lag = max(rep["max_lag_corr_abs_err"].values())
    ok = (rep["max_eqtime_frobenius_rel"] < 0.05 and worst_lag < 0.05
          and wall < 60.0)
    verdict(2, ok, "stationary mode covariances match the closed form "
            f"(eq-time Frobenius rel {rep['max_eqtime_frobenius_rel']:.3f}, "
            f"worst lag corr dev {worst_lag:.3f}, {wall:.1f}s)")


def test_criterion_3_equality_in_law(model_k4):
    m = model_k4
    # pathwise: the recentred-field norms recorded along a tracer run equal
    # the raw Eulerian norms reproduced from the same stream
    rec = run_lagrangian(m, T=2.0, dt=0.01, record_every=4, seed=MASTER_SEED + 2)
    rng = np.random.default_rng(MASTER_SEED + 2)
    f = sample_stationary(m, rng)
    replay = [sobolev_norm(m, f)]
    for step in range(1, 201):
        f = ou_exact_step(m, f, 0.005, rng)
        f = ou_exact_step(m, f, 0.005, rng)
        if step % 4 == 0 or step == 200:
            replay.append(sobolev_norm(m, f))
    pathwise = float(np.abs(rec.field_norms - np.asarray(replay)).max() /
                     np.abs(replay).max())

    # distributional: splitting-scheme norms at t=1 against exact
    # Ornstein-Uhlenbeck norms, both from the zero field
    n, dt = 2000, 1e-3
    rng_z = np.random.default_rng(MASTER_SEED + 3)
    cz = np.zeros((n, m.n_pairs, 2), dtype=complex)
    scale = m.noise_scale(dt)
    for _ in range(1000):
        noise = ens_pair_noise(m, rng_z, scale, n)
        cz = ens_observation_step(m, cz, dt, noise)
    zn = ens_norm_m(m, cz)
    rng_v = np.random.default_rng(MASTER_SEED + 4)
    cv = ens_pair_noise(m, rng_v, m.noise_scale(1.0), n)
    vn = ens_norm_m(m, cv)
    p = float(ks_2samp(zn, vn).pvalue)
    tz, tv = np.tanh(zn ** 2), np.tanh(vn ** 2)
    sigma = math.hypot(tz.std(ddof=1) / math.sqrt(n), tv.std(ddof=1) / math.sqrt(n))
    mean_gap = abs(float(tz.mean() - tv.mean()))
    ok = pathwise <= 1e-12 and p > 0.01 and mean_gap < 3 * sigma
    verdict(3, ok, "observation process equals the recentred field in law "
            f"(pathwise norm gap {pathwise:.1e}, KS p {p:.3f}, "
            f"mean gap {mean_gap:.4f} vs 3se {3 * sigma:.4f})")


def test_criterion_4_displacement_identity(tracer_ensemble):
    records, _ = tracer_ensemble
    worst = 0.0
    for rec in records:
        gap = displacement_identity_gap(rec)
        bound = 5.0 * rec.dt ** 2 * rec.times[-1] * float(np.abs(rec.velocities).max())
        worst = max(worst, gap / bound)
    verdict(4, worst < 1.0, "trapezoid velocity integral reproduces the "
            f"displacement on all 100 runs (worst gap/bound {worst:.3f})")


def test_criterion_5_lln_stokes_drift(tracer_ensemble):
    records, wall = tracer_ensemble
    i50 = records[0].index_at(50.0)
    x200 = np.stack([r.displacements[-1] / 200.0 for r in records])
    x50 = np.stack([r.displacements[i50] / 50.0 for r in records])
    mean = x200.mean(axis=0)
    stderr = x200.std(axis=0, ddof=1) / math.sqrt(len(records))
    null_ok = bool(np.all(np.abs(mean) < 3.0 * stderr))
    ratio = float(x200.var(axis=0, ddof=1).sum() / x50.var(axis=0, ddof=1).sum())
    ok = null_ok and ratio <= 0.6 and wall < 600.0
    verdict(5, ok, "drift vanishes for the divergence-free field and the "
            f"average variance decays (mean {mean.round(5).tolist()}, "
            f"3*stderr {(3 * stderr).round(5).tolist()}, var ratio {ratio:.3f}, "
            f"{wall:.0f}s)")


def test_lagrangian_velocity_has_the_eulerian_one_point_law(model, tracer_ensemble):
    """The velocity seen by a tracer in a stationary divergence-free field is
    stationary with the Eulerian one-point law, so its mean square is
    E|V(x)|^2 = sum over the lattice of Tr energy(k).  A tracer moved by -V
    passes too: -V has the law of V."""
    records, _ = tracer_ensemble
    i5 = records[0].index_at(5.0)
    per_run = np.array([(r.velocities[i5:] ** 2).sum(axis=1).mean() for r in records])
    stderr = per_run.std(ddof=1) / math.sqrt(per_run.size)
    z = (per_run.mean() - 2.0 * model.trace.sum()) / stderr
    assert abs(z) <= 4.0, (per_run.mean(), stderr, z)


def _autocorrelation(v, dt, lags):
    """Per-run time averages of v(t).v(t + tau), one row per lag tau, from
    velocities v of shape (runs, times, d) recorded every dt."""
    n = v.shape[1]
    return np.array([(v[:, :n - s] * v[:, s:]).sum(axis=2).mean(axis=1)
                     for s in (round(tau / dt) for tau in lags)])


def test_lagrangian_velocity_decorrelates_faster_than_the_eulerian(model, tracer_ensemble):
    """The Lagrangian lag-1 correlation R_L(1), the time average of
    v(t).v(t + 1) along a run, lies well below the Eulerian R_E(1) =
    sum over the lattice of e^{-gamma(k)} Tr energy(k): a tracer that never
    moved would read R_E.  A tracer moved by -V passes too, as -V has the law
    of V."""
    records, _ = tracer_ensemble
    (per_run,) = _autocorrelation(np.stack([r.velocities for r in records]),
                                  records[0].dt, [1.0])
    stderr = per_run.std(ddof=1) / math.sqrt(per_run.size)
    eulerian = 2.0 * float((np.exp(-model.gamma) * model.trace).sum())
    assert per_run.mean() < eulerian - 6.0 * stderr, (per_run.mean(), stderr, eulerian)


def test_tracers_and_the_splitting_step_give_one_lagrangian_autocorrelation(
        model, tracer_ensemble):
    """The Lagrangian autocorrelation R_L(tau), built two ways, agrees within
    4 standard errors at every lag: from the RK4 tracers through the exact OU
    field (the fixture), and from 64 members of the splitting step for the
    field seen from the tracer (ens_observation_step), started from a
    stationary draw and run to T = 40 at the fixture's dt.  Criterion 3
    compares norms, which see the OU law alone; R_L sees the advection, as
    R_L(1) lies well below the Eulerian R_E(1).  A tracer moved by -V passes
    too: -V has the law of V, and only a pathwise check such as criterion 4
    sees the sign."""
    lags = (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0)
    records, _ = tracer_ensemble
    dt = records[0].dt
    tracer = _autocorrelation(np.stack([r.velocities for r in records]), dt, lags)
    rng = np.random.default_rng(MASTER_SEED + 20)
    n, n_steps, scale = 64, round(40.0 / dt), model.noise_scale(dt)
    c = ens_pair_noise(model, rng, None, n)
    u = np.empty((n_steps + 1, n, model.dimension))
    u[0] = origin_value(c)
    for step in range(1, n_steps + 1):
        ens_observation_step(model, c, dt, ens_pair_noise(model, rng, scale, n), out=c)
        u[step] = origin_value(c)
    split = _autocorrelation(u.swapaxes(0, 1), dt, lags)
    stderr = np.hypot(*(r.std(axis=1, ddof=1) / math.sqrt(r.shape[1])
                        for r in (tracer, split)))
    z = (split.mean(axis=1) - tracer.mean(axis=1)) / stderr
    assert np.abs(z).max() <= 4.0, (tracer.mean(axis=1), split.mean(axis=1), z)


def test_criterion_6_coupling_equicontinuity(model):
    psi = ObservableSpec("bounded_lipschitz_of_norm")
    rep = e_property_probe(model, [1.0, 0.5, 0.25, 0.125, 0.0], psi,
                           T=0.75, ensemble=150, seed=MASTER_SEED + 5,
                           dt=1e-3, record_stride=5)
    d = rep.profile
    zero_ok = d[-1] == 0.0
    mono_ok = True
    for i in range(3):
        noise = 3.0 * math.hypot(rep.stderr[i], rep.stderr[i + 1])
        mono_ok &= d[i + 1] <= d[i] + noise
    verdict(6, zero_ok and mono_ok, "shared-noise coupling gap is zero at "
            f"zero offset and shrinks with the offset (profile "
            f"{[float(f'{v:.4g}') for v in d]})")


def test_criterion_7_moment_bounds(model):
    details = []
    ok = True
    for R in (1.0, 10.0):
        for n in (1, 2):
            scan = moment_scan(model, R=R, n=n, T=6.0,
                               ensemble=1500 if n == 1 else 3000,
                               seed=MASTER_SEED + 6 + int(R) + n, grid_dt=0.1)
            rel = abs(scan.settled_max - scan.stationary_value) / scan.stationary_value
            ok &= math.isfinite(scan.max_value) and rel < 0.2
            details.append(f"R={R:g},n={n}: rel {rel:.3f}")
    verdict(7, ok, "norm moments stay finite and settle at the stationary "
            f"level ({'; '.join(details)})")


def test_criterion_8_counterexample_chain():
    t0 = time.time()
    f = math.tanh
    # (a) the exit weights and the survival weight partition the mass
    tele = max(abs(ladder_weights(x, n)[1].sum() + ladder_weights(x, n)[0][n] - 1.0)
               for x in (1.0, 1.5, 2.0) for n in range(41))
    # (b) ladder closed form against the exact tree before re-entry
    closed_dev = 0.0
    for x in (1.0, 1.5, 2.0, 3.5):
        n = 1
        while x + n - 1 < 5:
            closed_dev = max(closed_dev, abs(kernel_power_closed_form(x, n, f)
                                             - kernel_power_profile(x, n, f)[n]))
            n += 1
    # (c) Monte-Carlo versus the exact tree
    finals, _, _ = simulate_paths(1.0, 20, 100_000, seed=MASTER_SEED + 10)
    vals = np.tanh(finals)
    exact = kernel_power_profile(1.0, 20, f)[20]
    mc_sigmas = abs(float(vals.mean()) - exact) / (vals.std(ddof=1) / math.sqrt(vals.size))
    # (d) never-jumped mass is the survival weight; the limit hits the
    # quoted decimal value
    never_dev = 0.0
    for x in (1.0, 1.5, 2.0):
        stay = ladder_weights(x, 40)[0]
        for n in (5, 17, 40):
            mass = dict(exact_distribution(x, n)).get(x + n, 0.0)
            never_dev = max(never_dev, abs(mass - stay[n]))
    survival_dev = abs(ladder_survival_limit(2.0) - 0.52470)
    # (e) the power-sup gap shrinks monotonically as the start approaches
    base = kernel_power_profile(1.5, 40, f)
    gaps = []
    for off in (0.1, 0.01, 0.001):
        prof = kernel_power_profile(1.5 + off, 40, f)
        gaps.append(float(np.abs(prof - base).max()))
    mono = all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    wall = time.time() - t0
    ok = (tele <= 1e-12 and closed_dev <= 1e-14 and mc_sigmas < 3.0
          and never_dev <= 1e-14 and survival_dev <= 1e-4 and mono
          and gaps[-1] < gaps[0] and wall < 60.0)
    verdict(8, ok, "counterexample chain evaluators agree "
            f"(telescope {tele:.1e}, closed-form dev {closed_dev:.1e}, "
            f"MC {mc_sigmas:.2f} sigma, survival mass dev {never_dev:.1e}, "
            f"limit dev {survival_dev:.1e}, gaps {gaps}, {wall:.0f}s)")


def test_criterion_9_reproducibility(tmp_path):
    cfg = {"spectrum": {"dimension": 2, "K": 4},
           "simulation": {"dt": 0.01, "T": 1.0, "ensemble": 8,
                          "record_every": 2, "seed": MASTER_SEED},
           "probe": {"offsets": [0.5, 0.25], "horizons": [0.5, 1.0],
                     "chain_n_max": 6, "mc_paths": 2000}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))

    def run(sub, name, threads):
        out = tmp_path / name
        res = subprocess.run([sys.executable, "-m", "tracerflow", sub,
                              "--config", str(cfg_path), "--out", str(out),
                              "--threads", str(threads)],
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        lines = out.read_text().splitlines()
        if lines and lines[0].startswith("{"):
            return lines[1:]
        return [ln for ln in lines if not ln.startswith("#")]

    same = True
    for sub, ext in (("tracer", "csv"), ("ergodic", "jsonl"), ("chain", "csv")):
        a = run(sub, f"{sub}_a.{ext}", 1)
        b = run(sub, f"{sub}_b.{ext}", 1)
        c = run(sub, f"{sub}_c.{ext}", 8)
        same &= a == b == c
    verdict(9, same, "byte-identical result bodies across reruns and "
            "worker counts for tracer, ergodic and chain outputs")
