import math

import numpy as np
import pytest

from tracerflow import (NumericalFailure, ObservableSpec, TrajectoryRecord,
                        build_power_law_spectrum, e_property_probe, lln_test,
                        moment_scan, occupation_fraction, run_lagrangian,
                        run_trajectory_ensemble, stability_probe,
                        stationary_norm_moment, zero_field)
from tracerflow.ergodic import (_trapezoid_mean, _unit_direction,
                                time_average_with_stderr)
from tracerflow.field import _phase_factor, ens_norm_m, ens_pair_noise, ens_tile
from conftest import zero_energy_model

TANH_NORM = ObservableSpec("bounded_lipschitz_of_norm")


def lipschitz_of_tanh_sq() -> float:
    s = np.linspace(0.0, 3.0, 20001)
    return float((2 * s / np.cosh(s ** 2) ** 2).max())


# ---------------------------------------------------------------- averages

def test_time_average_of_constant_indicator(small_model):
    rec = run_lagrangian(small_model, T=1.0, dt=0.01, record_every=5, seed=0)
    one = ObservableSpec("indicator_ball", delta=1e9)
    assert _trapezoid_mean(one.series(rec), rec.times) == pytest.approx(1.0, abs=0)


def test_time_average_dead_field_is_zero():
    rec = run_lagrangian(zero_energy_model(), T=1.0, dt=0.01, record_every=5,
                         seed=1)
    assert _trapezoid_mean(TANH_NORM.series(rec), rec.times) == 0.0


def test_long_runs_agree_from_independent_starts(small_model):
    # start-independence of the time average, checked between two seeds
    a = run_lagrangian(small_model, T=500.0, dt=0.01, record_every=10, seed=3)
    b = run_lagrangian(small_model, T=500.0, dt=0.01, record_every=10, seed=44)
    ma, sa = time_average_with_stderr(a, TANH_NORM)
    mb, sb = time_average_with_stderr(b, TANH_NORM)
    assert abs(ma - mb) <= 4.0 * math.hypot(sa, sb)


# ---------------------------------------------------------------- occupation

def test_occupation_saturates_for_large_radius(small_model):
    rec = run_lagrangian(small_model, T=2.0, dt=0.01, record_every=2, seed=4)
    assert occupation_fraction(rec, delta=1e9) == (1.0, 1.0)


def test_occupation_full_for_dead_field_at_origin():
    rec = run_lagrangian(zero_energy_model(), T=1.0, dt=0.01, record_every=2,
                         seed=5)
    fraction, _ = occupation_fraction(rec, delta=1e-6)
    assert fraction == 1.0


def test_occupation_above_half_at_twice_median_norm(small_model):
    rec = run_lagrangian(small_model, T=200.0, dt=0.02, record_every=5, seed=6)
    delta = 2.0 * float(np.median(rec.field_norms))
    fraction, window_min = occupation_fraction(rec, delta)
    assert fraction > 0.5
    assert window_min > 0.0
    assert 0.0 <= fraction <= 1.0


def test_occupation_requires_positive_radius(small_model):
    rec = run_lagrangian(small_model, T=0.5, dt=0.01, record_every=5, seed=7)
    with pytest.raises(ValueError):
        occupation_fraction(rec, 0.0)


# ---------------------------------------------------------------- moments

def test_moment_scan_zero_field_zero_radius():
    m = zero_energy_model()
    scan = moment_scan(m, R=0.0, n=1, T=2.0, ensemble=10, seed=10)
    assert scan.max_value == 0.0


def test_moment_scan_rejects_horizon_without_grid_step(small_model):
    with pytest.raises(ValueError, match="T=0.04"):
        moment_scan(small_model, R=1.0, n=1, T=0.04, ensemble=4, seed=1)


def test_stationary_moment_closed_form_matches_sampling(default_model):
    m = default_model
    draws = ens_pair_noise(m, np.random.default_rng(11), None, 40000)
    norms_sq = ens_norm_m(m, draws) ** 2
    s2 = stationary_norm_moment(m, 1)
    s4 = stationary_norm_moment(m, 2)
    assert abs(norms_sq.mean() - s2) / s2 < 0.03
    assert abs((norms_sq ** 2).mean() - s4) / s4 < 0.05


def test_moment_scan_settles_at_stationary_level(default_model):
    scan = moment_scan(default_model, R=math.sqrt(stationary_norm_moment(default_model, 1)),
                       n=1, T=50.0, ensemble=500, seed=12, grid_dt=0.5)
    assert abs(scan.settled_max - scan.stationary_value) / scan.stationary_value < 0.2


def test_moment_scan_decays_monotonically_from_large_start(default_model):
    scan = moment_scan(default_model, R=10.0, n=1, T=6.0, ensemble=500,
                       seed=13, grid_dt=0.2)
    means = scan.ensemble_means
    assert all(means[i + 1] <= means[i] * 1.10 + 0.2 for i in range(means.size - 1))
    assert scan.max_value == pytest.approx(100.0, rel=1e-9)  # R^2 at t=0


def test_moment_closed_form_limited_to_low_orders(default_model):
    with pytest.raises(ValueError):
        stationary_norm_moment(default_model, 3)


@pytest.mark.filterwarnings("error")
def test_moments_past_the_float_range_are_inf_and_fail_the_stability_probe():
    # E||V||^4 ~ 1e320 has no float; the probe's squared distances overflow in
    # the standard error, which must not read as z = 0, a perfect match
    m = build_power_law_spectrum(2, 2, 1e160, 14.0, "incompressible", 1.0, 2.0)
    assert math.isfinite(stationary_norm_moment(m, 1))
    assert stationary_norm_moment(m, 2) == math.inf
    with pytest.raises(NumericalFailure, match="stability_probe"):
        stability_probe(m, eps=1.0, T=0.2, ensemble=4, seed=3, dt=0.05)


# ---------------------------------------------------------------- stability

def test_stability_certain_without_noise():
    m = zero_energy_model()
    rep = stability_probe(m, eps=1e-9, T=0.5, ensemble=16, seed=14,
                          dt=1e-2)
    assert rep.probability == 1.0
    # no spread: the z-score is 0, not the NaN of 0/0
    assert (rep.norm_sq_mean, rep.norm_sq_closed, rep.z) == (0.0, 0.0, 0.0)


def test_stability_certain_for_huge_tolerance(small_model):
    rep = stability_probe(small_model, eps=1e9, T=0.2, ensemble=16,
                          seed=15, dt=1e-2)
    assert rep.probability == 1.0


def test_stability_high_within_noise_ball(default_model):
    eps = 3.0 * math.sqrt(stationary_norm_moment(default_model, 1))
    rep = stability_probe(default_model, eps, T=1.0, ensemble=200,
                          seed=16, dt=1e-3)
    assert rep.probability > 0.9


# ---------------------------------------------------------------- coupling

def test_coupling_gap_vanishes_at_zero_offset(small_model):
    rep = e_property_probe(small_model, [0.5, 0.0], TANH_NORM, T=0.3,
                           ensemble=40, seed=17, dt=1e-2, record_stride=5)
    assert rep.profile[-1] == 0.0
    assert rep.t_argmax[-1] == 0.0   # the sup is the start offset


def test_coupling_gap_bounded_by_lipschitz_offset():
    # without noise the coupled pair contracts deterministically, so the gap
    # is at most the observable's Lipschitz constant times the offset
    m = zero_energy_model(gammas={(1, 0): 1.0, (0, 1): 1.0, (1, 1): 2.0})
    lip = lipschitz_of_tanh_sq()
    rep = e_property_probe(m, [1.0, 0.5], TANH_NORM, T=1.0,
                           ensemble=4, seed=18, dt=1e-2, record_stride=10)
    for h, gap in zip(rep.offsets, rep.profile):
        assert gap <= 1.1 * lip * h


def test_coupling_profile_monotone_within_noise(small_model):
    rep = e_property_probe(small_model, [1.0, 0.5, 0.25], TANH_NORM,
                           T=0.5, ensemble=60, seed=19, dt=2e-3,
                           record_stride=10)
    for i in range(rep.offsets.size - 1):
        noise = 3.0 * math.hypot(rep.stderr[i], rep.stderr[i + 1])
        assert rep.profile[i + 1] <= rep.profile[i] + noise


# ---------------------------------------------------------------- lln

def test_lln_variance_zero_for_constant_observable(small_model):
    one = ObservableSpec("indicator_ball", delta=1e9)
    rep = lln_test(small_model, one, horizons=[0.5, 1.0], ensemble=6, seed=20,
                   dt=0.01, record_every=5)
    np.testing.assert_array_equal(rep.variances, np.zeros(2))


def test_lln_variance_decays_with_horizon(small_model):
    psi = ObservableSpec("velocity_at_origin", component=0)
    rep = lln_test(small_model, psi, horizons=[10.0, 40.0], ensemble=40,
                   seed=21, dt=0.02, record_every=2)
    assert rep.variances[1] <= 0.8 * rep.variances[0]


def _lln_variances_by_record_rebuild(model, psi, horizons, ensemble, seed, dt,
                                     record_every):
    """Reference: one validated sub-record per run per horizon, averaged by
    the trapezoid rule over its own times."""
    horizons = np.asarray(sorted(horizons), dtype=float)
    records = run_trajectory_ensemble(model, float(horizons[-1]), dt,
                                      record_every, seed, ensemble)
    variances = np.empty(horizons.size)
    for i, T in enumerate(horizons):
        vals = []
        for rec in records:
            j = rec.index_at(T)
            sub = TrajectoryRecord(times=rec.times[:j + 1],
                                   positions=rec.positions[:j + 1],
                                   displacements=rec.displacements[:j + 1],
                                   velocities=rec.velocities[:j + 1],
                                   field_norms=rec.field_norms[:j + 1],
                                   seed=rec.seed, dt=rec.dt)
            span = sub.times[-1] - sub.times[0]
            vals.append(np.trapezoid(psi.series(sub), sub.times, axis=0) / span)
        vals = np.asarray(vals, dtype=float)
        variances[i] = float(vals.var(ddof=1))
    return variances


@pytest.mark.parametrize("psi", [
    TANH_NORM,
    ObservableSpec("velocity_at_origin"),
    ObservableSpec("velocity_at_origin", component=1),
    ObservableSpec("indicator_ball", delta=2.0),
], ids=["tanh_norm", "velocity", "velocity_1", "indicator_ball"])
def test_lln_prefix_slices_are_the_record_rebuild_byte_for_byte(small_model, psi):
    args = dict(horizons=[0.3, 0.6, 1.0], ensemble=5, seed=25, dt=0.02,
                record_every=3)
    rep = lln_test(small_model, psi, **args)
    want = _lln_variances_by_record_rebuild(small_model, psi, **args)
    assert rep.variances.tobytes() == want.tobytes()
    assert np.all(want > 0.0)


def test_lln_requires_two_horizons(small_model):
    with pytest.raises(ValueError):
        lln_test(small_model, TANH_NORM, horizons=[1.0], ensemble=4, seed=22, dt=0.01)


# ---------------------------------------------------------------- observables

def test_observable_validation():
    with pytest.raises(ValueError):
        ObservableSpec("nonsense")
    with pytest.raises(ValueError):
        ObservableSpec("indicator_ball")          # needs delta
    with pytest.raises(ValueError):
        ObservableSpec("indicator_ball", delta=0.0)


def test_indicator_observable_on_record(small_model):
    rec = run_lagrangian(small_model, T=0.5, dt=0.01, record_every=5, seed=23)
    ind = ObservableSpec("indicator_ball", delta=float(np.median(rec.field_norms)))
    series = ind.series(rec)
    assert set(np.unique(series)).issubset({0.0, 1.0})


def test_run_summary_bundles_diagnostics(small_model):
    from tracerflow import ErgodicReport, summarize_run
    rec = run_lagrangian(small_model, T=1.0, dt=0.01, record_every=5, seed=24)
    rep = summarize_run(rec, TANH_NORM)
    assert rep.horizon == pytest.approx(1.0)
    assert 0.0 <= rep.occupation_fraction <= 1.0
    assert rep.window_min <= rep.occupation_fraction + 1e-12
    assert rep.delta == pytest.approx(2.0 * float(np.median(rec.field_norms)))
    with pytest.raises(ValueError):
        ErgodicReport(1.0, 0.0, 0.0, 1.5, 0.0, 1.0)


def test_coupling_offsets_must_decrease(small_model):
    with pytest.raises(ValueError):
        e_property_probe(small_model, [0.25, 0.5], TANH_NORM, T=0.1,
                         ensemble=4, seed=25, dt=0.01)


# ------------------------------------------- in-place probes vs the old loops

def _allocating_observation_step(model, cpos, dt, noise):
    """The stacked observation step as it was written before it could step
    in place: a fresh array per call, one broadcast multiply."""
    u = 2.0 * cpos.real.sum(axis=-2)
    phase = (u @ model.wavevectors.T) * dt
    out = cpos * _phase_factor(phase, model.decay(dt))[:, :, None]
    out += noise
    return out


def _allocating_stability(model, eps, T, ensemble, seed, dt):
    rng = np.random.default_rng(seed)
    x = zero_field(model)
    n_steps = int(round(T / dt))
    cpos = ens_tile(x, ensemble)
    for _ in range(n_steps):
        noise = ens_pair_noise(model, rng, model.noise_scale(dt), ensemble)
        cpos = _allocating_observation_step(model, cpos, dt, noise)
    dist = ens_norm_m(model, cpos)   # the noiseless flow stays at the zero field
    hits = (dist < eps).astype(float)
    return hits.mean(), hits.std(ddof=1) / math.sqrt(ensemble), dist


def _allocating_coupling(model, offsets, psi, T, ensemble, seed, dt, stride):
    rng = np.random.default_rng(seed)
    direction = _unit_direction(model, rng)
    n_steps = int(round(T / dt))
    profile, stderrs = [], []
    for oi, h in enumerate(offsets):
        pair_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(oi,)))
        a = ens_tile(zero_field(model), ensemble)
        b = ens_tile(h * direction, ensemble)
        diff0 = psi.on_stacked(model, b) - psi.on_stacked(model, a)
        best_gap = abs(float(diff0.mean()))
        best_se = float(diff0.std(ddof=1) / math.sqrt(ensemble))
        for step in range(1, n_steps + 1):
            noise = ens_pair_noise(model, pair_rng, model.noise_scale(dt), ensemble)
            a = _allocating_observation_step(model, a, dt, noise)
            b = _allocating_observation_step(model, b, dt, noise)
            if step % stride and step != n_steps:
                continue
            diff = psi.on_stacked(model, b) - psi.on_stacked(model, a)
            gap = abs(float(diff.mean()))
            if gap > best_gap:
                best_gap = gap
                best_se = float(diff.std(ddof=1) / math.sqrt(ensemble))
        profile.append(best_gap)
        stderrs.append(best_se)
    return np.array(profile), np.array(stderrs)


@pytest.mark.parametrize("d, K", [(2, 4), (3, 2)])
def test_probes_are_the_allocating_loops_byte_for_byte(d, K):
    m = build_power_law_spectrum(d, K, 1.0, 14.0, "incompressible", 1.0, 2.0)
    T, dt, n = 0.3, 0.01, 60
    _, _, dist = _allocating_stability(m, 1.0, T, n, 31, dt)
    eps = float(np.median(dist))   # half the members inside, so drift moves some across
    p, se, _ = _allocating_stability(m, eps, T, n, 31, dt)
    rep = stability_probe(m, eps, T=T, ensemble=n, seed=31, dt=dt)
    assert (rep.probability, rep.stderr) == (p, se)
    # the velocity gap peaks at t = 0 here; the ball, which holds both starts,
    # has its gap later, so the profile depends on the steps
    ball = ObservableSpec("indicator_ball",
                          delta=0.5 * math.sqrt(stationary_norm_moment(m, 1)))
    offsets = [1.0, 0.3, 0.0]
    for psi in (ObservableSpec("velocity_at_origin", component=1), ball):
        profile, stderr = _allocating_coupling(m, offsets, psi, T, n, 32, dt, 5)
        coup = e_property_probe(m, offsets, psi, T=T, ensemble=n, seed=32,
                                dt=dt, record_stride=5)
        assert coup.profile.tobytes() == profile.tobytes()
        assert coup.stderr.tobytes() == stderr.tobytes()


def test_probes_report_the_horizon_they_simulate(small_model):
    # T = 0.2 at dt = 0.03 rounds to 7 steps, i.e. t = 0.21
    rep = stability_probe(small_model, 1e9, T=0.2, ensemble=4, seed=33, dt=0.03)
    coup = e_property_probe(small_model, [0.5], TANH_NORM, T=0.2,
                            ensemble=4, seed=34, dt=0.03)
    assert rep.horizon == coup.horizon == 7 * 0.03
