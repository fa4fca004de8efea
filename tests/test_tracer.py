import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from tracerflow import (advect_step, build_power_law_spectrum, evaluate, run_lagrangian,
                        run_trajectory_ensemble, sample_stationary, shift_field,
                        sobolev_norm, stokes_drift_estimate)
from tracerflow.field import ou_exact_step
from tracerflow.tracer import (TrajectoryRecord, csv_columns,
                               displacement_identity_gap,
                               trajectory_csv_rows, wrap_torus)
from conftest import pair_field, pair_row, single_pair_model, zero_energy_model


def frozen_cosine_model(amplitude):
    """Noise-free, essentially undamped field V(xi) = (2a cos xi1, 0)."""
    m = single_pair_model(gamma=1e-12, energy=np.zeros((2, 2)))
    return m, pair_field(m, (1, 0), [amplitude, 0.0])


# ---------------------------------------------------------------- shift

def test_shift_by_zero_is_identity(small_model):
    f = sample_stationary(small_model, np.random.default_rng(0))
    g = shift_field(small_model, f, np.zeros(2))
    np.testing.assert_array_equal(f, g)


def test_shift_by_half_period_negates_unit_mode(small_model):
    f = pair_field(small_model, (1, 0), [0.4 + 0.1j, 0.2])
    g = shift_field(small_model, f, np.array([math.pi, 0.0]))
    i = pair_row(small_model, (1, 0))
    np.testing.assert_allclose(g[i], -f[i], atol=1e-15)


def test_shift_preserves_every_norm(small_model):
    rng = np.random.default_rng(1)
    for _ in range(50):
        f = sample_stationary(small_model, rng)
        a = rng.uniform(-10, 10, size=2)
        g = shift_field(small_model, f, a)
        n0, n1 = sobolev_norm(small_model, f), sobolev_norm(small_model, g)
        assert abs(n0 - n1) <= 1e-15 * max(n0, 1e-300) * 10


# ---------------------------------------------------------------- advection

def test_tracer_stationary_in_dead_field():
    m = zero_energy_model()
    x, f = np.zeros(2), np.zeros((m.n_pairs, 2), complex)
    rng = np.random.default_rng(0)
    for _ in range(100):
        delta, f = advect_step(x, m, f, 1e-2, rng)
        assert not np.any(delta)
        x = wrap_torus(x + delta)
    assert not np.any(f)


def test_frozen_field_matches_scalar_ode_oracle():
    a = 0.4
    m, frozen = frozen_cosine_model(a)
    x, f = np.zeros(2), frozen
    rng = np.random.default_rng(0)
    for _ in range(1000):
        delta, f = advect_step(x, m, f, 1e-3, rng)
        x = wrap_torus(x + delta)
    sol = solve_ivp(lambda t, y: [2 * a * math.cos(y[0])], (0.0, 1.0), [0.0],
                    rtol=1e-12, atol=1e-14)
    assert abs(x[0] - sol.y[0, -1]) < 1e-6
    assert abs(x[1]) < 1e-14


def test_frozen_field_step_halving_is_fourth_order():
    m, frozen = frozen_cosine_model(1.0)

    def run(dt, T=1.0):
        x, f = np.zeros(2), frozen
        rng = np.random.default_rng(0)
        for _ in range(int(round(T / dt))):
            delta, f = advect_step(x, m, f, dt, rng)
            x = wrap_torus(x + delta)
        return x[0]

    ref = run(1e-4)
    e1 = abs(run(0.05) - ref)
    e2 = abs(run(0.025) - ref)
    assert 8.0 < e1 / e2 < 32.0


# ---------------------------------------------------------------- full runs

def test_run_in_dead_field_records_zeros():
    m = zero_energy_model()
    rec = run_lagrangian(m, T=1.0, dt=0.01, record_every=10, seed=4)
    assert not np.any(rec.velocities)
    assert not np.any(rec.displacements)
    assert not np.any(rec.field_norms)


def rec_idx_run(m, T, dt, record_every, seed):
    """The record loop run_lagrangian once had: a list of record steps walked
    by a guarded index, and a closure that fills one record from the state."""
    rng = np.random.default_rng(seed)
    f = sample_stationary(m, rng)
    x, disp = np.zeros(m.dimension), np.zeros(m.dimension)
    n_steps = int(round(T / dt))
    rec_idx = list(range(0, n_steps + 1, record_every))
    if rec_idx[-1] != n_steps:
        rec_idx.append(n_steps)
    rows = []

    def record(step):
        rows.append((step * dt, x, disp, evaluate(m, f, x),
                     sobolev_norm(m, shift_field(m, f, x))))

    record(0)
    j = 1
    for step in range(1, n_steps + 1):
        half = ou_exact_step(m, f, dt / 2.0, rng)
        full = ou_exact_step(m, half, dt / 2.0, rng)
        k1 = evaluate(m, f, x)
        k2 = evaluate(m, half, wrap_torus(x + (0.5 * dt) * k1))
        k3 = evaluate(m, half, wrap_torus(x + (0.5 * dt) * k2))
        k4 = evaluate(m, full, wrap_torus(x + dt * k3))
        delta = (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        x, disp, f = wrap_torus(x + delta), disp + delta, full
        if j < len(rec_idx) and step == rec_idx[j]:
            record(step)
            j += 1
    return [np.array(col) for col in zip(*rows)]


@pytest.mark.parametrize("record_every", [1, 3, 7, 20, 25])
def test_record_grid_is_the_rec_idx_loop_byte_for_byte(small_model, record_every):
    # 3 and 7 leave a remainder, so the last step is appended; 25 > n_steps
    # records only steps 0 and 20
    rec = run_lagrangian(small_model, T=0.2, dt=0.01, record_every=record_every, seed=11)
    ref = rec_idx_run(small_model, 0.2, 0.01, record_every, 11)
    got = [rec.times, rec.positions, rec.displacements, rec.velocities, rec.field_norms]
    assert [a.tobytes() for a in got] == [b.tobytes() for b in ref]
    assert rec.times.size == 20 // record_every + 1 + bool(20 % record_every)


def test_whole_float_record_every_is_its_int(small_model):
    a = run_lagrangian(small_model, T=0.2, dt=0.01, record_every=3, seed=11)
    b = run_lagrangian(small_model, T=0.2, dt=0.01, record_every=3.0, seed=11)
    assert a.times.tobytes() == b.times.tobytes()
    assert a.positions.tobytes() == b.positions.tobytes()


def test_displacement_equals_velocity_integral(small_model):
    rec = run_lagrangian(small_model, T=50.0, dt=0.05, record_every=1, seed=5)
    gap = displacement_identity_gap(rec)
    bound = 5.0 * 0.05 ** 2 * 50.0 * float(np.abs(rec.velocities).max())
    assert gap < bound


def test_recorded_norm_equals_unshifted_field_norm(small_model):
    # the recentred field and the raw field share their norms pathwise; the
    # replay below reproduces the same field states from the same stream
    m = small_model
    T, dt, every, seed = 2.0, 0.01, 4, 6
    rec = run_lagrangian(m, T, dt, every, seed)
    rng = np.random.default_rng(seed)
    f = sample_stationary(m, rng)
    replay = [sobolev_norm(m, f)]
    n_steps = int(round(T / dt))
    for step in range(1, n_steps + 1):
        f = ou_exact_step(m, f, dt / 2, rng)
        f = ou_exact_step(m, f, dt / 2, rng)
        if step % every == 0 or step == n_steps:
            replay.append(sobolev_norm(m, f))
    np.testing.assert_allclose(rec.field_norms, replay, rtol=1e-12, atol=0)


def test_identical_seed_gives_bitwise_identical_record(small_model):
    a = run_lagrangian(small_model, T=0.5, dt=0.01, record_every=5, seed=7)
    b = run_lagrangian(small_model, T=0.5, dt=0.01, record_every=5, seed=7)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.displacements, b.displacements)
    assert np.array_equal(a.velocities, b.velocities)
    assert np.array_equal(a.field_norms, b.field_norms)


def test_position_is_displacement_mod_torus(small_model):
    rec = run_lagrangian(small_model, T=20.0, dt=0.02, record_every=10, seed=8)
    dev = np.abs(wrap_torus(rec.displacements) - rec.positions)
    dev = np.minimum(dev, 2 * math.pi - dev)
    assert dev.max() < 1e-9


# ---------------------------------------------------------------- estimates

def test_drift_estimate_zero_records():
    times = np.linspace(0.0, 1.0, 11)
    zeros = np.zeros((11, 2))
    recs = [TrajectoryRecord(times, zeros, zeros, zeros, np.zeros(11), seed=i,
                             dt=0.1) for i in range(3)]
    mean, stderr = stokes_drift_estimate(recs)
    np.testing.assert_array_equal(mean, np.zeros(2))
    np.testing.assert_array_equal(stderr, np.zeros(2))


def test_drift_estimate_rejects_mismatched_horizons():
    t1 = np.linspace(0.0, 1.0, 11)
    t2 = np.linspace(0.0, 2.0, 11)
    z = np.zeros((11, 2))
    recs = [TrajectoryRecord(t1, z, z, z, np.zeros(11), seed=0, dt=0.1),
            TrajectoryRecord(t2, z, z, z, np.zeros(11), seed=1, dt=0.2)]
    with pytest.raises(ValueError):
        stokes_drift_estimate(recs)


def test_csv_rows_match_column_layout(small_model):
    rec = run_lagrangian(small_model, T=0.1, dt=0.01, record_every=2, seed=10)
    cols = csv_columns(2)
    assert cols == ["run_id", "t", "x1", "x2", "disp1", "disp2", "v1", "v2", "norm"]
    rows = list(trajectory_csv_rows(3, rec))
    assert len(rows) == rec.times.size
    first = rows[0].split(",")
    assert len(first) == len(cols)
    assert first[0] == "3"
    assert float(first[1]) == rec.times[0]


def test_run_validates_arguments(small_model):
    with pytest.raises(ValueError):
        run_lagrangian(small_model, T=1.0, dt=0.0, record_every=1, seed=0)
    with pytest.raises(ValueError):
        run_lagrangian(small_model, T=0.5, dt=1.0, record_every=1, seed=0)
    with pytest.raises(ValueError):
        run_lagrangian(small_model, T=1.0, dt=0.1, record_every=0, seed=0)


def test_tracers_in_a_potential_field_see_less_than_the_eulerian_speed():
    """In a compressible (potential) field the Eulerian law is not invariant
    for the field seen from the tracer: tracers gather where the flow
    converges, and the speed there is low.  The statistic is the mean over
    32 runs of each run's trapezoid time average of |v|^2 over t in [5, 10];
    it lies more than 10 standard errors below the Eulerian E|V(x)|^2 = sum
    over the lattice of Tr energy(k) = 4.0316, which a divergence-free field
    gives.  A tracer that does not move sees the Eulerian law and fails; a
    tracer moved by -V passes, as -V has the law of V."""
    model = build_power_law_spectrum(2, 4, 1.0, 14.0, "potential", 1.0, 2.0)
    records = run_trajectory_ensemble(model, T=10.0, dt=0.02, record_every=1,
                                      master_seed=4242, n_runs=32, threads=2)
    i5 = records[0].index_at(5.0)
    per_run = np.array([np.trapezoid((r.velocities[i5:] ** 2).sum(axis=1), r.times[i5:])
                        / (r.times[-1] - r.times[i5]) for r in records])
    stderr = per_run.std(ddof=1) / math.sqrt(per_run.size)
    eulerian = 2.0 * float(model.trace.sum())
    z = (per_run.mean() - eulerian) / stderr
    assert z < -10.0, (per_run.mean(), stderr, eulerian, z)


def batched_time_average(values, times, n_batches=20):
    """Trapezoid time average of values over times, and its standard error
    from the averages over n_batches consecutive windows."""
    area = 0.5 * (values[1:] + values[:-1]) * np.diff(times)
    windows = np.array_split(np.arange(area.size), n_batches)
    batches = [area[w].sum() / (times[w[-1] + 1] - times[w[0]]) for w in windows]
    return area.sum() / (times[-1] - times[0]), np.std(batches, ddof=1) / math.sqrt(n_batches)


def test_two_long_tracer_runs_in_a_potential_field_give_one_time_average():
    """Weak-* mean ergodicity of the field seen from the tracer, where no
    closed form gives the limit: in a potential field the tracer's law of the
    environment is not the Eulerian one.  Two runs of T = 250 from seeds 3
    and 44 take the trapezoid time average of |v|^2 over t >= 5, with a
    20-batch standard error; the averages agree within |z| <= 4, and each
    lies more than 4 standard errors below the Eulerian E|V(x)|^2 = 4.0316.
    A tracer that does not move sees the Eulerian law and fails; a tracer
    moved by -V passes, as -V has the law of V."""
    model = build_power_law_spectrum(2, 4, 1.0, 14.0, "potential", 1.0, 2.0)
    eulerian = 2.0 * float(model.trace.sum())
    averages = []
    for seed in (3, 44):
        rec = run_lagrangian(model, T=250.0, dt=0.02, record_every=1, seed=seed)
        i5 = rec.index_at(5.0)
        averages.append(batched_time_average((rec.velocities[i5:] ** 2).sum(axis=1),
                                             rec.times[i5:]))
    (a, se_a), (b, se_b) = averages
    assert abs(a - b) <= 4.0 * math.hypot(se_a, se_b), averages
    assert all(mean + 4.0 * se < eulerian for mean, se in averages), (averages, eulerian)
