import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import ks_2samp

from tracerflow import (NumericalFailure,
                        build_power_law_spectrum, evaluate,
                        noiseless_flow_step, origin_value,
                        ou_exact_step, sample_stationary, sobolev_norm,
                        zero_field)
from tracerflow.field import (_phase_factor, ens_norm_m, ens_observation_step,
                              ens_ou_step, ens_pair_noise, modulus_decay_report,
                              pair_noise)
from conftest import (model_of_dimension, pair_field, pair_row, single_pair_model,
                      zero_energy_model)


# ---------------------------------------------------------------- norms

def test_norm_zero_field(small_model):
    assert sobolev_norm(small_model, zero_field(small_model)) == 0.0


def test_norm_unit_wavevector_pair():
    for r in (1, 3, 4):
        m = single_pair_model(m=r)
        f = pair_field(m, (1, 0), [0.3 + 0.4j, 0.0])
        assert sobolev_norm(m, f) == pytest.approx(math.sqrt(2) * 0.5, rel=1e-14)


def test_norm_weighting():
    m = single_pair_model(k=(2, 0))
    f = pair_field(m, (2, 0), [1.0, 0.0])
    assert sobolev_norm(m, f) == pytest.approx(math.sqrt(128.0), rel=1e-14)


# ---------------------------------------------------------------- semigroup

def test_semigroup_identity_at_zero(small_model):
    rng = np.random.default_rng(0)
    f = sample_stationary(small_model, rng)
    g = f * small_model.decay(0.0)[:, None]
    assert np.array_equal(f, g)


def test_semigroup_single_mode_decay():
    m = single_pair_model(gamma=1.0)
    f = pair_field(m, (1, 0), [1.0, 0.0])
    g = f * m.decay(1.0)[:, None]
    amp = np.abs(g[pair_row(m, (1, 0))][0])
    assert amp == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_semigroup_law(small_model):
    rng = np.random.default_rng(1)
    f = sample_stationary(small_model, rng)
    decay = small_model.decay
    a = f * decay(0.37)[:, None] * decay(0.63)[:, None]
    b = f * decay(1.0)[:, None]
    scale = np.abs(b).max()
    assert np.abs(a - b).max() <= 1e-14 * scale


# ---------------------------------------------------------------- evaluation

def test_evaluate_zero_field(small_model):
    v = evaluate(small_model, zero_field(small_model), [0.7, 1.9])
    np.testing.assert_array_equal(v, np.zeros(2))


def test_evaluate_cosine_pair(small_model):
    c = 0.7
    f = pair_field(small_model, (1, 0), [c, 0.0])
    np.testing.assert_allclose(evaluate(small_model, f, [0.0, 0.0]), [2 * c, 0.0],
                               atol=1e-15)
    np.testing.assert_allclose(evaluate(small_model, f, [math.pi, 0.0]), [-2 * c, 0.0],
                               atol=1e-12)


# ---------------------------------------------------------------- sampling

def test_stationary_zero_energy_gives_zero_field():
    m = zero_energy_model()
    f = sample_stationary(m, np.random.default_rng(0))
    assert not np.any(f)


def test_stationary_covariance_matches_model(full_k2_model):
    m = full_k2_model
    rng = np.random.default_rng(100)
    draws = pair_noise(m, rng, lead_shape=(20000,))
    tr = np.real(np.trace(m.energy, axis1=1, axis2=2))
    thresh = 1e-3 * tr.max()
    # the mirror of each representative carries the conjugate by construction
    for p in range(m.n_pairs):
        if tr[p] < thresh:
            continue
        cov = np.einsum("ni,nj->ij", draws[:, p, :], draws[:, p, :].conj()) / 20000
        rel = np.linalg.norm(cov - m.energy[p]) / np.linalg.norm(m.energy[p])
        assert rel < 0.05, f"mode {tuple(m.wavevectors[p])}: {rel}"


def test_stationary_pseudo_covariance_vanishes(full_k2_model):
    m = full_k2_model
    rng = np.random.default_rng(101)
    n = 20000
    draws = pair_noise(m, rng, lead_shape=(n,))
    for p in range(m.n_pairs):
        pc = np.einsum("ni,nj->ij", draws[:, p, :], draws[:, p, :]) / n
        e = m.energy[p].real
        # entrywise MC scale; 3 sigma on the Frobenius norm
        ent = np.sqrt((np.outer(np.diag(e), np.diag(e)) + np.abs(e) ** 2) / n)
        assert np.linalg.norm(pc) < 3.0 * np.linalg.norm(ent)


def _einsum_pair_draw(model, seed, scale, lead_shape):
    """The representative-slice draw written as the plain formula, and as the
    same products summed over r from the first term rather than from zero."""
    factor = model.noise_factor * ((1.0 if scale is None else scale[:, None, None])
                                   * (1.0 / np.sqrt(2.0)))
    r = factor.shape[-1]
    z = np.random.default_rng(seed).standard_normal(lead_shape + (model.n_pairs, r, 2))
    w = z[..., 0] + 1j * z[..., 1]
    terms = [factor[:, :, j] * w[..., j, None] for j in range(r)]
    return np.einsum("pir,...pr->...pi", factor, w), functools.reduce(np.add, terms)


@pytest.mark.parametrize("d, K, projection", [(1, 8, "full"),
                                              (2, 8, "incompressible"),
                                              (3, 2, "incompressible"),
                                              (3, 2, "full")])
@pytest.mark.parametrize("dt", [None, 0.01])
def test_pair_draw_is_bitwise_the_einsum_formula(d, K, projection, dt):
    # incompressible energies have exact zeros; einsum sums into zeros, so a
    # zero product keeps its sign only in the first-term sum
    m = build_power_law_spectrum(d, K, 1.0, 14.0, projection, 1.0, 2.0)
    scale = None if dt is None else m.noise_scale(dt)
    n = 5
    formula, ref = _einsum_pair_draw(m, 7, scale, (n,))
    full = pair_noise(m, np.random.default_rng(7), scale, (n,))
    ens = ens_pair_noise(m, np.random.default_rng(7), scale, n)
    assert np.array_equal(ens, formula)
    assert ens.tobytes() == ref.tobytes()
    assert full.tobytes() == ens.tobytes()
    one = pair_noise(m, np.random.default_rng(7), scale)
    assert one.tobytes() == _einsum_pair_draw(m, 7, scale, ())[1].tobytes()


_FACTOR_RANK = {"full": lambda d: d, "incompressible": lambda d: max(1, d - 1),
                "potential": lambda d: 1}


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("projection", ["full", "incompressible", "potential"])
def test_noise_factor_spans_the_energy(d, projection):
    m = build_power_law_spectrum(d, 8 if d < 3 else 3, 1.0, 14.0, projection, 1.0, 2.0)
    factor = m.noise_factor
    r = _FACTOR_RANK[projection](d)
    assert factor.shape == (m.n_pairs, d, r)
    assert not factor.imag.any()
    span = np.einsum("pir,pjr->pij", factor, factor.conj())
    assert (np.abs(span - m.energy).max(axis=(1, 2))
            <= 1e-15 * np.abs(m.energy).max(axis=(1, 2))).all()
    for lead in [(), (4,)]:
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        pair_noise(m, rng, m.noise_scale(0.01), lead)
        ref.standard_normal(math.prod(lead) * m.n_pairs * r * 2)
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("with_noise", [False, True])
def test_ens_observation_step_leaves_its_inputs_alone(default_model, with_noise):
    m = default_model
    rng = np.random.default_rng(8)
    cpos = ens_pair_noise(m, rng, None, 6)
    noise = ens_pair_noise(m, rng, m.noise_scale(0.01), 6) if with_noise else np.zeros_like(cpos)
    cpos0, noise0 = cpos.copy(), noise.copy()
    out = ens_observation_step(m, cpos, 0.01, noise)
    assert cpos.tobytes() == cpos0.tobytes()
    assert noise.tobytes() == noise0.tobytes()
    assert not np.shares_memory(out, noise)
    assert not np.shares_memory(out, cpos)


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([1, 2, 3]), n=st.integers(1, 40),
       with_noise=st.booleans(), dt=st.sampled_from([1e-3, 0.01, 0.3]),
       amplitude=st.sampled_from([1.0, 30.0]), seed=st.integers(0, 2 ** 32 - 1))
def test_ens_observation_step_in_place_is_the_out_of_place_step(
        d, n, with_noise, dt, amplitude, seed):
    m = model_of_dimension(d)
    rng = np.random.default_rng(seed)
    cpos = amplitude * ens_pair_noise(m, rng, None, n)
    noise = ens_pair_noise(m, rng, m.noise_scale(dt), n) if with_noise else np.zeros_like(cpos)
    ref = ens_observation_step(m, cpos, dt, noise)
    # the per-component multiply is the broadcast multiply, bit for bit
    phase = (origin_value(cpos) @ m.wavevectors.T) * dt
    broadcast = cpos * _phase_factor(phase, m.decay(dt))[:, :, None]
    broadcast += noise
    assert ref.tobytes() == broadcast.tobytes()
    state = cpos.copy()
    got = ens_observation_step(m, state, dt, noise, out=state)
    assert got is state
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_stacked_observation_steps_grow_the_norm_as_the_closed_form(default_model, seed):
    # From the zero field, E ||Z_T||^2_{X^m} = sum_k |k|^{2m} Tr E(k) (1 - e^{-2 gamma(k) T})
    # exactly for the splitting step: the phase factor has modulus e^{-gamma dt}
    # and the noise is independent, mean zero and circular, so no cross term
    # survives.  The stability probe's loop at the ergodic-stacked sizes; a step
    # that decays over 2 dt reads z of -7 to -9 here, the kernel 0.29, 1.40, -0.76.
    m, n, dt, steps = default_model, 150, 0.01, 50
    rng = np.random.default_rng(seed)
    cpos = np.zeros((n, m.n_pairs, m.dimension), dtype=complex)
    scale = m.noise_scale(dt)
    for _ in range(steps):
        ens_observation_step(m, cpos, dt, ens_pair_noise(m, rng, scale, n), out=cpos)
    sq = ens_norm_m(m, cpos) ** 2
    trace = np.real(np.trace(m.energy, axis1=1, axis2=2))
    closed = 2.0 * float((m.weight_m * trace    # twice the pair rows
                          * -np.expm1(-2.0 * m.gamma * steps * dt)).sum())
    z = (sq.mean() - closed) / (sq.std(ddof=1) / math.sqrt(n))
    assert abs(z) <= 4.0, z


@pytest.mark.parametrize("d", [1, 2, 3])
def test_ens_origin_value_is_twice_the_real_sum(d):
    m = model_of_dimension(d)
    cpos = np.random.default_rng(d).standard_normal(
        (500, m.n_pairs, d, 2)).view(complex)[..., 0]
    got = origin_value(cpos)
    plain = 2.0 * cpos.real.sum(axis=-2)
    if d >= 2:
        assert got.tobytes() == plain.tobytes()
    else:
        # sequential against pairwise summation: both are roundings of one sum
        bound = 2.0 * m.n_pairs * np.finfo(float).eps * np.abs(cpos.real).sum(axis=-2)
        assert np.all(np.abs(got - plain) <= bound)


# ---------------------------------------------------------------- OU stepping

def test_ou_zero_energy_is_pure_decay():
    m = zero_energy_model(gammas={(1, 0): 2.0, (0, 1): 0.5})
    f = pair_field(m, (1, 0), [0.4 + 0.2j, 0.1])
    out = ou_exact_step(m, f, 0.7, np.random.default_rng(0))
    expect = f * np.exp(-m.gamma * 0.7)[:, None]
    np.testing.assert_array_equal(out, expect)


def test_ou_long_step_forgets_start(full_k2_model):
    # a single step of length 50/gamma* lands in the invariant law whatever
    # the start, because the one-step kernel is the continuous transition
    m = full_k2_model
    rng = np.random.default_rng(7)
    start = np.tile((10.0 * pair_field(m, (1, 0), [1.0, 1.0]))[None], (20000, 1, 1))
    out = ens_ou_step(m, start, 50.0, rng)
    idx = 0
    cov = np.einsum("ni,nj->ij", out[:, idx, :], out[:, idx, :].conj()) / 20000
    target = m.energy[idx]
    assert np.linalg.norm(cov - target) / np.linalg.norm(target) < 0.05


def test_ou_lag_correlation(full_k2_model):
    m = full_k2_model
    rng = np.random.default_rng(8)
    c0 = ens_pair_noise(m, rng, None, 20000)
    c1 = ens_ou_step(m, c0, 1.0, rng)
    tr = np.real(np.trace(m.energy, axis1=1, axis2=2))
    for idx in range(m.n_pairs):
        num = np.real(np.einsum("ni,ni->", c1[:, idx, :], c0[:, idx, :].conj())) / 20000
        rho = num / tr[idx]
        assert abs(rho - math.exp(-m.gamma[idx])) < 0.05


def test_ou_stationarity_preserved(full_k2_model):
    m = full_k2_model
    rng = np.random.default_rng(9)
    c = ens_pair_noise(m, rng, None, 20000)
    c = ens_ou_step(m, c, 0.3, rng)
    idx = 0
    cov = np.einsum("ni,nj->ij", c[:, idx, :], c[:, idx, :].conj()) / 20000
    target = m.energy[idx]
    assert np.linalg.norm(cov - target) / np.linalg.norm(target) < 0.05


def test_ou_rejects_nonpositive_dt(small_model):
    f = zero_field(small_model)
    with pytest.raises(ValueError):
        ou_exact_step(small_model, f, 0.0, np.random.default_rng(0))


# ---------------------------------------------------------------- flows

def test_noiseless_flow_fixed_point_zero(small_model):
    y = zero_field(small_model)
    for _ in range(10):
        y = noiseless_flow_step(small_model, y, 1e-2)
    assert not np.any(y)


def test_noiseless_flow_modulus_decay(small_model):
    rep = modulus_decay_report(small_model, n_starts=5, horizon=1.0, dt=1e-3,
                               seed=21)
    assert rep["max_rel_modulus_error"] < 1e-6
    assert rep["max_norm_excess"] <= 1e-9


def test_noiseless_flow_fourth_order(default_model):
    rng = np.random.default_rng(11)
    f0 = sample_stationary(default_model, rng)
    f0 = 3.0 * f0 / sobolev_norm(default_model, f0)

    def advance(dt, T=0.5):
        y = f0
        for _ in range(int(round(T / dt))):
            y = noiseless_flow_step(default_model, y, dt)
        return y

    ref = advance(1e-4)
    e1 = np.abs(advance(2e-2) - ref).max()
    e2 = np.abs(advance(1e-2) - ref).max()
    assert 8.0 < e1 / e2 < 32.0


def observation_noise(m, rng, dt, lead_shape=()):
    """The exact OU increment over dt that drives one observation step."""
    return pair_noise(m, rng, m.noise_scale(dt), lead_shape)


def test_observation_step_noiseless_limit():
    m = zero_energy_model(gammas={(1, 0): 1.0, (1, 1): 2.0})
    f = np.array([[0.3 + 0.1j, 0.2 - 0.2j], [0.1, 0.4j]])
    out = ens_observation_step(m, f, 0.1,
                               observation_noise(m, np.random.default_rng(0), 0.1))
    u = origin_value(f)
    gamma = m.gamma
    phase = (u @ m.wavevectors.T) * 0.1
    expect = f * (np.exp(-gamma * 0.1) * (np.cos(phase) + 1j * np.sin(phase)))[:, None]
    np.testing.assert_array_equal(out, expect)
    decay = np.abs(f) * np.exp(-gamma * 0.1)[:, None]
    assert np.abs(np.abs(out) - decay).max() < 1e-15


def test_observation_step_linear_case_matches_exact_ou():
    # with a single incompressible pair the advective phase u.k vanishes,
    # so the splitting step is the exact transition; compare laws at t=1
    m = single_pair_model(energy=np.diag([0.0, 1.0]))
    idx = pair_row(m, (1, 0))
    n = 5000
    rngz = np.random.default_rng(50)
    zn = np.empty(n)
    for i in range(n):
        z = zero_field(m)
        for _ in range(10):
            z = ens_observation_step(m, z, 0.1, observation_noise(m, rngz, 0.1))
        zn[i] = abs(z[idx, 1])
    rngv = np.random.default_rng(51)
    vn = np.empty(n)
    for i in range(n):
        v = ou_exact_step(m, zero_field(m), 1.0, rngv)
        vn[i] = abs(v[idx, 1])
    assert ks_2samp(zn, vn).pvalue > 0.01


@pytest.mark.filterwarnings("ignore:invalid value")
def test_observation_step_detects_nonfinite(small_model):
    c = np.full((small_model.n_pairs, 2), np.inf + 0j)
    noise = observation_noise(small_model, np.random.default_rng(0), 1e-3)
    with pytest.raises(NumericalFailure):
        ens_observation_step(small_model, c, 1e-3, noise)


@pytest.mark.parametrize("d, projection", [(1, "full"), (2, "incompressible"),
                                           (2, "full"), (3, "potential")])
def test_observation_step_is_the_field_seen_from_an_euler_tracer(d, projection):
    # Independent construction of the splitting step: advance the Eulerian
    # field V by exact OU steps, V' = V decay(dt) + eta, and a tracer by one
    # Euler step, x' = x + V(x) dt.  Fed the rotated noise eta e^{ik.x'}, the
    # splitting step must return the field recentred at the tracer,
    # Z' = V' e^{ik.x'}: the advective phase u.k dt with u = Z(0) = V(x) is
    # exactly the recentring from x to x'.
    m = build_power_law_spectrum(d, 3, 1.0, 4.0, projection, 1.0, 2.0)
    n, dt = 5, 1e-3
    rng = np.random.default_rng(20 + d)
    v = ens_pair_noise(m, rng, None, n)
    x = np.zeros((n, d))
    z = v.copy()
    scale = m.noise_scale(dt)
    worst = 0.0
    for _ in range(400):
        x = x + origin_value(z) * dt
        shift = np.exp(1j * (x @ m.wavevectors.T))[..., None]
        eta = ens_pair_noise(m, rng, scale, n)
        v = v * m.decay(dt)[:, None] + eta
        z = ens_observation_step(m, z, dt, eta * shift)
        want = v * shift
        worst = max(worst, float(np.abs(z - want).max() / np.abs(want).max()))
    assert worst <= 1e-12, worst


# ---------------------------------------------------------------- invariants

def test_pointwise_bound_from_norm(small_model):
    # sup over the torus of |V| + |DV|_F is controlled by the X^m norm with
    # the computable constant sum_k (1 + |k|) |k|^{-m}
    m = small_model
    # twice the sum over the pair rows: the sum over every lattice site
    c_const = 2.0 * float(((1.0 + m.k_norm) * m.k_norm ** (-float(m.m))).sum())
    grid = np.stack(np.meshgrid(*(2 * [np.linspace(0, 2 * math.pi, 64, endpoint=False)]),
                                indexing="ij"), axis=-1).reshape(-1, 2)
    phases = np.exp(1j * (grid @ m.wavevectors.T))             # (points, n_pairs)
    rng = np.random.default_rng(12)
    for _ in range(100):
        f = sample_stationary(m, rng)
        vals = 2.0 * np.real(phases @ f)                 # (points, d)
        jac = 2.0 * np.real(1j * np.einsum("ps,si,sj->pij", phases, f, m.wavevectors))
        total = np.linalg.norm(vals, axis=1) + np.linalg.norm(jac, axis=(1, 2))
        assert total.max() <= c_const * sobolev_norm(m, f) * (1 + 1e-12)
