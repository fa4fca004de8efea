"""The representative-slice kernels against the full-table formulas.

A field stores one coefficient per conjugate pair.  The oracles below rebuild
the mirror sites, c(-k) = conj(c(k)), and evaluate the formulas the package
used when it stored every lattice site: sums run over all sites and take the
real part.  The kernels must agree with them, member by member, within
64 eps times the sum of the absolute values of the terms of each result.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from tracerflow import (evaluate, noiseless_flow_step, origin_value, shift_field,
                        sobolev_norm)
from tracerflow.field import _ou, ens_observation_step
from conftest import full_sites, model_of_dimension

EPS = np.finfo(float).eps


def full_table(model, coeffs):
    """The per-site table (..., 2 n_pairs, d) of a representative slice, in
    the order of full_sites."""
    return np.concatenate([coeffs, coeffs.conj()], axis=-2)


def site_decay(model, t):
    return np.exp(-full_sites(model)[1] * t)


# ------------------------------------------------ full-table formulas

def oracle_value(model, full, xi):
    return (np.exp(1j * (full_sites(model)[0] @ xi)) @ full).real


def oracle_norm_sq(model, full, r):
    k = full_sites(model)[0]
    weight = np.sqrt((k ** 2).sum(axis=1)) ** (2.0 * r)
    return (weight * (np.abs(full) ** 2).sum(axis=-1)).sum(axis=-1)


def oracle_origin(full):
    return np.real(full.sum(axis=-2))


def oracle_shift(model, full, a):
    return full * np.exp(1j * (full_sites(model)[0] @ a))[:, None]


def oracle_noiseless(model, full, dt):
    k = full_sites(model)[0]
    e_half, e_full = site_decay(model, dt / 2.0), site_decay(model, dt)

    def rhs(w, decay):
        u = np.real((w * decay[:, None]).sum(axis=-2))
        return (1j * (u @ k.T))[..., None] * w

    k1 = rhs(full, site_decay(model, 0.0))
    k2 = rhs(full + (0.5 * dt) * k1, e_half)
    k3 = rhs(full + (0.5 * dt) * k2, e_half)
    k4 = rhs(full + dt * k3, e_full)
    return (full + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)) * e_full[:, None]


def oracle_observation(model, full, dt):
    u = oracle_origin(full)
    k, gamma, _ = full_sites(model)
    factor = np.exp((-gamma + 1j * (u @ k.T)) * dt)
    return full * factor[..., None]


# ------------------------------------------------ property tests

def assert_close(got, want, terms):
    bound = 64.0 * EPS * terms
    assert np.all(np.abs(got - want) <= bound), float(np.max(np.abs(got - want) - bound))


def unit_mass_slice(model, lead, rng):
    """Random representatives whose full table has L1 mass 1 per member."""
    c = rng.standard_normal(lead + (model.n_pairs, model.dimension, 2)).view(complex)[..., 0]
    return c / (2.0 * np.abs(c).sum(axis=(-2, -1), keepdims=True))


fields = dict(d=st.sampled_from([1, 2, 3]),
              lead=st.one_of(st.just(()), st.integers(1, 8).map(lambda n: (n,))),
              seed=st.integers(0, 2 ** 32 - 1))


@settings(max_examples=60, deadline=None)
@given(**fields)
def test_measures_agree_with_the_full_table_sums(d, lead, seed):
    m = model_of_dimension(d)
    rng = np.random.default_rng(seed)
    c = unit_mass_slice(m, lead, rng)
    full = full_table(m, c)

    xi = rng.uniform(0.0, 2.0 * math.pi, d)
    value = evaluate(m, c, xi)
    want_value = oracle_value(m, full, xi)
    assert value.shape == want_value.shape
    assert_close(value, want_value, np.abs(full).sum(axis=-2))

    want = oracle_norm_sq(m, full, m.m)
    assert_close(sobolev_norm(m, c) ** 2, want, want)

    assert_close(origin_value(c), oracle_origin(full), np.abs(full.real).sum(axis=-2))


@settings(max_examples=60, deadline=None)
@given(dt=st.sampled_from([1e-3, 0.01, 0.1]), **fields)
def test_steps_agree_with_the_full_table_steps(d, lead, seed, dt):
    # every result is a per-site product of the start with unit-size
    # factors, coupled through origin values of size at most the L1 mass 1
    m = model_of_dimension(d)
    rng = np.random.default_rng(seed)
    c = unit_mass_slice(m, lead, rng)
    full = full_table(m, c)
    mass = np.abs(full).sum(axis=(-2, -1))[..., None, None]

    a = rng.uniform(0.0, 2.0 * math.pi, d)
    assert_close(full_table(m, shift_field(m, c, a)), oracle_shift(m, full, a),
                 np.abs(full))
    decayed = full * site_decay(m, dt)[:, None]
    assert_close(full_table(m, c * m.decay(dt)[:, None]), decayed, np.abs(full))
    assert_close(full_table(m, _ou(m, c, dt, np.zeros_like(c))), decayed, np.abs(full))
    assert_close(full_table(m, ens_observation_step(m, c, dt, np.zeros_like(c))),
                 oracle_observation(m, full, dt), mass)
    assert_close(full_table(m, noiseless_flow_step(m, c, dt)),
                 oracle_noiseless(m, full, dt), mass)
