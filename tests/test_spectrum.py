import itertools
import math
import re
import warnings

import numpy as np
import pytest

from tracerflow import (SpectrumError, SpectrumModel, build_power_law_spectrum, check_h1,
                        check_h2, gamma_star, h2_tail_bound,
                        stationary_norm_moment)
from tracerflow import spectrum
from tracerflow.spectrum import HERMITIAN_RTOL, PSD_FLOOR_RTOL
from conftest import full_sites, pair_row, single_pair_model


def test_lattice_count_k1():
    m = build_power_law_spectrum(2, 1, 1.0, 14.0, "full", 1.0, 2.0)
    assert 2 * m.n_pairs == 8  # 3x3 block minus the origin


def test_incompressible_projector_orthogonal_to_k():
    m = build_power_law_spectrum(2, 1, 1.0, 0.0, "incompressible", 1.0, 2.0)
    np.testing.assert_allclose(m.energy[pair_row(m, (1, 0))].real, [[0, 0], [0, 1]],
                               atol=1e-15)
    # projector annihilates k itself
    e = m.energy[pair_row(m, (1, 1))]
    assert np.abs(e @ np.array([1.0, 1.0])).max() < 1e-14


def test_potential_plus_incompressible_is_full():
    inc = build_power_law_spectrum(2, 2, 1.3, 5.0, "incompressible", 1.0, 2.0)
    pot = build_power_law_spectrum(2, 2, 1.3, 5.0, "potential", 1.0, 2.0)
    full = build_power_law_spectrum(2, 2, 1.3, 5.0, "full", 1.0, 2.0)
    np.testing.assert_allclose(inc.energy + pot.energy, full.energy, atol=1e-14)


def test_gamma_power_law_value():
    m = build_power_law_spectrum(2, 2, 1.0, 14.0, "full", 1.0, 2.0)
    assert m.gamma[pair_row(m, (2, 1))] == pytest.approx(5.0, abs=1e-14)


def test_gamma_star_quadratic_lattice(default_model):
    assert gamma_star(default_model) == pytest.approx(1.0, abs=0)


def test_gamma_star_cubic():
    m = build_power_law_spectrum(2, 4, 1.0, 14.0, "full", 0.5, 3.0)
    assert gamma_star(m) == pytest.approx(0.5, abs=1e-15)


def test_gamma_star_single_pair():
    m = single_pair_model(gamma=2.7)
    assert gamma_star(m) == 2.7


def test_gamma_star_enumeration_order_invariant():
    rows = [((1, 0), 1.5, np.eye(2)), ((0, 1), 0.7, 2 * np.eye(2)), ((1, 1), 3.0, np.eye(2))]
    a, b = (SpectrumModel(2, 3, 0.5, *zip(*order)) for order in (rows, rows[::-1]))
    assert gamma_star(a) == gamma_star(b) == 0.7


def test_regularity_sum_single_pair_unit():
    # one conjugate pair at |k|=1 with unit total energy trace, gamma=1,
    # m=3, alpha=0.5: the site sum is gamma^0.5 * |k|^8 * (1/2 + 1/2) = 1
    m = single_pair_model(gamma=1.0, energy=0.25 * np.eye(2), m=3, alpha=0.5)
    assert check_h1(m) == pytest.approx(1.0, abs=1e-14)


def test_regularity_sum_zero_energy():
    m = single_pair_model(energy=np.zeros((2, 2)))
    assert check_h1(m) == 0.0


def test_regularity_sum_matches_direct_lattice_loop(default_model):
    m, alpha, sigma0, p = 3, 0.5, 1.0, 14.0
    total = 0.0
    for i in range(-8, 9):
        for j in range(-8, 9):
            if i == 0 and j == 0:
                continue
            k2 = float(i * i + j * j)
            gamma = k2
            trace = sigma0 * k2 ** (-p / 2.0) * 1.0  # incompressible trace = d-1
            total += gamma ** alpha * k2 ** (m + 1) * trace
    assert check_h1(default_model) == pytest.approx(total, rel=1e-12)


def test_mixing_integral_single_mode_exponential():
    m = single_pair_model(gamma=1.0)
    val = check_h2(m, t_max=20.0, quad_steps=4000)
    assert val == pytest.approx(1.0, abs=1e-3)
    assert h2_tail_bound(m, 20.0) < 1e-8


def test_mixing_integral_truncation_stable():
    a = build_power_law_spectrum(2, 8, 1.0, 14.0, "full", 1.0, 2.0)
    b = build_power_law_spectrum(2, 16, 1.0, 14.0, "full", 1.0, 2.0)
    va = check_h2(a, 20.0, 40000)
    vb = check_h2(b, 20.0, 40000)
    assert abs(vb - va) / va < 0.01


def test_sums_monotone_in_truncation():
    h1s, h2s = [], []
    for K in (1, 2, 3, 4):
        m = build_power_law_spectrum(2, K, 1.0, 14.0, "full", 1.0, 2.0)
        h1s.append(check_h1(m))
        h2s.append(check_h2(m, 20.0, 2000))
    assert all(b >= a - 1e-12 for a, b in zip(h1s, h1s[1:]))
    assert all(b >= a - 1e-9 for a, b in zip(h2s, h2s[1:]))
    assert min(h1s + h2s) >= 0.0


_I2 = np.eye(2)


@pytest.mark.parametrize("wavevectors, gamma, energy, message", [
    ([[1, 0], [0, 1]], [1.0, -1.0], [_I2, _I2], "mixing rate at (0, 1) is not positive"),
    ([[1, 0], [0, 1]], [1.0, 0.0], [_I2, _I2], "mixing rate at (0, 1) is not positive"),
    ([[1, 0], [0, 1]], [1.0, math.inf], [_I2, _I2], "gamma or energy at (0, 1) is not finite"),
    ([[1, 0], [0, 1]], [1.0, 1.0], [_I2, [[math.nan, 0.0], [0.0, 1.0]]],
     "gamma or energy at (0, 1) is not finite"),
    ([[1, 0], [0, 1]], [1.0, 1.0], [_I2, [[1.0, 2.0], [0.0, 1.0]]],
     "energy at (0, 1) not Hermitian"),
    ([[1, 0], [0, 1]], [1.0, 1.0], [_I2, [[1.0, 0.0], [0.0, -1.0]]],
     "energy at (0, 1) not PSD"),
    ([[1, 0], [-1, 0]], [1.0, 1.0], [_I2, _I2], "wavevector (-1, 0) is zero or the mirror"),
    ([[1, 0], [0, 0]], [1.0, 1.0], [_I2, _I2], "wavevector (0, 0) is zero or the mirror"),
    ([[1, 0], [1, 0]], [1.0, 1.0], [_I2, _I2], "wavevector (1, 0) is listed twice"),
    (np.empty((0, 2)), [], np.empty((0, 2, 2)), "the table is empty"),
    ([[1, 0], [0, 1]], [1.0], [_I2, _I2], "table shapes (2, 2), (1,) and (2, 2, 2)"),
    ([[1, 0]], [1.0], [np.eye(3)], "table shapes (1, 2), (1,) and (1, 3, 3)"),
    ([[1, 0], [0.5, 1]], [1.0, 1.0], [_I2, _I2], "wavevector (0.5, 1.0) is not integer"),
], ids=["gamma_negative", "gamma_zero", "gamma_inf", "energy_nan", "not_hermitian",
        "not_psd", "pair_listed_twice", "zero_k", "repeated_row", "empty", "shapes_disagree",
        "energy_3x3", "not_integer"])
def test_a_directly_built_model_rejects_bad_tables(wavevectors, gamma, energy, message):
    with pytest.raises(SpectrumError, match=re.escape(message)):
        SpectrumModel(2, 3, 0.5, wavevectors, gamma, energy)


def test_a_directly_built_model_is_the_builders_model(default_model):
    m = default_model
    again = SpectrumModel(m.dimension, m.m, m.alpha, m.wavevectors.astype(int), m.gamma,
                          m.energy)
    for name in ("wavevectors", "gamma", "energy", "k_norm", "noise_factor",
                 "weight_m", "trace"):
        assert getattr(again, name).tobytes() == getattr(m, name).tobytes()


def test_builder_rejections():
    good = (2, 2, 1.0, 14.0, "full", 1.0, 2.0)
    for args in [(0, 2, 1.0, 14.0, "full", 1.0, 2.0),
                 (2, 0, 1.0, 14.0, "full", 1.0, 2.0),
                 (2, 2, 0.0, 14.0, "full", 1.0, 2.0),
                 (2, 2, 1.0, 14.0, "full", 0.0, 2.0),
                 (2, 2, 1.0, 14.0, "full", 1.0, 0.5),
                 (2, 2, 1.0, 14.0, "sideways", 1.0, 2.0)]:
        with pytest.raises(SpectrumError):
            build_power_law_spectrum(*args)
    build_power_law_spectrum(*good)


def test_psd_tolerance_accepts_projector_roundoff():
    # projectors produce eigenvalues at the -1e-16 level; they must pass
    m = build_power_law_spectrum(3, 2, 1.0, 4.0, "incompressible", 1.0, 2.0)
    assert 2 * m.n_pairs == 5 ** 3 - 1


def _pivoted_cholesky(e, floor):
    """Columns of the pivoted Cholesky factor of one energy matrix: pivot on
    the largest real diagonal entry of the residual (the first on ties)
    while it is above the floor."""
    res, cols = e.copy(), []
    for _ in range(e.shape[0]):
        diag = np.real(np.diag(res))
        j = int(np.argmax(diag))
        if not diag[j] > floor:
            break
        col = res[:, j] / np.sqrt(diag[j])
        cols.append(col)
        res = res - np.outer(col, col.conj())
    return cols


def _per_site_tables(kv, gamma, energy):
    """The per-site validation and pairing loop the model build used to run
    on the full lattice tables, kept as the reference for its vectorised
    form.  Returns the tables of the representatives (the lex-larger of k
    and -k), in site order."""
    index = {tuple(int(c) for c in row): i for i, row in enumerate(kv)}
    pos, factors = [], {}
    for i, row in enumerate(kv):
        key = tuple(int(c) for c in row)
        mirror = tuple(-c for c in key)
        j = index[mirror]
        assert gamma[i] == gamma[j]
        e = energy[i]
        assert np.abs(energy[j] - e.conj()).max() <= \
            HERMITIAN_RTOL * (1.0 + np.abs(e).max())
        scale = float(np.abs(e).max(initial=0.0))
        floor = 0.0
        if scale > 0.0:
            assert np.abs(e - e.conj().T).max() <= HERMITIAN_RTOL * scale
            eigs = np.linalg.eigvalsh(0.5 * (e + e.conj().T))
            trace = float(np.real(np.trace(e)))
            floor = PSD_FLOOR_RTOL * max(trace, scale)
            assert eigs.min() >= -floor
        if key > mirror:
            pos.append(i)
            factors[i] = _pivoted_cholesky(e, floor)
    pos = np.asarray(pos, dtype=int)
    rank = max(1, max(len(cols) for cols in factors.values()))
    factor = np.zeros((pos.size, kv.shape[1], rank), dtype=complex)
    for r, i in enumerate(pos):
        for c, col in enumerate(factors[i]):
            factor[r, :, c] = col
    return kv[pos].astype(float), gamma[pos], energy[pos], factor


def _full_lattice_tables(kv, gamma, energy):
    """Lex-sorted tables of every site, rebuilt from the representatives' rows:
    -k carries the rate of k and the conjugate energy."""
    k = np.concatenate([kv, -kv])
    order = np.lexsort(k.T[::-1])
    return (k[order], np.concatenate([gamma, gamma])[order],
            np.concatenate([energy, energy.conj()])[order])


def _complex_hermitian_model():
    """Four complex-Hermitian rows in lex order, as the per-site reference
    lists them."""
    return SpectrumModel(2, 3, 0.5, [(0, 1), (1, -2), (1, 0), (2, -2)], [2.0, 3.0, 1.0, 0.5],
                         [[[1.0, 0.5 + 0.5j], [0.5 - 0.5j, 1.0]], [[1.0, -0.3j], [0.3j, 0.5]],
                          [[2.0, 1j], [-1j, 1.0]], np.eye(2)])


@pytest.mark.parametrize("d, K, projection", [
    (d, K, p) for d in (1, 2, 3) for K in (1, 3, 8)
    for p in ("full", "incompressible", "potential")
    if not (d == 1 and p == "incompressible")] + [("tables", None, None)])
def test_vectorised_build_is_the_per_site_loop(d, K, projection):
    m = (_complex_hermitian_model() if d == "tables" else
         build_power_law_spectrum(d, K, 1.0, 14.0, projection, 1.0, 2.0))
    tables = _per_site_tables(*_full_lattice_tables(m.wavevectors, m.gamma, m.energy))
    for got, want in zip((m.wavevectors, m.gamma, m.energy, m.noise_factor), tables):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("d, K", [(d, K) for d in (1, 2, 3) for K in (1, 3)])
def test_lattice_is_the_upper_half_of_the_product_lattice(d, K):
    sites = [k for k in itertools.product(range(-K, K + 1), repeat=d)
             if k > tuple(-c for c in k)]
    kv = spectrum._lattice(d, K)
    assert kv.dtype.kind == "i" and kv.tolist() == [list(k) for k in sites]


def test_empty_table_is_a_spectrum_error():
    """Empty tables given as plain, shapeless lists meet the emptiness check,
    not a shape or index error."""
    with pytest.raises(SpectrumError, match="the table is empty"):
        SpectrumModel(2, 3, 0.5, [], [], [])


def test_models_compare_by_identity():
    a, b = (build_power_law_spectrum(2, 2, 1.0, 14.0, "full", 1.0, 2.0) for _ in range(2))
    assert (a == b) is False
    assert a == a


def test_large_m_is_rejected_without_a_numpy_warning():
    # |k|^(2m) overflows at |k| = 3 for m = 400.  At |k| = 1 the H1 term
    # gamma^0.5 * Tr = 1e150 * 1e158 is finite, twice it (the sum) is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SpectrumError, match=re.escape(
                "X^m weight or H1 term at (0, 3) is not finite (m = 400)")):
            build_power_law_spectrum(2, 4, 1.0, 14.0, "incompressible", 1.0, 2.0, m=400)
        with pytest.raises(SpectrumError, match="H1 sum is not finite"):
            SpectrumModel(2, 3, 0.5, [(1, 0)], [1e300], [0.5e158 * np.eye(2)])
        build_power_law_spectrum(2, 4, 1.0, 14.0, "incompressible", 1.0, 2.0, m=200)


@pytest.mark.parametrize("build", [
    _complex_hermitian_model,
    lambda: build_power_law_spectrum(2, 8, 1.0, 14.0, "incompressible", 1.0, 2.0),
    lambda: build_power_law_spectrum(3, 3, 1.0, 4.0, "full", 0.7, 1.5)],
    ids=["tables", "d2_incompressible", "d3_full"])
def test_lattice_sums_are_twice_the_row_sums(build):
    m = build()
    k, gamma, energy = full_sites(m)
    norm = np.sqrt((k ** 2).sum(axis=1))
    tr = np.real(np.trace(energy, axis1=1, axis2=2))
    tr_sq = np.real(np.trace(energy @ energy, axis1=1, axis2=2))
    h1 = (gamma ** m.alpha * norm ** (2.0 * (m.m + 1)) * tr).sum()
    s2 = (norm ** (2.0 * m.m) * tr).sum()
    s4 = s2 ** 2 + 2.0 * (norm ** (4.0 * m.m) * tr_sq).sum()
    assert check_h1(m) == pytest.approx(h1, rel=1e-12, abs=0)
    assert stationary_norm_moment(m, 1) == pytest.approx(s2, rel=1e-12, abs=0)
    assert stationary_norm_moment(m, 2) == pytest.approx(s4, rel=1e-12, abs=0)
