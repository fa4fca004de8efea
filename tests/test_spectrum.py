import itertools
import math
import re
import warnings

import numpy as np
import pytest

from tracerflow import (SpectrumError, build_power_law_spectrum, check_h1,
                        check_h2, covariance_oracle, gamma_star, h2_tail_bound,
                        spectrum_from_tables, stationary_norm_moment)
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
    entries = {(1, 0): (1.5, np.eye(2)), (0, 1): (0.7, 2 * np.eye(2)),
               (1, 1): (3.0, np.eye(2))}
    a = spectrum_from_tables(2, 1, entries)
    b = spectrum_from_tables(2, 1, dict(reversed(list(entries.items()))))
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


def test_energy_mirror_is_exact_conjugate(default_model):
    m = default_model
    for k, e in zip(m.wavevectors, m.energy):
        assert np.array_equal(covariance_oracle(m, 0.0, -k), e.conj())


def test_mode_table_validation_rejects_bad_energy():
    with pytest.raises(SpectrumError):
        spectrum_from_tables(2, 1, {(1, 0): (1.0, np.array([[1.0, 2.0], [0.0, 1.0]]))})
    with pytest.raises(SpectrumError):
        spectrum_from_tables(2, 1, {(1, 0): (1.0, np.array([[1.0, 0], [0, -1.0]]))})
    with pytest.raises(SpectrumError):
        spectrum_from_tables(2, 1, {(1, 0): (0.0, np.eye(2))})  # gamma > 0
    with pytest.raises(SpectrumError):
        spectrum_from_tables(2, 1, {(0, 0): (1.0, np.eye(2))})
    # k and -k both listed, with mismatched entries
    with pytest.raises(SpectrumError, match=re.escape("gamma((-1, 0)) != gamma((1, 0))")):
        spectrum_from_tables(2, 1, {(1, 0): (1.0, np.eye(2)), (-1, 0): (2.0, np.eye(2))})
    herm = np.array([[1.0, 1j], [-1j, 1.0]])   # Hermitian and PSD, but not real
    with pytest.raises(SpectrumError, match=re.escape(
            "energy((1, 0)) is not the conjugate of energy((-1, 0))")):
        spectrum_from_tables(2, 1, {(1, 0): (1.0, herm), (-1, 0): (1.0, herm)})


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


def _per_site_tables(kv, gamma, energy):
    """The per-site validation and pairing loop the model build used to run
    on the full lattice tables, kept as the reference for its vectorised
    form.  Returns the row of each representative (the lex-larger of k and
    -k) and the representatives' tables."""
    index = {tuple(int(c) for c in row): i for i, row in enumerate(kv)}
    pos = []
    for i, row in enumerate(kv):
        key = tuple(int(c) for c in row)
        mirror = tuple(-c for c in key)
        j = index[mirror]
        assert gamma[i] == gamma[j]
        e = energy[i]
        assert np.abs(energy[j] - e.conj()).max() <= \
            HERMITIAN_RTOL * (1.0 + np.abs(e).max())
        scale = float(np.abs(e).max(initial=0.0))
        if scale > 0.0:
            assert np.abs(e - e.conj().T).max() <= HERMITIAN_RTOL * scale
            eigs = np.linalg.eigvalsh(0.5 * (e + e.conj().T))
            trace = float(np.real(np.trace(e)))
            assert eigs.min() >= -PSD_FLOOR_RTOL * max(trace, scale)
        if key > mirror:
            pos.append(i)
    pos = np.asarray(pos, dtype=int)
    w, v = np.linalg.eigh(energy[pos])
    w = np.where(w > 0.0, w, 0.0)
    sqrt_energy = np.einsum("pij,pj,pkj->pik", v, np.sqrt(w), v.conj())
    rows = {tuple(int(c) for c in kv[i]): r for r, i in enumerate(pos)}
    return rows, (kv[pos], gamma[pos], energy[pos], kv[pos].astype(float), sqrt_energy)


def _full_lattice_tables(kv, gamma, energy):
    """Lex-sorted tables of every site, rebuilt from the representatives' rows:
    -k carries the rate of k and the conjugate energy."""
    k = np.concatenate([kv, -kv])
    order = np.lexsort(k.T[::-1])
    return (k[order], np.concatenate([gamma, gamma])[order],
            np.concatenate([energy, energy.conj()])[order])


def _complex_hermitian_model():
    return spectrum_from_tables(2, 2, {
        (1, 0): (1.0, [[2.0, 1j], [-1j, 1.0]]),
        (0, 1): (2.0, [[1.0, 0.5 + 0.5j], [0.5 - 0.5j, 1.0]]),
        (1, -2): (3.0, [[1.0, -0.3j], [0.3j, 0.5]]),
        (-2, 2): (0.5, np.eye(2))})


@pytest.mark.parametrize("d, K, projection", [
    (d, K, p) for d in (1, 2, 3) for K in (1, 3, 8)
    for p in ("full", "incompressible", "potential")
    if not (d == 1 and p == "incompressible")] + [("tables", None, None)])
def test_vectorised_build_is_the_per_site_loop(monkeypatch, d, K, projection):
    inputs, finalize = [], spectrum._finalize
    monkeypatch.setattr(spectrum, "_finalize",
                        lambda *args: inputs.append(args[3:]) or finalize(*args))
    m = (_complex_hermitian_model() if d == "tables" else
         build_power_law_spectrum(d, K, 1.0, 14.0, projection, 1.0, 2.0))
    (kv, gamma, energy), = inputs   # the representatives' tables
    assert kv.shape[0] == m.n_pairs
    rows, tables = _per_site_tables(*_full_lattice_tables(kv, gamma, energy))
    assert m._index == rows
    assert [type(k[0]) for k in m._index] == [int] * len(rows)
    for got, want in zip((m.wavevectors, m.gamma, m.energy, m.k_pos,
                          m.sqrt_energy_pos), tables):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("d, K", [(d, K) for d in (1, 2, 3) for K in (1, 3)])
def test_lattice_is_the_upper_half_of_the_product_lattice(d, K):
    sites = [k for k in itertools.product(range(-K, K + 1), repeat=d)
             if k > tuple(-c for c in k)]
    kv = spectrum._lattice(d, K)
    assert kv.dtype.kind == "i" and kv.tolist() == [list(k) for k in sites]


def test_listed_mirrors_give_the_model_of_their_representatives():
    alone = _complex_hermitian_model()
    reps = {tuple(k): (g, e) for k, g, e in
            zip(alone.wavevectors.tolist(), alone.gamma, alone.energy)}
    mirrors = {tuple(-c for c in k): (g, e.conj()) for k, (g, e) in reps.items()}
    for entries in (reps, {**mirrors, **reps}, mirrors):
        m = spectrum_from_tables(2, 2, entries)
        assert m._index == alone._index
        for name in ("wavevectors", "gamma", "energy", "k_pos", "k_norm",
                     "sqrt_energy_pos", "weight_m", "trace"):
            got, want = getattr(m, name), getattr(alone, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("gamma, energy", [
    (math.inf, np.eye(2)), (1.0, [[math.nan, 0.0], [0.0, 1.0]])],
    ids=["gamma_inf", "energy_nan"])
def test_tables_reject_non_finite_entries(gamma, energy):
    with pytest.raises(SpectrumError, match=re.escape("at (0, 1) is not finite")):
        spectrum_from_tables(2, 1, {(1, 0): (1.0, np.eye(2)), (0, 1): (gamma, energy)})


def test_empty_table_is_a_spectrum_error():
    with pytest.raises(SpectrumError, match="the table is empty"):
        spectrum_from_tables(2, 1, {})


def test_large_m_is_rejected_without_a_numpy_warning():
    # |k|^(2m) overflows at |k| = 3 for m = 400.  At |k| = 1 the H1 term
    # gamma^0.5 * Tr = 1e150 * 1e158 is finite, twice it (the sum) is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SpectrumError, match=re.escape(
                "X^m weight or H1 term at (0, 3) is not finite (m = 400)")):
            build_power_law_spectrum(2, 4, 1.0, 14.0, "incompressible", 1.0, 2.0, m=400)
        with pytest.raises(SpectrumError, match="H1 sum is not finite"):
            spectrum_from_tables(2, 1, {(1, 0): (1e300, 0.5e158 * np.eye(2))})
        build_power_law_spectrum(2, 4, 1.0, 14.0, "incompressible", 1.0, 2.0, m=200)


def test_covariance_oracle_mirror_is_the_conjugate():
    m = _complex_hermitian_model()
    assert np.abs(m.energy.imag).max() > 0.0
    for k in m.wavevectors:
        for h in (0.0, 0.3, 2.0):
            assert np.array_equal(covariance_oracle(m, h, -k),
                                  covariance_oracle(m, h, k).conj())


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
