import functools

import numpy as np
import pytest

from tracerflow import SpectrumModel, build_power_law_spectrum

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def default_model():
    """d=2, K=8, m=3, alpha=0.5, energy |k|^-14 P_incompressible, gamma |k|^2."""
    return build_power_law_spectrum(2, 8, 1.0, 14.0, "incompressible", 1.0, 2.0)


@pytest.fixture(scope="session")
def small_model():
    return build_power_law_spectrum(2, 4, 1.0, 14.0, "incompressible", 1.0, 2.0)


@pytest.fixture(scope="session")
def full_k2_model():
    """Flat-ish full-projection model with non-negligible high modes."""
    return build_power_law_spectrum(2, 2, 1.0, 2.0, "full", 1.0, 2.0)


@functools.lru_cache(maxsize=None)
def model_of_dimension(d):
    """d = 1, 2, 3 with 8, 40 and 62 pairs; d = 1 has enough pairs for
    numpy's pairwise sum."""
    K, projection = {1: (8, "full"), 2: (4, "incompressible"),
                     3: (2, "incompressible")}[d]
    return build_power_law_spectrum(d, K, 1.0, 14.0, projection, 1.0, 2.0)


def single_pair_model(k=(1, 0), gamma=1.0, energy=None, d=2, m=3, alpha=0.5):
    if energy is None:
        energy = np.eye(d)
    return SpectrumModel(d, m, alpha, [k], [gamma], [energy])


def zero_energy_model(gammas=None, d=2):
    gammas = gammas or {(1, 0): 1.0, (0, 1): 1.0}
    keys = sorted(gammas)
    return SpectrumModel(d, 3, 0.5, keys, [gammas[k] for k in keys],
                         np.zeros((len(keys), d, d)))


def pair_row(model, k) -> int:
    """Row of the representative slice that holds the pair {k, -k}: the row
    whose wavevector is k or -k."""
    kv, k = model.wavevectors, np.asarray(k, dtype=float)
    (row,) = np.flatnonzero((kv == k).all(axis=1) | (kv == -k).all(axis=1))
    return int(row)


def pair_field(model, k, coeff):
    """Coefficients of the field with `coeff` at k and the conjugate at -k."""
    c = np.zeros((model.n_pairs, model.dimension), dtype=complex)
    row = pair_row(model, k)
    mirrored = not np.array_equal(model.wavevectors[row], k)
    c[row] = np.conj(coeff) if mirrored else coeff
    return c


def full_sites(model):
    """Every lattice site rebuilt from the pair rows: the representatives k,
    then their mirrors -k, which carry the same rate and the conjugate
    energy.  Returns k (float), gamma and energy in that site order."""
    k = np.concatenate([model.wavevectors, -model.wavevectors]).astype(float)
    return (k, np.concatenate([model.gamma, model.gamma]),
            np.concatenate([model.energy, model.energy.conj()]))
