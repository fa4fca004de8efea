import functools

import numpy as np
import pytest

from tracerflow import build_power_law_spectrum, spectrum_from_tables

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
    K = max(abs(c) for c in k)
    return spectrum_from_tables(d, K, {tuple(k): (gamma, energy)}, m=m, alpha=alpha)


def zero_energy_model(gammas=None, d=2, K=1):
    entries = gammas or {(1, 0): 1.0, (0, 1): 1.0}
    table = {k: (g, np.zeros((d, d))) for k, g in entries.items()}
    return spectrum_from_tables(d, K, table)


def pair_row(model, k) -> int:
    """Row of the representative slice that holds the pair {k, -k}."""
    return model._lookup(k)[0]


def pair_field(model, k, coeff):
    """Coefficients of the field with `coeff` at k and the conjugate at -k."""
    c = np.zeros((model.n_pairs, model.dimension), dtype=complex)
    row, mirrored = model._lookup(k)
    c[row] = np.conj(coeff) if mirrored else coeff
    return c


def full_sites(model):
    """Every lattice site rebuilt from the pair rows: the representatives k,
    then their mirrors -k, which carry the same rate and the conjugate
    energy.  Returns k (float), gamma and energy in that site order."""
    k = np.concatenate([model.wavevectors, -model.wavevectors]).astype(float)
    return (k, np.concatenate([model.gamma, model.gamma]),
            np.concatenate([model.energy, model.energy.conj()]))
