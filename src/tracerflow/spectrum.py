"""Statistical model of the random velocity field.

A model is a truncated wavevector lattice together with a mixing rate
``gamma(k) > 0`` (units 1/s) and a Hermitian positive-semidefinite energy
matrix ``energy(k)`` (velocity^2 units) per lattice site.  The space-time
covariance of the field is pinned to

    E[V_i(t, xi) V_j(s, eta)] = sum_k exp(-gamma(k)|t-s|) energy_ij(k) e^{i k(xi-eta)},

which is what every sampler and diagnostic in this package is checked
against.  The zero wavevector is excluded (mean-zero fields) and the site
at ``-k`` always carries the same rate and the conjugate energy so that
sampled fields are real valued.  A model therefore keeps one row per
conjugate pair, at its representative k (the lex-larger of k and -k); a
sum over the full lattice is twice the sum over the rows, and a minimum or
maximum over the rows is that over the lattice.  A model refuses any
other row when it is built.  A model from explicit tables is
``SpectrumModel(dimension, m, alpha, wavevectors, gamma, energy)``, one row
per representative; :func:`build_power_law_spectrum` builds the power-law one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

HERMITIAN_RTOL = 1e-12
PSD_FLOOR_RTOL = 1e-12
_RSQRT2 = 1.0 / np.sqrt(2.0)

PROJECTIONS = ("full", "incompressible", "potential")


class SpectrumError(ValueError):
    """Invalid spectrum construction."""


@dataclass(eq=False)
class SpectrumModel:
    """The truncated field model, one row per conjugate pair.  It checks its
    tables and derives the per-row ones when it is built, so no model skips
    the checks; the mirror -k of a row carries the same gamma and the
    conjugate energy, so checking the rows covers every lattice site.
    Models compare by identity."""

    dimension: int
    m: int
    alpha: float
    wavevectors: np.ndarray        # (n_pairs, d) float, integer representatives
    gamma: np.ndarray              # (n_pairs,) float, all > 0
    energy: np.ndarray             # (n_pairs, d, d) complex Hermitian PSD
    k_norm: np.ndarray = field(init=False, repr=False)
    noise_factor: np.ndarray = field(init=False, repr=False)   # (n_pairs, d, r), L L^H = energy
    weight_m: np.ndarray = field(init=False, repr=False)   # |k|^{2m}, the X^m weight
    trace: np.ndarray = field(init=False, repr=False)      # Re Tr energy(k)
    _decay_cache: dict = field(default_factory=dict, init=False, repr=False)
    _draw_cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        d, m, alpha = int(self.dimension), int(self.m), float(self.alpha)
        self.dimension, self.m, self.alpha = d, m, alpha
        kv = self.wavevectors = np.asarray(self.wavevectors, dtype=float)
        gamma = self.gamma = np.asarray(self.gamma, dtype=float)
        energy = self.energy = np.asarray(self.energy, dtype=complex)
        if kv.size == 0:
            raise SpectrumError("the table is empty: a model needs at least one wavevector")
        n = gamma.size
        if (kv.shape, gamma.shape, energy.shape) != ((n, d), (n,), (n, d, d)):
            raise SpectrumError(f"table shapes {kv.shape}, {gamma.shape} and {energy.shape} "
                                f"are not (n, {d}), (n,) and (n, {d}, {d})")
        _reject_first(~(np.isfinite(kv) & (kv == np.round(kv))).all(axis=1),
                      lambda i: f"wavevector {tuple(kv[i].tolist())} is not integer")
        keys = [tuple(row) for row in kv.astype(int).tolist()]
        _reject_first(kv[np.arange(n), (kv != 0.0).argmax(axis=1)] <= 0.0,
                      lambda i: f"wavevector {keys[i]} is zero or the mirror of a "
                                "representative (its first nonzero coordinate must be > 0)")
        first = {}   # the first row of each key
        _reject_first([first.setdefault(key, i) != i for i, key in enumerate(keys)],
                      lambda i: f"wavevector {keys[i]} is listed twice")
        _reject_first(~(np.isfinite(gamma) & np.isfinite(energy).all(axis=(1, 2))),
                      lambda i: f"gamma or energy at {keys[i]} is not finite")
        _reject_first(gamma <= 0.0, lambda i: f"mixing rate at {keys[i]} is not positive")
        scale = np.abs(energy).max(axis=(1, 2))
        energy_h = energy.conj().swapaxes(1, 2)
        herm = np.abs(energy - energy_h).max(axis=(1, 2))
        _reject_first(herm > HERMITIAN_RTOL * scale,
                      lambda i: f"energy at {keys[i]} not Hermitian (deviation {herm[i]:.3g})")
        eig_min = np.linalg.eigvalsh(0.5 * (energy + energy_h)).min(axis=1)
        trace = self.trace = np.real(np.trace(energy, axis1=1, axis2=2))
        floor = PSD_FLOOR_RTOL * np.maximum(trace, scale)
        _reject_first(eig_min < -floor,
                      lambda i: f"energy at {keys[i]} not PSD (min eig {eig_min[i]:.3g})")
        k_norm = self.k_norm = np.sqrt((kv ** 2).sum(axis=1))
        with np.errstate(over="ignore", invalid="ignore"):   # a large m overflows
            weight_m = self.weight_m = k_norm ** (2.0 * m)
            h1_terms = _h1_terms(gamma, k_norm, trace, m, alpha)
            h1 = 2.0 * h1_terms.sum()
        _reject_first(~(np.isfinite(weight_m) & np.isfinite(h1_terms)),
                      lambda i: f"X^m weight or H1 term at {keys[i]} is not finite (m = {m})")
        if not np.isfinite(h1):
            raise SpectrumError(f"H1 sum is not finite (m = {m})")
        self.noise_factor = _noise_factor(energy, floor)

    @property
    def n_pairs(self) -> int:
        return self.wavevectors.shape[0]

    def decay(self, dt: float) -> np.ndarray:
        """exp(-gamma*dt) per conjugate-pair representative, memoized on dt (hot path)."""
        out = self._decay_cache.get(dt)
        if out is None:
            out = np.exp(-self.gamma * dt)
            self._decay_cache[dt] = out
        return out

    def draw_factor(self, dt: float | None) -> np.ndarray:
        """The pair-noise factor noise_factor * sqrt(1 - exp(-2*gamma*dt)) / sqrt(2)
        per row, (n_pairs, d, r); dt None is the stationary law,
        noise_factor / sqrt(2).  Memoized on dt (hot path), so it is read-only."""
        out = self._draw_cache.get(dt)
        if out is None:
            if dt is None:
                out = self.noise_factor * _RSQRT2
            else:
                scale = np.sqrt(-np.expm1(-2.0 * self.gamma * dt))
                out = self.noise_factor * (scale[:, None, None] * _RSQRT2)
            out.flags.writeable = False
            self._draw_cache[dt] = out
        return out


def _lattice(d: int, K: int) -> np.ndarray:
    """Pair representatives of the ball {0 < |k|_inf <= K} in lex order: the
    sites lex-larger than the origin, which is the middle row of the grid."""
    axes = [np.arange(-K, K + 1)] * d
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    return grid[grid.shape[0] // 2 + 1:]


def _reject_first(bad: np.ndarray, message) -> None:
    """Raise message(i) for the first row i flagged in bad."""
    hits = np.flatnonzero(bad)
    if hits.size:
        raise SpectrumError(message(int(hits[0])))


def _noise_factor(energy: np.ndarray, floor: np.ndarray) -> np.ndarray:
    """Pivoted Cholesky factor L of each energy matrix, L L^H = energy, of
    shape (n_pairs, d, r) (Higham 1990).  Pass p pivots on the largest real
    diagonal entry of the residual (the first on ties) and takes its column
    over the root of the pivot; a pivot at or below the row's PSD floor
    gives a zero column, so projector roundoff adds no rank.  r is the
    largest number of pivots over the rows, at least 1.  L depends on the
    energy alone, and it is real when the energy is real."""
    n, d, _ = energy.shape
    rows = np.arange(n)
    residual = energy.copy()
    cols = np.zeros((n, d, d), dtype=complex)
    rank = np.zeros(n, dtype=int)
    for p in range(d):
        diag = np.real(np.diagonal(residual, axis1=1, axis2=2))
        j = diag.argmax(axis=1)
        pivot = diag[rows, j]
        live = pivot > floor
        col = residual[rows, :, j] / np.sqrt(np.where(live, pivot, 1.0))[:, None]
        col[~live] = 0.0
        cols[:, :, p] = col
        residual -= col[:, :, None] * col[:, None, :].conj()
        rank += live
    return cols[:, :, :max(1, int(rank.max()))].copy()


def _h1_terms(gamma, k_norm, trace, m: int, alpha: float) -> np.ndarray:
    """Per-row terms gamma^alpha |k|^{2(m+1)} Tr energy of the regularity sum."""
    return gamma ** alpha * k_norm ** (2.0 * (m + 1)) * trace


def build_power_law_spectrum(d: int, K: int, sigma0: float, decay_p: float,
                             projection: str, gamma_coeff: float,
                             gamma_power: float, m: int = 3,
                             alpha: float = 0.5) -> SpectrumModel:
    """Power-law model on the lattice ball {0 < |k|_inf <= K}, built at its
    pair representatives.

    energy(k) = sigma0 * |k|^{-decay_p} * P(k) with P the identity, the
    projector orthogonal to k, or the projector onto k; gamma(k) =
    gamma_coeff * |k|^{gamma_power}.  |k| is Euclidean.
    """
    if d < 1:
        raise SpectrumError("dimension must be >= 1")
    if sigma0 <= 0.0:
        raise SpectrumError("sigma0 must be positive")
    if gamma_power < 1.0:
        raise SpectrumError("gamma_power must be >= 1")
    if projection not in PROJECTIONS:
        raise SpectrumError(f"projection must be one of {PROJECTIONS}")

    kv = _lattice(d, K).astype(float)
    norm2 = (kv ** 2).sum(axis=1)
    norm = np.sqrt(norm2)

    outer = kv[:, :, None] * kv[:, None, :] / norm2[:, None, None]
    eye = np.broadcast_to(np.eye(d), outer.shape)
    proj = {"full": eye, "incompressible": eye - outer, "potential": outer}[projection]
    with np.errstate(over="ignore", invalid="ignore"):   # the model rejects inf and nan
        energy = (sigma0 * norm ** (-decay_p))[:, None, None] * proj
        gamma = gamma_coeff * norm ** gamma_power
    return SpectrumModel(d, m, alpha, kv, gamma, energy.astype(complex))


def gamma_star(model: SpectrumModel) -> float:
    """Smallest mixing rate over the model; the spectral gap of the decay."""
    return float(model.gamma.min())


def check_h1(model: SpectrumModel) -> float:
    """Truncated regularity functional sum_k gamma(k)^alpha |k|^{2(m+1)} Tr energy(k).

    The sum runs over every lattice site, twice the sum over the conjugate-
    pair rows (the mirror has the same rate and trace).  Finiteness on the infinite lattice cannot be decided
    at a truncation; callers compare values across truncations (a <10%
    change when K doubles is the convergence convention used by the CLI).
    """
    return 2.0 * float(_h1_terms(model.gamma, model.k_norm, model.trace, model.m,
                                 model.alpha).sum())


def check_h2(model: SpectrumModel, t_max: float, quad_steps: int) -> float:
    """Trapezoid quadrature of max_k exp(-gamma(k) t) |k| over [0, t_max].

    Finiteness of the full integral is the temporal-mixing requirement; the
    truncated quadrature plus the tail bound from :func:`h2_tail_bound` is
    what can actually be evaluated.
    """
    if t_max <= 0.0:
        raise SpectrumError("t_max must be positive")
    if quad_steps < 2:
        raise SpectrumError("quad_steps must be >= 2")
    t = np.linspace(0.0, t_max, quad_steps + 1)
    g = np.max(np.exp(-np.outer(model.gamma, t)) * model.k_norm[:, None], axis=0)
    return float(np.trapezoid(g, t))


def h2_tail_bound(model: SpectrumModel, t_max: float) -> float:
    """Upper bound for the integrand's tail beyond t_max: max|k| e^{-gamma* t_max}/gamma*."""
    gs = gamma_star(model)
    return float(model.k_norm.max() * np.exp(-gs * t_max) / gs)
