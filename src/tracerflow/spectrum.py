"""Statistical model of the random velocity field.

A model is a truncated wavevector lattice together with a mixing rate
``gamma(k) > 0`` (units 1/s) and a Hermitian positive-semidefinite energy
matrix ``energy(k)`` (velocity^2 units) per lattice site.  The space-time
covariance of the field is pinned to

    E[V_i(t, xi) V_j(s, eta)] = sum_k exp(-gamma(k)|t-s|) energy_ij(k) e^{i k(xi-eta)},

which is what every sampler and diagnostic in this package is checked
against.  The zero wavevector is excluded (mean-zero fields) and the site
at ``-k`` always carries the conjugate energy so that sampled fields are
real valued.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

HERMITIAN_RTOL = 1e-12
PSD_FLOOR_RTOL = 1e-12

PROJECTIONS = ("full", "incompressible", "potential")


class SpectrumError(ValueError):
    """Invalid spectrum construction or lookup."""


@dataclass
class SpectrumModel:
    """Immutable-by-convention container for the truncated field model.

    ``wavevectors`` lists every lattice site (one row per site, lex order);
    sums such as the regularity functional therefore count a real conjugate
    pair twice, matching the full-lattice convention.  ``pair_pos`` holds
    the site of one representative per conjugate pair and ``k_pos`` its
    wavevector; fields store their coefficients at these representatives.

    The sites are lex-sorted and closed under negation (k = 0 excluded), so
    negation reverses their order: the mirror of site i is site size-1-i,
    and the representatives ``pair_pos`` are the upper half of the sites.
    """

    dimension: int
    truncation: int
    m: int
    alpha: float
    wavevectors: np.ndarray        # (size, d) int
    gamma: np.ndarray              # (size,) float, all > 0
    energy: np.ndarray             # (size, d, d) complex Hermitian PSD
    # derived, filled by _finalize
    k_float: np.ndarray = field(default=None, repr=False)
    k_norm: np.ndarray = field(default=None, repr=False)
    pair_pos: np.ndarray = field(default=None, repr=False)
    k_pos: np.ndarray = field(default=None, repr=False)
    sqrt_energy_pos: np.ndarray = field(default=None, repr=False)
    _index: dict = field(default=None, repr=False)
    _weight_m: np.ndarray = field(default=None, repr=False)
    _decay_cache: dict = field(default_factory=dict, repr=False)
    _noise_cache: dict = field(default_factory=dict, repr=False)

    @property
    def size(self) -> int:
        return self.wavevectors.shape[0]

    @property
    def n_pairs(self) -> int:
        return self.pair_pos.size

    def _lookup(self, k) -> int:
        key = tuple(int(c) for c in np.atleast_1d(k))
        try:
            return self._index[key]
        except KeyError:
            raise SpectrumError(f"wavevector {key} not in model") from None

    def decay(self, dt: float) -> np.ndarray:
        """exp(-gamma*dt) per conjugate-pair representative, memoized on dt (hot path)."""
        out = self._decay_cache.get(dt)
        if out is None:
            out = np.exp(-self.gamma[self.pair_pos] * dt)
            self._decay_cache[dt] = out
        return out

    def noise_scale(self, dt: float) -> np.ndarray:
        """sqrt(1 - exp(-2*gamma*dt)) per conjugate-pair representative."""
        out = self._noise_cache.get(dt)
        if out is None:
            g = self.gamma[self.pair_pos]
            out = np.sqrt(-np.expm1(-2.0 * g * dt))
            self._noise_cache[dt] = out
        return out

    def sobolev_weight(self, r: float) -> np.ndarray:
        """|k|^{2r} per site; the X^m weight is cached."""
        if r == self.m:
            return self._weight_m
        return self.k_norm ** (2.0 * r)


def _lattice(d: int, K: int) -> np.ndarray:
    axes = [np.arange(-K, K + 1)] * d
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    grid = grid[np.any(grid != 0, axis=1)]
    order = np.lexsort(grid.T[::-1])
    return grid[order]


def _reject_first(bad: np.ndarray, message) -> None:
    """Raise message(i) for the first site i flagged in bad."""
    hits = np.flatnonzero(bad)
    if hits.size:
        raise SpectrumError(message(int(hits[0])))


def _finalize(model: SpectrumModel) -> SpectrumModel:
    kv, gamma, energy = model.wavevectors, model.gamma, model.energy
    size = kv.shape[0]
    keys = [tuple(row) for row in kv.tolist()]
    model._index = dict(zip(keys, range(size)))
    model.k_float = kv.astype(float)
    model.k_norm = np.sqrt((model.k_float ** 2).sum(axis=1))
    model._weight_m = model.k_norm ** (2.0 * model.m)

    if np.any(gamma <= 0.0):
        raise SpectrumError("all mixing rates must be positive")
    if size % 2 or not np.array_equal(kv[::-1], -kv):
        for key in keys:
            mirror = tuple(-c for c in key)
            if mirror not in model._index:
                raise SpectrumError(f"mirror site {mirror} of {key} is missing")
        raise SpectrumError("sites must be lex-sorted and closed under negation, without k = 0")
    # from here on the mirror of site i is site size-1-i
    _reject_first(gamma != gamma[::-1],
                  lambda i: f"gamma({keys[i]}) != gamma({keys[-1 - i]})")
    scale = np.abs(energy).max(axis=(1, 2))
    conj = energy.conj()
    _reject_first(np.abs(energy[::-1] - conj).max(axis=(1, 2)) > HERMITIAN_RTOL * (1.0 + scale),
                  lambda i: f"energy({keys[-1 - i]}) is not the conjugate of energy({keys[i]})")
    energy_h = conj.swapaxes(1, 2)
    herm = np.abs(energy - energy_h).max(axis=(1, 2))
    _reject_first(herm > HERMITIAN_RTOL * scale,
                  lambda i: f"energy at {keys[i]} not Hermitian (deviation {herm[i]:.3g})")
    eig_min = np.linalg.eigvalsh(0.5 * (energy + energy_h)).min(axis=1)
    trace = np.real(np.trace(energy, axis1=1, axis2=2))
    _reject_first(eig_min < -PSD_FLOOR_RTOL * np.maximum(trace, scale),
                  lambda i: f"energy at {keys[i]} not PSD (min eig {eig_min[i]:.3g})")

    model.pair_pos = np.arange(size // 2, size)
    model.k_pos = model.k_float[model.pair_pos]

    # Hermitian square roots for the pair representatives; tiny negative
    # eigenvalues from projector roundoff are clipped at the PSD floor.
    e_pos = model.energy[model.pair_pos]
    w, v = np.linalg.eigh(e_pos)
    w = np.where(w > 0.0, w, 0.0)
    model.sqrt_energy_pos = np.einsum(
        "pij,pj,pkj->pik", v, np.sqrt(w), v.conj())
    return model


def build_power_law_spectrum(d: int, K: int, sigma0: float, decay_p: float,
                             projection: str, gamma_coeff: float,
                             gamma_power: float, m: int = 3,
                             alpha: float = 0.5) -> SpectrumModel:
    """Power-law model on the full lattice ball {0 < |k|_inf <= K}.

    energy(k) = sigma0 * |k|^{-decay_p} * P(k) with P the identity, the
    projector orthogonal to k, or the projector onto k; gamma(k) =
    gamma_coeff * |k|^{gamma_power}.  |k| is Euclidean.
    """
    if d < 1:
        raise SpectrumError("dimension must be >= 1")
    if K < 1:
        raise SpectrumError("truncation must be >= 1")
    if sigma0 <= 0.0:
        raise SpectrumError("sigma0 must be positive")
    if gamma_coeff <= 0.0:
        raise SpectrumError("gamma_coeff must be positive")
    if gamma_power < 1.0:
        raise SpectrumError("gamma_power must be >= 1")
    if projection not in PROJECTIONS:
        raise SpectrumError(f"projection must be one of {PROJECTIONS}")

    kv = _lattice(d, K)
    kf = kv.astype(float)
    norm2 = (kf ** 2).sum(axis=1)
    norm = np.sqrt(norm2)

    outer = kf[:, :, None] * kf[:, None, :] / norm2[:, None, None]
    eye = np.broadcast_to(np.eye(d), outer.shape)
    if projection == "full":
        proj = np.array(eye, dtype=float)
    elif projection == "incompressible":
        proj = eye - outer
    else:
        proj = outer

    energy = (sigma0 * norm ** (-decay_p))[:, None, None] * proj
    gamma = gamma_coeff * norm ** gamma_power
    model = SpectrumModel(dimension=d, truncation=K, m=int(m), alpha=float(alpha),
                          wavevectors=kv, gamma=gamma,
                          energy=energy.astype(complex))
    return _finalize(model)


def spectrum_from_tables(d: int, K: int, entries: dict, m: int = 3,
                         alpha: float = 0.5) -> SpectrumModel:
    """Model from an explicit {wavevector: (gamma, energy)} table.

    Only pair representatives need to be listed; missing mirrors are filled
    with the conjugate energy.  Sites absent from the table do not exist in
    the model (the lattice ball need not be complete).
    """
    table = {}
    for k, (g, e) in entries.items():
        key = tuple(int(c) for c in k)
        if len(key) != d:
            raise SpectrumError(f"wavevector {key} has wrong dimension")
        if all(c == 0 for c in key):
            raise SpectrumError("zero wavevector not allowed")
        if max(abs(c) for c in key) > K:
            raise SpectrumError(f"wavevector {key} outside the truncation ball")
        table[key] = (float(g), np.asarray(e, dtype=complex).reshape(d, d))
    for key in list(table):
        mirror = tuple(-c for c in key)
        if mirror not in table:
            g, e = table[key]
            table[mirror] = (g, e.conj())
    keys = sorted(table)
    kv = np.asarray(keys, dtype=int)
    gamma = np.asarray([table[k][0] for k in keys])
    energy = np.stack([table[k][1] for k in keys])
    model = SpectrumModel(dimension=d, truncation=K, m=int(m), alpha=float(alpha),
                          wavevectors=kv, gamma=gamma, energy=energy)
    return _finalize(model)


def gamma_star(model: SpectrumModel) -> float:
    """Smallest mixing rate over the model; the spectral gap of the decay."""
    return float(model.gamma.min())


def check_h1(model: SpectrumModel) -> float:
    """Truncated regularity functional sum_k gamma(k)^alpha |k|^{2(m+1)} Tr energy(k).

    The sum runs over every lattice site, so a real conjugate pair
    contributes twice.  Finiteness on the infinite lattice cannot be decided
    at a truncation; callers compare values across truncations (a <10%
    change when K doubles is the convergence convention used by the CLI).
    """
    tr = np.real(np.trace(model.energy, axis1=1, axis2=2))
    terms = model.gamma ** model.alpha * model.k_norm ** (2.0 * (model.m + 1)) * tr
    return float(terms.sum())


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
