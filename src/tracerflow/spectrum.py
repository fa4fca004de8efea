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
sum over the full lattice is twice the sum over the rows.  The builders
produce the representatives only; a mirror -k can enter only as an entry
of :func:`spectrum_from_tables`, which maps it to its representative.
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

    Every table has one row per conjugate pair {k, -k}, at the representative
    k, the upper half of the lex-sorted lattice sites; no builder makes the
    other half.  The mirror -k carries the same gamma and the conjugate
    energy, so a sum over every lattice site (the regularity functional, the
    stationary moments) is twice the sum over the rows; minima and maxima
    over the rows are those over the lattice.
    """

    dimension: int
    m: int
    alpha: float
    wavevectors: np.ndarray        # (n_pairs, d) int, representatives in lex order
    gamma: np.ndarray              # (n_pairs,) float, all > 0
    energy: np.ndarray             # (n_pairs, d, d) complex Hermitian PSD
    # derived by _finalize
    k_norm: np.ndarray = field(default=None, repr=False)
    k_pos: np.ndarray = field(default=None, repr=False)
    sqrt_energy_pos: np.ndarray = field(default=None, repr=False)
    weight_m: np.ndarray = field(default=None, repr=False)   # |k|^{2m}, the X^m weight
    trace: np.ndarray = field(default=None, repr=False)      # Re Tr energy(k)
    _index: dict = field(default=None, repr=False)
    _decay_cache: dict = field(default_factory=dict, repr=False)
    _noise_cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_pairs(self) -> int:
        return self.wavevectors.shape[0]

    def _lookup(self, k) -> tuple[int, bool]:
        """Row of the pair holding site k, and whether k is the mirror -k of
        the row's representative."""
        key = tuple(int(c) for c in np.atleast_1d(k))
        mirror = tuple(-c for c in key)
        if key in self._index:
            return self._index[key], False
        if mirror in self._index:
            return self._index[mirror], True
        raise SpectrumError(f"wavevector {key} not in model")

    def decay(self, dt: float) -> np.ndarray:
        """exp(-gamma*dt) per conjugate-pair representative, memoized on dt (hot path)."""
        out = self._decay_cache.get(dt)
        if out is None:
            out = np.exp(-self.gamma * dt)
            self._decay_cache[dt] = out
        return out

    def noise_scale(self, dt: float) -> np.ndarray:
        """sqrt(1 - exp(-2*gamma*dt)) per conjugate-pair representative."""
        out = self._noise_cache.get(dt)
        if out is None:
            out = np.sqrt(-np.expm1(-2.0 * self.gamma * dt))
            self._noise_cache[dt] = out
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


def _h1_terms(gamma, k_norm, trace, m: int, alpha: float) -> np.ndarray:
    """Per-row terms gamma^alpha |k|^{2(m+1)} Tr energy of the regularity sum."""
    return gamma ** alpha * k_norm ** (2.0 * (m + 1)) * trace


def _finalize(d: int, m: int, alpha: float, kv: np.ndarray,
              gamma: np.ndarray, energy: np.ndarray) -> SpectrumModel:
    """Validate the tables of the pair representatives (lex-sorted) and build
    the model.  The mirror of a Hermitian PSD energy is its conjugate, which
    is Hermitian PSD too, so checking the rows covers every lattice site."""
    keys = [tuple(row) for row in kv.tolist()]
    _reject_first(~(np.isfinite(gamma) & np.isfinite(energy).all(axis=(1, 2))),
                  lambda i: f"gamma or energy at {keys[i]} is not finite")
    if np.any(gamma <= 0.0):
        raise SpectrumError("all mixing rates must be positive")
    scale = np.abs(energy).max(axis=(1, 2))
    energy_h = energy.conj().swapaxes(1, 2)
    herm = np.abs(energy - energy_h).max(axis=(1, 2))
    _reject_first(herm > HERMITIAN_RTOL * scale,
                  lambda i: f"energy at {keys[i]} not Hermitian (deviation {herm[i]:.3g})")
    eig_min = np.linalg.eigvalsh(0.5 * (energy + energy_h)).min(axis=1)
    trace = np.real(np.trace(energy, axis1=1, axis2=2))
    _reject_first(eig_min < -PSD_FLOOR_RTOL * np.maximum(trace, scale),
                  lambda i: f"energy at {keys[i]} not PSD (min eig {eig_min[i]:.3g})")

    k_pos = kv.astype(float)
    k_norm = np.sqrt((k_pos ** 2).sum(axis=1))
    with np.errstate(over="ignore", invalid="ignore"):   # a large m overflows
        weight_m = k_norm ** (2.0 * int(m))
        h1_terms = _h1_terms(gamma, k_norm, trace, int(m), float(alpha))
        h1 = 2.0 * h1_terms.sum()
    _reject_first(~(np.isfinite(weight_m) & np.isfinite(h1_terms)),
                  lambda i: f"X^m weight or H1 term at {keys[i]} is not finite (m = {m})")
    if not np.isfinite(h1):
        raise SpectrumError(f"H1 sum is not finite (m = {m})")
    # Hermitian square roots; tiny negative eigenvalues from projector
    # roundoff are clipped at the PSD floor.
    w, v = np.linalg.eigh(energy)
    w = np.where(w > 0.0, w, 0.0)
    return SpectrumModel(dimension=d, m=int(m), alpha=float(alpha),
                         wavevectors=kv, gamma=gamma, energy=energy,
                         k_norm=k_norm, k_pos=k_pos,
                         sqrt_energy_pos=np.einsum("pij,pj,pkj->pik", v, np.sqrt(w), v.conj()),
                         weight_m=weight_m, trace=trace,
                         _index=dict(zip(keys, range(len(keys)))))


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
    proj = {"full": eye, "incompressible": eye - outer, "potential": outer}[projection]
    with np.errstate(over="ignore", invalid="ignore"):   # _finalize rejects inf and nan
        energy = (sigma0 * norm ** (-decay_p))[:, None, None] * proj
        gamma = gamma_coeff * norm ** gamma_power
    return _finalize(d, m, alpha, kv, gamma, energy.astype(complex))


def spectrum_from_tables(d: int, K: int, entries: dict, m: int = 3,
                         alpha: float = 0.5) -> SpectrumModel:
    """Model from an explicit {wavevector: (gamma, energy)} table.

    A site may be listed as k or as its mirror -k; a listed -k enters the
    model at its representative k with the conjugate energy, and when both
    are listed their entries must agree.  Sites absent from the table do not
    exist in the model (the lattice ball need not be complete).
    """
    if not entries:
        raise SpectrumError("the table is empty: a model needs at least one wavevector")
    table, mirrored = {}, {}
    for k, (g, e) in entries.items():
        key = tuple(int(c) for c in k)
        if len(key) != d:
            raise SpectrumError(f"wavevector {key} has wrong dimension")
        if all(c == 0 for c in key):
            raise SpectrumError("zero wavevector not allowed")
        if max(abs(c) for c in key) > K:
            raise SpectrumError(f"wavevector {key} outside the truncation ball")
        e = np.asarray(e, dtype=complex).reshape(d, d)
        mirror = tuple(-c for c in key)
        if key > mirror:
            table[key] = (float(g), e)
        else:
            mirrored[mirror] = (float(g), e.conj())
    for key, (g, e) in sorted(mirrored.items()):
        if key not in table:
            table[key] = (g, e)
            continue
        mirror = tuple(-c for c in key)
        if g != table[key][0]:
            raise SpectrumError(f"gamma({mirror}) != gamma({key})")
        if np.abs(table[key][1] - e).max() > HERMITIAN_RTOL * (1.0 + np.abs(e).max()):
            raise SpectrumError(f"energy({key}) is not the conjugate of energy({mirror})")
    keys = sorted(table)
    kv = np.asarray(keys, dtype=int)
    gamma = np.asarray([table[k][0] for k in keys])
    energy = np.stack([table[k][1] for k in keys])
    return _finalize(d, m, alpha, kv, gamma, energy)


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
