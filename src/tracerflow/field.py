"""Fourier-space fields on the torus and their exact / Galerkin dynamics.

A real d-vector field V(xi) = sum_k c(k) e^{i k.xi}, c(-k) = conj(c(k)), over
the sites of a :class:`~tracerflow.spectrum.SpectrumModel` (which has no k = 0
site) is stored as one coefficient per conjugate pair: the representatives
c(k) at k = model.k_pos.  The mirrors are implied, so fields are real by
construction and a sum over all sites is 2 Re of the representative sum.
A field is its coefficient array, of shape (..., n_pairs, d): one field or a
stack of members, and every kernel takes (model, coeffs).  The module
provides the Sobolev norms, exact Ornstein-Uhlenbeck stepping (one step
equals the continuous transition kernel in law, for any step size; the decay
semigroup alone is model.decay), the noiseless observation flow and the
Galerkin splitting step for the noisy observation process.

Stiff handling: per mode the linear part contributes an exact factor
exp(-gamma(k) dt), so the Runge-Kutta stages here act on the integrating-
factor transformed system.  The advective coupling is a pure phase rotation
per mode, hence moduli decay exactly like exp(-gamma(k) t) up to a tiny
phase-stage drift, which is what the decay diagnostics rely on.
"""

from __future__ import annotations

import numpy as np

from .spectrum import SpectrumModel

_SQRT2 = np.sqrt(2.0)
_DECAY_CHECKPOINTS = 20   # modulus_decay_report compares at about this many times
_TOP_MODES = 10           # sites checked by ou_covariance_report


class NumericalFailure(RuntimeError):
    """Non-finite state detected during time stepping."""


def zero_field(model: SpectrumModel) -> np.ndarray:
    return np.zeros((model.n_pairs, model.dimension), dtype=complex)


def _check_finite(coeffs: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(coeffs)):
        raise NumericalFailure(f"non-finite coefficients after {what}")


def _norm(model: SpectrumModel, coeffs: np.ndarray, r: float) -> np.ndarray:
    """X^r norm over the leading axes; each representative stands for two sites."""
    w = model.sobolev_weight(r)
    return np.sqrt(2.0 * ((np.abs(coeffs) ** 2).sum(axis=-1) * w).sum(axis=-1))


def sobolev_norm(model: SpectrumModel, coeffs: np.ndarray, r: float) -> float | np.ndarray:
    """X^r norm sqrt(sum_k |k|^{2r} |c(k)|^2) over every lattice site, one per member."""
    return _norm(model, coeffs, r)


def origin_value(coeffs: np.ndarray) -> np.ndarray:
    """Field value at xi = 0 (all phases are 1): 2 Re of the representative sum."""
    return 2.0 * np.einsum("...pd->...d", coeffs.real)


def _eval(coeffs: np.ndarray, k: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """2 Re sum_p c_p e^{i k_p.xi}."""
    return 2.0 * (np.exp(1j * (k @ xi)) @ coeffs).real


def evaluate(model: SpectrumModel, coeffs: np.ndarray, xi) -> np.ndarray:
    """Trigonometric synthesis of the field at xi.

    Exact at off-grid points; cost O(n_pairs).  The sum runs over the
    representatives and takes twice its real part, so the value is real.
    """
    return _eval(coeffs, model.k_pos, np.asarray(xi, dtype=float))


def _pair_draw(model: SpectrumModel, rng: np.random.Generator,
               scale: np.ndarray | None, lead_shape: tuple) -> np.ndarray:
    """The pair-noise draw, bitwise equal to the einsum "pij,...pj->...pi" of
    (re + 1j im) / sqrt(2) (numpy's complex / real is a multiply by
    1 / real), summed into zeros one (lead, n_pairs) slab at a time."""
    z = rng.standard_normal(lead_shape + (model.n_pairs, model.dimension, 2))
    z *= 1.0 / _SQRT2
    w = z.view(complex)[..., 0]
    eta = np.zeros(w.shape, dtype=complex)
    for i in range(model.dimension):
        acc = eta[..., i]
        for j in range(model.dimension):
            acc += model.sqrt_energy_pos[:, i, j] * w[..., j]
        if scale is not None:
            acc *= scale
    return eta


def pair_noise(model: SpectrumModel, rng: np.random.Generator,
               scale: np.ndarray | None = None, lead_shape: tuple = ()) -> np.ndarray:
    """Circular complex Gaussian increment, drawn once per conjugate pair.

    Shape lead_shape + (n_pairs, d).  Each representative gets
    scale^2 * energy(k) as second-moment matrix (scale=None means 1); the
    mirror is implied, so the field perturbation is real.  Pseudo-covariance
    is zero by construction.  Draw contract: one rng.standard_normal call of
    shape lead_shape + (n_pairs, d, 2), consumed in order.
    """
    return _pair_draw(model, rng, scale, lead_shape)


def sample_stationary(model: SpectrumModel, rng: np.random.Generator) -> np.ndarray:
    """Draw from the invariant law: per-pair circular Gaussian with second moment energy(k)."""
    return pair_noise(model, rng)


def _ou(model: SpectrumModel, coeffs: np.ndarray, dt: float,
        noise: np.ndarray) -> np.ndarray:
    new = coeffs * model.decay(dt)[:, None] + noise
    _check_finite(new, "an exact OU step")
    return new


def ou_exact_step(model: SpectrumModel, coeffs: np.ndarray, dt: float,
                  rng: np.random.Generator) -> np.ndarray:
    """Advance the Ornstein-Uhlenbeck field by dt, exactly in law.

    c(k) <- exp(-gamma dt) c(k) + eta(k), with eta circular complex Gaussian
    of second moment (1 - exp(-2 gamma dt)) energy(k); lag-h covariances are
    exp(-gamma h) energy(k) for any partition of h into steps.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    noise = pair_noise(model, rng, model.noise_scale(dt), coeffs.shape[:-2])
    return _ou(model, coeffs, dt, noise)


def covariance_oracle(model: SpectrumModel, h: float, k) -> np.ndarray:
    """Closed-form lag-h mode covariance exp(-gamma(k) h) energy(k); a mirror
    site carries the conjugate of its representative's."""
    if h < 0.0:
        raise ValueError("lag must be nonnegative")
    i, mirrored = model._lookup(k)
    cov = np.exp(-model.gamma[i] * h) * model.energy[i]
    return cov.conj() if mirrored else cov


def noiseless_flow_step(model: SpectrumModel, coeffs: np.ndarray, dt: float) -> np.ndarray:
    """One step of the noiseless observation flow c' = (-gamma + i u(t).k) c.

    u(t) is the field value at the origin, so the system is coupled through
    a single d-vector.  Classical four-stage Runge-Kutta on the integrating-
    factor transform: the exp(-gamma dt) decay is applied exactly and the
    stages only integrate the phase rotation, keeping per-mode moduli on the
    exact decay envelope.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    kt = model.k_pos.T
    e_half = model.decay(dt / 2.0)
    e_full = model.decay(dt)

    def rhs(w, decay):
        u = 2.0 * np.einsum("p,...pd->...d", decay, w.real)
        return (1j * (u @ kt))[..., None] * w

    k1 = rhs(coeffs, model.decay(0.0))
    k2 = rhs(coeffs + (0.5 * dt) * k1, e_half)
    k3 = rhs(coeffs + (0.5 * dt) * k2, e_half)
    k4 = rhs(coeffs + dt * k3, e_full)
    out = (coeffs + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)) * e_full[:, None]
    _check_finite(out, "noiseless_flow_step")
    return out


def _phase_factor(phase: np.ndarray, decay: np.ndarray) -> np.ndarray:
    """decay * exp(i phase) without complex exp (cos/sin into a buffer)."""
    fac = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=fac.real)
    np.sin(phase, out=fac.imag)
    fac *= decay
    return fac


def ens_observation_step(model: SpectrumModel, cpos: np.ndarray, dt: float,
                         noise: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Galerkin splitting step for the noisy observation process on
    coefficients (..., n_pairs, d): multiply mode k by exp((-gamma(k) + i u.k) dt)
    with u, the origin value, frozen at the step start (weak order 1), then
    add the exact Ornstein-Uhlenbeck increment noise.  The result goes to out
    (a new array when None), which may be cpos itself: the origin value is
    taken before anything is written.
    """
    u = origin_value(cpos)                                  # (..., d)
    phase = (u @ model.k_pos.T) * dt                        # (..., n_pairs)
    factor = _phase_factor(phase, model.decay(dt))
    if out is None:
        out = np.empty(cpos.shape, dtype=complex)
    for i in range(cpos.shape[-1]):   # bitwise cpos * factor[..., None]
        np.multiply(cpos[..., i], factor, out=out[..., i])
    out += noise
    _check_finite(out.view(float), "an observation step")
    return out


# ---------------------------------------------------------------------------
# Entry points on (members, n_pairs, d) stacks for the probe modules; they
# share the kernels above, and ens_pair_noise draws as pair_noise does.

def ens_tile(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Stack n copies of one field's coefficients."""
    return np.tile(coeffs[None], (n, 1, 1))


def ens_norm_m(model: SpectrumModel, cpos: np.ndarray) -> np.ndarray:
    return _norm(model, cpos, model.m)


def ens_pair_noise(model: SpectrumModel, rng: np.random.Generator,
                   scale: np.ndarray | None, n: int) -> np.ndarray:
    """pair_noise for n members."""
    return _pair_draw(model, rng, scale, (n,))


def ens_ou_step(model: SpectrumModel, cpos: np.ndarray, dt: float,
                rng: np.random.Generator) -> np.ndarray:
    noise = ens_pair_noise(model, rng, model.noise_scale(dt), cpos.shape[0])
    return _ou(model, cpos, dt, noise)


# ---------------------------------------------------------------------------
# Field-level diagnostics shared by the CLI and the acceptance suite.

def modulus_decay_report(model: SpectrumModel, n_starts: int, horizon: float,
                         dt: float, seed: int) -> dict:
    """Max relative error of per-mode |c(k,t)| against exp(-gamma t)|c(k,0)|.

    Also verifies the norm contraction ||Y(t)|| <= exp(-gamma* t)||Y(0)||
    along the way and reports the worst slack.
    """
    rng = np.random.default_rng(seed)
    n_steps = int(round(horizon / dt))
    stride = max(1, n_steps // _DECAY_CHECKPOINTS)
    gstar = float(model.gamma.min())
    w = ens_pair_noise(model, rng, None, n_starts)
    w = w / ens_norm_m(model, w)[:, None, None]   # unit X^m norm starts
    mod0 = np.abs(w)

    worst_rel = 0.0
    worst_norm_excess = -np.inf
    for step in range(1, n_steps + 1):
        w = noiseless_flow_step(model, w, dt)
        if step % stride and step != n_steps:
            continue
        t = step * dt
        oracle = mod0 * np.exp(-model.gamma * t)[None, :, None]
        mask = oracle > 1e-290
        if mask.any():
            rel = np.abs(np.abs(w[mask]) - oracle[mask]) / oracle[mask]
            worst_rel = max(worst_rel, float(rel.max()))
        excess = ens_norm_m(model, w).max() - np.exp(-gstar * t)
        worst_norm_excess = max(worst_norm_excess, float(excess))
    return {"max_rel_modulus_error": worst_rel,
            "max_norm_excess": worst_norm_excess,
            "n_starts": n_starts, "horizon": n_steps * dt, "dt": dt}


def ou_covariance_report(model: SpectrumModel, ensemble: int, lags: tuple,
                         seed: int) -> dict:
    """Monte-Carlo check of the mode covariances against the closed form.

    Equal-time: Frobenius-relative error of the empirical per-site
    covariance versus energy(k).  Lag h: trace correlation versus
    exp(-gamma(k) h) (absolute deviation).  Restricted to the _TOP_MODES
    sites of largest energy trace, and to sites that carry energy at all.
    """
    rng = np.random.default_rng(seed)
    cpos0 = ens_pair_noise(model, rng, None, ensemble)
    tr = np.real(np.trace(model.energy, axis1=1, axis2=2))
    # mirror sites carry conjugate statistics, so checking the top
    # representative pairs covers at least the _TOP_MODES sites
    sel = [i for i in np.lexsort((np.arange(tr.size), -tr))[:_TOP_MODES] if tr[i] > 0]

    def site_cov(a, b, i):
        return (a[:, i, :, None] * b[:, i, None, :].conj()).mean(axis=0)

    eq_err, pseudo = [], []
    with np.errstate(over="ignore", invalid="ignore"):   # past the float range: inf or nan
        for i in sel:
            cov = site_cov(cpos0, cpos0, i)
            eq_err.append(float(np.linalg.norm(cov - model.energy[i]) /
                                np.linalg.norm(model.energy[i])))
            pc = (cpos0[:, i, :, None] * cpos0[:, i, None, :]).mean(axis=0)
            pseudo.append(float(np.linalg.norm(pc)))
    lag_err = {}
    for h in lags:
        shifted = ens_ou_step(model, cpos0, float(h), rng)
        errs = []
        for i in sel:
            num = float(np.real(np.trace(site_cov(shifted, cpos0, i))))
            rho = num / tr[i]
            errs.append(abs(rho - float(np.exp(-model.gamma[i] * h))))
        lag_err[float(h)] = max(errs)
    return {"max_eqtime_frobenius_rel": max(eq_err),
            "max_lag_corr_abs_err": lag_err,
            "max_pseudo_cov_norm": max(pseudo),
            "ensemble": ensemble}
