"""Command-line front end: config ingestion, orchestration, result emission.

Exit codes: 0 success, 1 configuration or output error, 2 numerical failure,
3 a validation or acceptance check failed.  Those codes are the only
machine-readable success signal; stderr carries diagnostic prose only.
"""

from __future__ import annotations

import argparse
import datetime
import itertools
import json
import math
import sys

import numpy as np

from . import __version__
from ._ensemble import child_seeds, run_trajectory_ensemble
from .chain import (default_observable, kernel_power_closed_form, kernel_power_profile,
                    ladder_weights, mc_power_profile)
from .config import (DECAY_T_MAX, MOMENT_SCAN_T_MAX, PROBE_T_MAX, ConfigError,
                     ExperimentConfig, config_hash, parse_config)
from .ergodic import (ObservableSpec, e_property_probe, lln_test, moment_scan,
                      stability_probe, stationary_norm_moment, summarize_run)
from .field import NumericalFailure, modulus_decay_report, ou_covariance_report
from .spectrum import (SpectrumError, build_power_law_spectrum, check_h1,
                       check_h2, gamma_star, h2_tail_bound)
from .tracer import (csv_columns, run_lagrangian, stokes_drift_estimate,
                     trajectory_csv_rows)

SUBCOMMANDS = ("validate", "field", "decay", "tracer", "ergodic", "chain")

H2_T_MAX = 20.0
H2_QUAD_STEPS = 4000
CONVERGENCE_RTOL = 0.10
DECAY_TOL = 1e-6
MAX_THREADS = 64   # --threads ceiling
# Every random stream, named once and prefixed by its subcommand: stream i has spawn key
# (i,), and _ensemble.child_seeds makes its children (runs, coupling offsets, chain starts).
STREAMS = ("field", "decay", "tracer", "ergodic.run", "ergodic.moment_scan",
           "ergodic.stability", "ergodic.coupling", "ergodic.lln", "chain")


class CheckFailure(RuntimeError):
    """A validation/acceptance style check did not meet its threshold."""


def _build_model(cfg: ExperimentConfig, truncation: int | None = None):
    sp = cfg.spectrum
    return build_power_law_spectrum(sp.dimension, truncation or sp.truncation,
                                    sp.sigma0, sp.decay_p, sp.projection,
                                    sp.gamma_coeff, sp.gamma_power,
                                    m=sp.m, alpha=sp.alpha)


def _stream(cfg: ExperimentConfig, name: str) -> np.random.SeedSequence:
    """The seed of the named stream."""
    return np.random.SeedSequence(cfg.simulation.seed, spawn_key=(STREAMS.index(name),))


def _manifest(cfg: ExperimentConfig, subcommand: str) -> dict:
    """The run manifest heading every output file; it maps each stream of the
    subcommand to its spawn key."""
    return {"config_hash": config_hash(cfg), "version": __version__,
            "master_seed": cfg.simulation.seed,
            "streams": {name: [i] for i, name in enumerate(STREAMS)
                        if name.split(".")[0] == subcommand},
            "created": datetime.datetime.now(datetime.timezone.utc).isoformat()}


def _probe_record(cfg, probe: str, params: dict, estimate, stderr) -> str:
    """One JSONL line; a value that is not finite has no JSON form and fails the run."""
    rec = {"probe": probe, "params": params, "estimate": estimate,
           "stderr": stderr, "seed": cfg.simulation.seed,
           "config_hash": config_hash(cfg)}
    try:
        return json.dumps(rec, sort_keys=True, allow_nan=False)
    except ValueError:
        raise NumericalFailure(f"{probe}: estimate {estimate}, stderr {stderr} or params "
                               f"{params} is not finite") from None


def _write_lines(path: str, lines) -> None:
    try:
        with open(path, "w") as fh:
            fh.writelines(line + "\n" for line in lines)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from None


def _write_jsonl(path: str, manifest: dict, lines: list[str]) -> None:
    _write_lines(path, [json.dumps({"manifest": manifest}), *lines])


def _write_csv(path: str, manifest: dict, columns: list[str], rows) -> None:
    head = [f"# {key}={json.dumps(value) if key == 'streams' else value}"
            for key, value in manifest.items()] + [",".join(columns)]
    _write_lines(path, itertools.chain(head, rows))


def _cmd_validate(cfg: ExperimentConfig, out: str, threads: int) -> None:
    model = _build_model(cfg)
    sp = cfg.spectrum
    gs = gamma_star(model)
    h1_full = check_h1(model)
    h2_full = check_h2(model, H2_T_MAX, H2_QUAD_STEPS)
    lines = [_probe_record(cfg, "gamma_star", {"K": sp.truncation}, gs, 0.0),
             _probe_record(cfg, "h1_sum", {"K": sp.truncation}, h1_full, 0.0),
             _probe_record(cfg, "h2_quadrature",
                           {"K": sp.truncation, "t_max": H2_T_MAX,
                            "tail_bound": h2_tail_bound(model, H2_T_MAX)},
                           h2_full, 0.0)]
    converged = True
    if sp.truncation >= 2:
        half = _build_model(cfg, sp.truncation // 2)
        h1_half = check_h1(half)
        h2_half = check_h2(half, H2_T_MAX, H2_QUAD_STEPS)
        rel1 = abs(h1_full - h1_half) / max(h1_full, 1e-300)
        rel2 = abs(h2_full - h2_half) / max(h2_full, 1e-300)
        converged = rel1 <= CONVERGENCE_RTOL and rel2 <= CONVERGENCE_RTOL
        lines.append(_probe_record(cfg, "h1_half_truncation_change",
                                   {"K_half": sp.truncation // 2}, rel1, 0.0))
        lines.append(_probe_record(cfg, "h2_half_truncation_change",
                                   {"K_half": sp.truncation // 2}, rel2, 0.0))
    _write_jsonl(out, _manifest(cfg, "validate"), lines)
    print(f"gamma_star={gs} h1={h1_full} h2={h2_full} converged={converged}",
          file=sys.stderr)
    if not converged:
        raise CheckFailure("partial sums changed by more than "
                           f"{CONVERGENCE_RTOL:.0%} under truncation halving")


def _cmd_field(cfg: ExperimentConfig, out: str, threads: int) -> None:
    model = _build_model(cfg)
    rep = ou_covariance_report(model, ensemble=max(cfg.simulation.ensemble, 2),
                               lags=(0.1, 0.5, 1.0), seed=_stream(cfg, "field"))
    lines = [_probe_record(cfg, "ou_eqtime_covariance",
                           {"ensemble": rep["ensemble"]},
                           rep["max_eqtime_frobenius_rel"], 0.0),
             _probe_record(cfg, "ou_pseudo_covariance",
                           {"ensemble": rep["ensemble"]},
                           rep["max_pseudo_cov_norm"], 0.0)]
    for h, err in rep["max_lag_corr_abs_err"].items():
        lines.append(_probe_record(cfg, "ou_lag_correlation",
                                   {"lag": h, "ensemble": rep["ensemble"]},
                                   err, 0.0))
    _write_jsonl(out, _manifest(cfg, "field"), lines)


def _cmd_decay(cfg: ExperimentConfig, out: str, threads: int) -> None:
    sim = cfg.simulation
    rep = modulus_decay_report(_build_model(cfg), n_starts=sim.ensemble, dt=sim.dt,
                               horizon=min(sim.T, DECAY_T_MAX), seed=_stream(cfg, "decay"))
    lines = [_probe_record(cfg, "modulus_decay_rel_error",
                           {"n_starts": rep["n_starts"], "dt": rep["dt"],
                            "horizon": rep["horizon"]},
                           rep["max_rel_modulus_error"], 0.0),
             _probe_record(cfg, "norm_contraction_excess", {},
                           rep["max_norm_excess"], 0.0)]
    _write_jsonl(out, _manifest(cfg, "decay"), lines)
    if rep["max_rel_modulus_error"] > DECAY_TOL:
        raise CheckFailure("per-mode modulus decay error "
                           f"{rep['max_rel_modulus_error']:.3g} exceeds {DECAY_TOL}")
    if rep["max_norm_excess"] > 1e-9:
        raise CheckFailure("norm contraction violated beyond 1e-9")


def _cmd_tracer(cfg: ExperimentConfig, out: str, threads: int) -> None:
    model = _build_model(cfg)
    sim = cfg.simulation
    records = run_trajectory_ensemble(model, sim.T, sim.dt, sim.record_every,
                                      _stream(cfg, "tracer"), sim.ensemble, threads=threads)
    manifest = _manifest(cfg, "tracer")
    rows = (row for rid, rec in enumerate(records) for row in trajectory_csv_rows(rid, rec))
    _write_csv(out, manifest, csv_columns(model.dimension), rows)
    if len(records) >= 2:
        mean, stderr = stokes_drift_estimate(records)
        drift_lines = [_probe_record(
            cfg, "stokes_drift",
            {"T": records[0].final_time, "ensemble": sim.ensemble, "component": i},
            float(mean[i]), float(stderr[i])) for i in range(mean.size)]
        _write_jsonl(out + ".drift.jsonl", manifest, drift_lines)


def _cmd_ergodic(cfg: ExperimentConfig, out: str, threads: int) -> None:
    sim, pr = cfg.simulation, cfg.probe
    t_scan, t_probe = min(sim.T, MOMENT_SCAN_T_MAX), min(sim.T, PROBE_T_MAX)
    model = _build_model(cfg)
    psi = ObservableSpec(pr.observable, pr.component, pr.delta)
    ens, lines = max(sim.ensemble, 2), []   # every probe ensemble needs a spread

    rec = run_lagrangian(model, sim.T, sim.dt, sim.record_every,
                         _stream(cfg, "ergodic.run"))
    summary = summarize_run(rec, psi, delta=pr.delta)
    lines.append(_probe_record(cfg, "occupation_fraction",
                               {"delta": summary.delta, "T": summary.horizon},
                               summary.occupation_fraction, 0.0))
    lines.append(_probe_record(cfg, "occupation_window_min",
                               {"delta": summary.delta, "T": summary.horizon},
                               summary.window_min, 0.0))
    lines.append(_probe_record(cfg, "time_average",
                               {"observable": pr.observable, "T": summary.horizon},
                               summary.time_avg, summary.time_avg_stderr))

    scan = moment_scan(model, pr.R, pr.n, T=t_scan, ensemble=ens,
                       seed=_stream(cfg, "ergodic.moment_scan"))
    lines.append(_probe_record(cfg, "moment_scan",
                               {"R": pr.R, "n": pr.n, "T": float(scan.times[-1]),
                                "stationary_value": scan.stationary_value,
                                "max_value": scan.max_value},
                               scan.settled_max, 0.0))

    eps = pr.eps if pr.eps is not None else \
        3.0 * math.sqrt(stationary_norm_moment(model, 1))
    stab = stability_probe(model, eps, T=t_probe, ensemble=ens,
                           seed=_stream(cfg, "ergodic.stability"), dt=sim.dt)
    lines.append(_probe_record(cfg, "stability_probe",
                               {"eps": eps, "T": stab.horizon,
                                "norm_sq_mean": stab.norm_sq_mean,
                                "norm_sq_closed": stab.norm_sq_closed, "z": stab.z},
                               stab.probability, stab.stderr))

    coup = e_property_probe(model, pr.offsets, psi, T=t_probe, ensemble=ens,
                            seed=_stream(cfg, "ergodic.coupling"), dt=sim.dt)
    for h, dval, se, t in zip(coup.offsets, coup.profile, coup.stderr, coup.t_argmax):
        lines.append(_probe_record(cfg, "e_property",
                                   {"offset": float(h), "T": coup.horizon,
                                    "t_argmax": float(t)},
                                   float(dval), float(se)))

    if len(horizons := cfg.lln_horizons) >= 2:
        lln = lln_test(model, psi, horizons, ensemble=ens,
                       seed=_stream(cfg, "ergodic.lln"), dt=sim.dt,
                       record_every=sim.record_every, threads=threads)
        for T, var in zip(lln.horizons, lln.variances):
            lines.append(_probe_record(cfg, "lln_variance",
                                       {"T": float(T),
                                        "observable": pr.observable},
                                       float(var), 0.0))
    _write_jsonl(out, _manifest(cfg, "ergodic"), lines)


def _cmd_chain(cfg: ExperimentConfig, out: str, threads: int) -> None:
    pr, f, rows = cfg.probe, default_observable, []
    n_max = pr.chain_n_max
    for x, seed in zip(pr.chain_x, child_seeds(_stream(cfg, "chain"), len(pr.chain_x))):
        profile = kernel_power_profile(x, n_max, f)
        stay = ladder_weights(x, n_max)[0] if x >= 1.0 else np.full(n_max + 1, math.nan)
        mc_mean, mc_se = mc_power_profile(x, n_max, pr.mc_paths, seed)
        for n in range(1, n_max + 1):
            closed = kernel_power_closed_form(x, n, f) if x >= 1.0 else math.nan
            rows.append(",".join([repr(float(x)), str(n), repr(float(closed)),
                                  repr(float(profile[n])), repr(float(mc_mean[n])),
                                  repr(float(mc_se[n])), repr(float(stay[n]))]))
    _write_csv(out, _manifest(cfg, "chain"), ["x", "n", "closed", "exact", "mc",
                                        "mc_stderr", "H_n"], rows)


_HANDLERS = {"validate": _cmd_validate, "field": _cmd_field,
             "decay": _cmd_decay, "tracer": _cmd_tracer,
             "ergodic": _cmd_ergodic, "chain": _cmd_chain}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tracerflow",
        description="Spectral Monte-Carlo simulator and ergodicity diagnostics "
                    "for passive tracer transport")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", required=True, help="output artifact path")
    parser.add_argument("--seed-override", type=int, default=None)
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)

    try:
        if args.threads > MAX_THREADS:
            raise ConfigError(f"--threads: must be <= {MAX_THREADS}")
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        cfg = parse_config(text, seed=args.seed_override)
        _HANDLERS[args.subcommand](cfg, args.out, max(1, args.threads))
    except (ConfigError, SpectrumError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("config error: the config's sizes do not fit in memory", file=sys.stderr)
        return 1
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
