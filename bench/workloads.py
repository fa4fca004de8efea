"""The benchmark workloads: configs made from the seed, output oracles,
work counts and the per-function call counts a traced run must show.

All workloads use the acceptance model (d=2, K=8: 288 sites, 144 conjugate
pairs).  The seed only sets ``simulation.seed``; sizes never depend on it, so
runs at different seeds do the same amount of work.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    threads: int
    why: str
    simulation: dict
    probe: dict

    @property
    def builds_model(self) -> bool:
        """Whether the subcommand builds a spectrum model (all but chain)."""
        return self.subcommand != "chain"

    def config(self, seed: int) -> dict:
        return {"spectrum": {"dimension": 2, "K": 8},
                "simulation": dict(self.simulation, seed=int(seed)),
                "probe": dict(self.probe)}


# Sizes give invocations of 1-2 s, so that one 40-s run times 20-40 of them.
# Three workloads, one per subcommand, because the speed of this shared host
# drifts over minutes: runs must be 40 s long to keep the spread of run
# medians well inside the bounds, and the driver's time budget fits three
# workloads at that length.  The serial tracer path is measured inside the
# pool workers of tracer-pool and in the single run of ergodic-stacked.
WORKLOADS = {w.name: w for w in [
    Workload("tracer-pool", "tracer", 2,
             "64 short tracer runs on a 2-process pool: RK4 advect_step, exact OU "
             "steps, pair_noise and per-record work in the workers; pickling, "
             "dispatch and imbalance",
             {"dt": 0.02, "T": 1.0, "ensemble": 64, "record_every": 1}, {}),
    Workload("ergodic-stacked", "ergodic", 1,
             "member-axis field kernels (ens_pair_noise, ens_observation_step) "
             "at n=150 in the stability and coupling probes",
             {"dt": 0.01, "T": 0.5, "ensemble": 150, "record_every": 1},
             {"offsets": [1.0, 0.25, 0.0], "horizons": [5.0, 10.0]}),
    Workload("chain-tree", "chain", 1,
             "pure-Python exact-tree sweeps, ladder closed form and vectorised "
             "Monte-Carlo of the chain; no field code, so field changes predict no change",
             {}, {"chain_x": [1.0, 1.5, 2.0], "chain_n_max": 60,
                  "mc_paths": 100000}),
]}

TRACER_COLUMNS = ["run_id", "t", "x1", "x2", "disp1", "disp2", "v1", "v2", "norm"]
CHAIN_COLUMNS = ["x", "n", "closed", "exact", "mc", "mc_stderr", "H_n"]
PROBE_KEYS = {"probe", "params", "estimate", "stderr", "seed", "config_hash"}
E_PROPERTY_STRIDE = 10   # record_stride default of ergodic.e_property_probe
MOMENT_GRID_DT = 0.1     # grid_dt default of ergodic.moment_scan
# Criterion 4's horizon.  Its bound grows like T while the trapezoid gap, a
# sum of mean-zero local errors in the rough-in-time OU field, grows more
# slowly, so the bound holds at this horizon but not at the short horizons
# of the timed tracer runs (gap/bound reaches 1-4 at T <= 8).
CRITERION4_T = 200.0


def _steps(T: float, dt: float) -> int:
    return int(round(T / dt))


def output_files(w: Workload, cfg: dict, out: str) -> list[str]:
    """Files one invocation writes; a tracer ensemble adds a drift record file."""
    if w.subcommand == "tracer" and cfg["simulation"]["ensemble"] >= 2:
        return [out, out + ".drift.jsonl"]
    return [out]


def work_steps(w: Workload, cfg: dict) -> int:
    """Work units of one invocation: run-steps for the tracer, member-steps of
    the stacked kernels for ergodic, Monte-Carlo path-steps for the chain."""
    sim, pr = cfg["simulation"], cfg["probe"]
    if w.subcommand == "tracer":
        return sim["ensemble"] * _steps(sim["T"], sim["dt"])
    if w.subcommand == "ergodic":
        n = _steps(min(sim["T"], 2.0), sim["dt"])
        n_ms = _steps(min(sim["T"], 10.0), MOMENT_GRID_DT)
        return sim["ensemble"] * (n + 2 * len(pr["offsets"]) * n + n_ms)
    return len(pr["chain_x"]) * pr["chain_n_max"] * pr["mc_paths"]


def expected_calls(w: Workload, cfg: dict, n_pairs: int) -> tuple[dict, int]:
    """Calls of each traced function, and Gaussian variates drawn, implied by
    the config.  Functions not listed are expected to be called 0 times."""
    sim, pr = cfg["simulation"], cfg["probe"]
    per_draw = n_pairs * 2 * 2   # n_pairs x d x (re, im)
    calls = {"cli.main": 1, "config.parse_config": 1}
    if w.builds_model:
        calls["spectrum.build_power_law_spectrum"] = 1

    def lagrangian(runs, n, n_rec):
        return {"tracer.run_lagrangian": runs, "tracer.advect_step": runs * n,
                "field.ou_exact_step": 2 * runs * n,
                "field.pair_noise": runs * (2 * n + 1),
                "field.sample_stationary": runs,
                "field.evaluate": runs * n_rec, "tracer.shift_field": runs * n_rec,
                "field.sobolev_norm": runs * n_rec}

    if w.subcommand == "tracer":
        runs, n = sim["ensemble"], _steps(sim["T"], sim["dt"])
        n_rec = len(range(0, n + 1, sim["record_every"])) + bool(n % sim["record_every"])
        calls.update(lagrangian(runs, n, n_rec))
        calls.update({"ensemble.run_trajectory_ensemble": 1,
                      "tracer.trajectory_csv_rows": runs,
                      "tracer.stokes_drift_estimate": int(runs >= 2)})
        return calls, per_draw * calls["field.pair_noise"]

    if w.subcommand == "ergodic":
        m = sim["ensemble"]
        n_run = _steps(sim["T"], sim["dt"])
        calls.update(lagrangian(1, n_run, n_run + 1))
        n = _steps(min(sim["T"], 2.0), sim["dt"])           # stability, e-property
        n_ms = _steps(min(sim["T"], 10.0), MOMENT_GRID_DT)  # moment scan
        n_off = len(pr["offsets"])
        n_rec = n // E_PROPERTY_STRIDE + bool(n % E_PROPERTY_STRIDE)
        # moment_scan and e_property_probe each draw one stationary direction
        calls["field.sample_stationary"] += 2
        calls["field.pair_noise"] += 2
        calls["field.sobolev_norm"] += 2
        calls.update({
            "ergodic.summarize_run": 1, "ergodic.moment_scan": 1,
            "ergodic.stability_probe": 1, "ergodic.e_property_probe": 1,
            "field.noiseless_flow_step": n,
            "field.ens_tile": 1 + 2 * n_off,
            "field.ens_ou_step": n_ms,
            "field.ens_pair_noise": n_ms + n + n_off * n,
            "field.ens_observation_step": n + 2 * n_off * n,
            "field.ens_norm_m": (1 + n_ms) + 1 + n_off * (2 + 2 * n_rec)})
        normals = per_draw * (calls["field.pair_noise"]
                              + m * calls["field.ens_pair_noise"])
        return calls, normals

    xs, n_max = pr["chain_x"], pr["chain_n_max"]
    on_ladder = sum(1 for x in xs if x >= 1.0)
    calls.update({"chain.kernel_power_profile": len(xs),
                  "chain.ladder_weights": on_ladder * (1 + n_max),
                  "chain.kernel_power_closed_form": on_ladder * n_max})
    return calls, 0


def _split_header(path: str, comment_header: bool) -> tuple[list[str], list[str]]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if comment_header:
        n = 0
        while n < len(lines) and lines[n].startswith("# "):
            n += 1
        return lines[:n], lines[n:]
    return lines[:1], lines[1:]


def body_hash(w: Workload, cfg: dict, out: str) -> str:
    """Digest of the result bodies below each output's run-manifest header."""
    h = hashlib.sha256()
    for path in output_files(w, cfg, out):
        comment = path == out and w.subcommand != "ergodic"
        _, body = _split_header(path, comment)
        h.update("\n".join(body).encode())
        h.update(b"\0")
    return h.hexdigest()


def _manifest_hash(header: list[str]) -> str | None:
    for line in header:
        if line.startswith("# config_hash="):
            return line.split("=", 1)[1]
    return None


def _probe_records(body: list[str], config_hash: str) -> tuple[list[dict], list[str]]:
    recs, errs = [], []
    for line in body:
        rec = json.loads(line)
        if set(rec) != PROBE_KEYS:
            errs.append(f"probe record keys {sorted(rec)}")
        elif rec["config_hash"] != config_hash:
            errs.append(f"probe record config_hash {rec['config_hash']}")
        recs.append(rec)
    return recs, errs


def criterion4_config(cfg: dict) -> dict:
    """One run of the workload's model, dt and seed at criterion 4's horizon."""
    return dict(cfg, simulation=dict(cfg["simulation"], T=CRITERION4_T, ensemble=1))


def _check_tracer(cfg, out, config_hash) -> list[str]:
    sim = cfg["simulation"]
    runs, dt = sim["ensemble"], sim["dt"]
    n = _steps(sim["T"], dt)
    header, body = _split_header(out, True)
    errs = []
    if _manifest_hash(header) != config_hash:
        errs.append(f"manifest config_hash {_manifest_hash(header)} != {config_hash}")
    if not body or body[0].split(",") != TRACER_COLUMNS:
        return errs + [f"csv columns {body[:1]}"]
    if len(body) - 1 != runs * (n + 1):
        return errs + [f"csv has {len(body) - 1} rows, expected {runs * (n + 1)}"]
    data = np.array([row.split(",") for row in body[1:]], dtype=float)
    data = data.reshape(runs, n + 1, len(TRACER_COLUMNS))
    run_id, t = data[:, :, 0], data[:, :, 1]
    pos, disp, vel, norm = data[:, :, 2:4], data[:, :, 4:6], data[:, :, 6:8], data[:, :, 8]
    if not np.array_equal(run_id, np.repeat(np.arange(runs)[:, None], n + 1, 1)):
        errs.append("run_id column out of order")
    if not np.array_equal(t, np.tile(np.arange(n + 1) * dt, (runs, 1))):
        errs.append("time column off the step grid")
    if not (np.all(np.isfinite(data)) and np.all(norm > 0.0)):
        errs.append("non-finite value or non-positive norm")
    # the position is the unwrapped displacement taken modulo the torus
    wrap_dev = float(np.abs(np.angle(np.exp(1j * (disp - pos)))).max())
    if not wrap_dev <= 1e-9:
        errs.append(f"position differs from displacement mod 2pi by {wrap_dev:.3g}")
    if sim["T"] >= CRITERION4_T:
        worst = max(_criterion4_ratio(r[:, 1], r[:, 4:6], r[:, 6:8], dt) for r in data)
        if not worst < 1.0:
            errs.append(f"displacement identity gap/bound {worst:.3g} >= 1")
    if runs < 2:
        return errs
    _, drift_body = _split_header(out + ".drift.jsonl", False)
    recs, rec_errs = _probe_records(drift_body, config_hash)
    errs += rec_errs
    if [r["probe"] for r in recs] != ["stokes_drift"] * 2:
        return errs + [f"drift records {[r['probe'] for r in recs]}"]
    per_run = disp[:, -1] / t[:, -1:]
    mean = per_run.mean(axis=0)
    stderr = per_run.std(axis=0, ddof=1) / math.sqrt(runs)
    for r in recs:
        i = r["params"]["component"]
        if not (math.isclose(r["estimate"], mean[i], rel_tol=1e-12, abs_tol=1e-15)
                and math.isclose(r["stderr"], stderr[i], rel_tol=1e-12, abs_tol=1e-15)):
            errs.append(f"drift record {i} disagrees with the trajectories")
    return errs


def _criterion4_ratio(t, disp, vel, dt) -> float:
    """Criterion 4: trapezoid integral of the recorded velocity against the
    recorded displacement, over the bound 5 dt^2 T max|v|."""
    integral = np.concatenate([np.zeros((1, vel.shape[1])), np.cumsum(
        0.5 * (vel[1:] + vel[:-1]) * np.diff(t)[:, None], axis=0)])
    gap = float(np.abs(integral - (disp - disp[0])).max())
    return gap / (5.0 * dt ** 2 * t[-1] * float(np.abs(vel).max()))


def _check_ergodic(cfg, out, config_hash) -> list[str]:
    offsets = cfg["probe"]["offsets"]
    header, body = _split_header(out, False)
    recs, errs = _probe_records(body, config_hash)
    manifest_hash = json.loads(header[0])["manifest"]["config_hash"]
    if manifest_hash != config_hash:
        errs.append(f"manifest config_hash {manifest_hash} != {config_hash}")
    want = ["occupation_fraction", "occupation_window_min", "time_average",
            "moment_scan", "stability_probe"] + ["e_property"] * len(offsets)
    if [r["probe"] for r in recs] != want:
        return errs + [f"probe records {[r['probe'] for r in recs]}"]
    for r in recs:
        if not (math.isfinite(r["estimate"]) and math.isfinite(r["stderr"])):
            errs.append(f"non-finite {r['probe']} estimate")
        if r["probe"] == "e_property" and r["params"]["offset"] == 0.0 \
                and r["estimate"] != 0.0:
            errs.append(f"zero-offset e_property gap {r['estimate']!r} != 0")
        if r["probe"] == "stability_probe" and not 0.0 <= r["estimate"] <= 1.0:
            errs.append(f"stability probability {r['estimate']!r} outside [0, 1]")
    return errs


def _check_chain(cfg, out, config_hash) -> list[str]:
    pr = cfg["probe"]
    xs, n_max = pr["chain_x"], pr["chain_n_max"]
    header, body = _split_header(out, True)
    errs = []
    if _manifest_hash(header) != config_hash:
        errs.append(f"manifest config_hash {_manifest_hash(header)} != {config_hash}")
    if not body or body[0].split(",") != CHAIN_COLUMNS:
        return errs + [f"csv columns {body[:1]}"]
    rows = np.array([row.split(",") for row in body[1:]], dtype=float)
    if rows.shape != (len(xs) * n_max, len(CHAIN_COLUMNS)):
        return errs + [f"chain table shape {rows.shape}"]
    x, n, closed, exact, mc, se, h_n = rows.T
    if not (np.array_equal(x, np.repeat(xs, n_max))
            and np.array_equal(n, np.tile(np.arange(1, n_max + 1), len(xs)))):
        errs.append("chain table rows out of order")
    region = x + n - 1 < 5   # criterion 8b: closed form exact before re-entry
    worst = float(np.abs(closed - exact)[region].max())
    if not worst <= 1e-14:
        errs.append(f"|closed - exact| = {worst:.3g} > 1e-14 where x+n-1 < 5")
    z = float((np.abs(mc - exact) / (se + 1e-300)).max())
    if not z <= 6.0:
        errs.append(f"Monte-Carlo mean {z:.1f} standard errors from the exact tree")
    if not np.all((h_n >= 0.0) & (h_n <= 1.0)):
        errs.append("ladder weight H_n outside [0, 1]")
    return errs


_CHECKS = {"tracer": _check_tracer, "ergodic": _check_ergodic, "chain": _check_chain}


def check_output(w: Workload, cfg: dict, out: str, config_hash: str) -> list[str]:
    """Oracle checks of one invocation's outputs; returns the failures found."""
    try:
        return _CHECKS[w.subcommand](cfg, out, config_hash)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
