import copy
import datetime
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tracerflow import (ConfigError, ObservableSpec, __version__, build_power_law_spectrum,
                        cli, config_hash, e_property_probe, parse_config,
                        run_trajectory_ensemble, serialize_config)
from tracerflow.field import ou_covariance_report
from tracerflow._ensemble import child_seeds


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "tracerflow", *args],
                          capture_output=True, text=True)


def body_of(path):
    """Output lines with the manifest header stripped."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if lines and lines[0].startswith("{"):
        return lines[1:]
    return [ln for ln in lines if not ln.startswith("#")]


# the spawn key of every stream each subcommand draws from
STREAMS = {"validate": {}, "field": {"field": [0]}, "decay": {"decay": [1]},
           "tracer": {"tracer": [2]},
           "ergodic": {"ergodic.run": [3], "ergodic.moment_scan": [4],
                       "ergodic.stability": [5], "ergodic.coupling": [6],
                       "ergodic.lln": [7]},
           "chain": {"chain": [8]}}


def expected_manifest(cfg_path, subcommand):
    """Every manifest entry but the creation time, in order."""
    cfg = parse_config(cfg_path.read_text())
    return {"config_hash": config_hash(cfg), "version": __version__,
            "master_seed": cfg.simulation.seed, "streams": STREAMS[subcommand]}


def assert_created_is_utc(created):
    assert datetime.datetime.fromisoformat(created).utcoffset() == datetime.timedelta(0)


def assert_jsonl_manifest(path, cfg_path, subcommand):
    with open(path) as fh:
        manifest = json.loads(fh.readline())["manifest"]
    want = expected_manifest(cfg_path, subcommand)
    assert list(manifest) == [*want, "created"]
    assert_created_is_utc(manifest.pop("created"))
    assert manifest == want


def assert_csv_manifest(path, cfg_path, subcommand):
    with open(path) as fh:
        head = [ln for ln in fh.read().splitlines() if ln.startswith("#")]
    want = expected_manifest(cfg_path, subcommand)
    assert head[:-1] == [f"# config_hash={want['config_hash']}",
                         f"# version={want['version']}",
                         f"# master_seed={want['master_seed']}",
                         "# streams=" + json.dumps(want["streams"])]
    assert head[-1].startswith("# created=")
    assert_created_is_utc(head[-1].removeprefix("# created="))


def test_import_leaves_the_process_pool_unloaded():
    # concurrent.futures pulls in multiprocessing, a visible share of every CLI
    # start; only run_trajectory_ensemble with threads > 1 imports it
    probe = "import sys, tracerflow.cli; print('concurrent.futures' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


# ---------------------------------------------------------------- parsing

def test_minimal_config_gets_documented_defaults():
    cfg = parse_config('{"dimension": 2, "K": 4, "seed": 1}')
    assert cfg.spectrum.dimension == 2
    assert cfg.spectrum.truncation == 4
    assert cfg.simulation.seed == 1
    assert cfg.simulation.dt == pytest.approx(1e-3)
    assert cfg.simulation.T == pytest.approx(10.0)
    assert cfg.spectrum.m == 3
    assert cfg.spectrum.alpha == pytest.approx(0.5)


def test_zero_dt_rejected_with_field_path():
    with pytest.raises(ConfigError, match="simulation.dt"):
        parse_config('{"simulation": {"dt": 0.0, "seed": 1}}')


def test_missing_seed_rejected():
    with pytest.raises(ConfigError, match="simulation.seed"):
        parse_config('{"dimension": 2}')


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown key bogus"):
        parse_config('{"seed": 1, "bogus": 3}')
    with pytest.raises(ConfigError, match="unknown key spectrum.bogus"):
        parse_config('{"seed": 1, "spectrum": {"bogus": 3}}')


def test_duplicate_shorthand_rejected():
    with pytest.raises(ConfigError, match="set twice"):
        parse_config('{"seed": 1, "simulation": {"seed": 2}}')


@pytest.mark.parametrize("doc", [
    {"seed": 1, "K": 4},
    {"K": 4, "simulation": {"seed": 1, "dt": 0.01}},
    {"seed": 1, "simulation": {"seed": 2, "dt": 0.01}},
    {"K": 4, "simulation": {"dt": 0.01}},
], ids=["top_level", "simulation", "both", "none"])
def test_seed_override_replaces_or_supplies_the_seed(doc):
    plain = {k: v for k, v in doc.items() if k != "seed"}
    plain["simulation"] = dict(plain.get("simulation", {}), seed=999)
    want = parse_config(json.dumps(plain))
    assert parse_config(json.dumps(doc), seed=999) == want
    assert want.simulation.seed == 999


def test_schema_is_read_off_the_dataclasses():
    # every field of every section is a config key, typed by its annotation;
    # only "X | None" annotations accept null
    for section, values in asdict(parse_config('{"seed": 1}')).items():
        for key, value in values.items():
            doc = {"seed": 1, section: {key: value}} if key != "seed" else \
                {section: {key: value}}
            assert getattr(getattr(parse_config(json.dumps(doc)), section), key) == value
            doc[section][key] = None
            if key in ("delta", "eps"):
                assert getattr(parse_config(json.dumps(doc)).probe, key) is None
            else:
                with pytest.raises(ConfigError, match=f"{section}.{key}: expected"):
                    parse_config(json.dumps(doc))


def test_horizons_must_increase():
    with pytest.raises(ConfigError, match="probe.horizons"):
        parse_config('{"seed": 1, "probe": {"horizons": [5.0, 1.0]}}')


def test_serialize_roundtrip_identity():
    text = ('{"spectrum": {"K": 8, "decay_p": 14.0}, '
            '"simulation": {"seed": 77, "dt": 0.002}}')
    cfg = parse_config(text)
    again = parse_config(serialize_config(cfg))
    assert serialize_config(again) == serialize_config(cfg)
    assert config_hash(again) == config_hash(cfg)


def test_config_hash_sensitivity():
    a = parse_config('{"seed": 1}')
    b = parse_config('{"seed": 2}')
    assert config_hash(a) != config_hash(b)
    assert len(config_hash(a)) == 16


# ---------------------------------------------------------------- seeds

def states(seeds):
    return [ss.generate_state(4).tobytes() for ss in seeds]


def test_seed_derivation_is_counter_based():
    # child i extends the parent's spawn key by (i,), whatever was derived before
    parent = np.random.SeedSequence(123, spawn_key=(2,))
    s = states(child_seeds(parent, 100))
    assert len(set(s)) == 100
    assert s == states(child_seeds(parent, 100))
    assert s == states(np.random.SeedSequence(123, spawn_key=(2, i)) for i in range(100))


def test_adjacent_streams_uncorrelated():
    n = 1_000_000
    a, b = (np.random.default_rng(c).standard_normal(n) for c in child_seeds(9, 2))
    corr = float(np.corrcoef(a, b)[0, 1])
    assert abs(corr) < 3.0 / np.sqrt(n)


# ---------------------------------------------------------------- CLI

@pytest.fixture()
def small_cfg(tmp_path):
    cfg = {"spectrum": {"dimension": 2, "K": 4, "projection": "incompressible"},
           "simulation": {"dt": 0.01, "T": 1.0, "ensemble": 4,
                          "record_every": 2, "seed": 4242},
           "probe": {"offsets": [0.5, 0.25], "horizons": [0.5, 1.0],
                     "chain_n_max": 6, "mc_paths": 2000}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_validate_reports_spectral_gap(small_cfg, tmp_path):
    out = tmp_path / "val.jsonl"
    res = run_cli("validate", "--config", str(small_cfg), "--out", str(out))
    assert res.returncode == 0
    recs = [json.loads(ln) for ln in body_of(out)]
    by_probe = {r["probe"]: r for r in recs}
    assert by_probe["gamma_star"]["estimate"] == 1.0
    assert set(recs[0]) == {"probe", "params", "estimate", "stderr", "seed",
                            "config_hash"}


def test_validate_fails_on_divergent_spectrum(tmp_path):
    cfg = {"dimension": 2, "K": 8, "seed": 3,
           "spectrum": {"decay_p": 0.0}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    res = run_cli("validate", "--config", str(path), "--out",
                  str(tmp_path / "o.jsonl"))
    assert res.returncode == 3


def test_decay_subcommand_passes_tolerance(small_cfg, tmp_path):
    out = tmp_path / "dec.jsonl"
    res = run_cli("decay", "--config", str(small_cfg), "--out", str(out))
    assert res.returncode == 0
    recs = [json.loads(ln) for ln in body_of(out)]
    err = {r["probe"]: r["estimate"] for r in recs}["modulus_decay_rel_error"]
    assert err < 1e-6


def test_config_error_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"seed": 1, "simulation": {"dt": 0}}')
    res = run_cli("validate", "--config", str(path), "--out",
                  str(tmp_path / "o.jsonl"))
    assert res.returncode == 1
    assert "simulation.dt" in res.stderr


def assert_one_line_exit_1(res, *needles):
    assert res.returncode == 1
    assert len(res.stderr.splitlines()) == 1, res.stderr
    assert all(n in res.stderr for n in needles), res.stderr


def test_ergodic_horizon_below_moment_grid_is_config_error(small_cfg, tmp_path):
    cfg = json.loads(small_cfg.read_text())
    cfg["simulation"]["T"] = 0.04
    small_cfg.write_text(json.dumps(cfg))
    res = run_cli("ergodic", "--config", str(small_cfg), "--out",
                  str(tmp_path / "e.jsonl"))
    assert_one_line_exit_1(res, "simulation.T", "0.04")


@pytest.mark.parametrize("subcommand, T", [("ergodic", 0.2), ("tracer", 1.0)])
def test_unwritable_out_is_exit_1(small_cfg, tmp_path, subcommand, T):
    cfg = json.loads(small_cfg.read_text())
    cfg["simulation"]["T"] = T
    small_cfg.write_text(json.dumps(cfg))
    out = tmp_path / "missing" / "out"
    res = run_cli(subcommand, "--config", str(small_cfg), "--out", str(out))
    assert_one_line_exit_1(res, "cannot write output", str(out))


def test_numerical_failure_exit_code(small_cfg, tmp_path, monkeypatch):
    # the stepping kernels raise NumericalFailure on non-finite states; the
    # front end must turn that into exit code 2
    from tracerflow import NumericalFailure
    from tracerflow import cli as cli_mod

    def blow_up(cfg, out, threads):
        raise NumericalFailure("non-finite coefficients after advect_step")

    monkeypatch.setitem(cli_mod._HANDLERS, "tracer", blow_up)
    code = cli_mod.main(["tracer", "--config", str(small_cfg), "--out",
                         str(tmp_path / "t.csv")])
    assert code == 2


def test_nonfinite_config_values_rejected(tmp_path):
    path = tmp_path / "inf.json"
    path.write_text('{"seed": 1, "spectrum": {"sigma0": 1e999}}')
    res = run_cli("validate", "--config", str(path), "--out",
                  str(tmp_path / "o.jsonl"))
    assert res.returncode == 1
    assert "sigma0" in res.stderr


def test_tracer_output_reproducible_and_thread_invariant(small_cfg, tmp_path):
    outs = []
    for tag, threads in (("a", "1"), ("b", "1"), ("c", "2")):
        out = tmp_path / f"t_{tag}.csv"
        res = run_cli("tracer", "--config", str(small_cfg), "--out", str(out),
                      "--threads", threads)
        assert res.returncode == 0
        outs.append(body_of(out))
    assert outs[0] == outs[1] == outs[2]
    header = outs[0][0]
    assert header == "run_id,t,x1,x2,disp1,disp2,v1,v2,norm"


def test_seed_override_changes_output(small_cfg, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run_cli("tracer", "--config", str(small_cfg), "--out", str(a)).returncode == 0
    assert run_cli("tracer", "--config", str(small_cfg), "--out", str(b),
                   "--seed-override", "999").returncode == 0
    assert body_of(a) != body_of(b)


@pytest.mark.parametrize("simulation", [[1, 2], "x"])
@pytest.mark.parametrize("override", [[], ["--seed-override", "3"]],
                         ids=["plain", "seed_override"])
def test_non_object_simulation_is_one_line_exit_1(tmp_path, simulation, override):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"simulation": simulation}))
    res = run_cli("tracer", "--config", str(path), "--out",
                  str(tmp_path / "t.csv"), *override)
    assert_one_line_exit_1(res, "simulation: expected an object")


@pytest.mark.parametrize("text, override, needle", [
    ('{"seed": 1,', "3", "config is not valid JSON"),
    ('{"seed": 1}', "-1", "simulation.seed: must be >= 0"),
], ids=["invalid_json", "negative_override"])
def test_seed_override_errors_are_one_line_exit_1(tmp_path, text, override, needle):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    res = run_cli("validate", "--config", str(path), "--out",
                  str(tmp_path / "v.jsonl"), "--seed-override", override)
    assert_one_line_exit_1(res, needle)


@pytest.fixture
def serial_pool(monkeypatch):
    """Replace the process pool by an in-process map; returns the max_workers
    of every pool opened."""
    import concurrent.futures
    opened = []

    class SerialPool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return opened


@pytest.mark.parametrize("threads, n_runs, workers", [(8, 3, 3), (2, 5, 2), (64, 2, 2)])
def test_pool_never_has_more_workers_than_runs(small_model, serial_pool, threads,
                                               n_runs, workers):
    from tracerflow import run_trajectory_ensemble
    args = (small_model, 0.05, 0.01, 1, 7, n_runs)
    got = run_trajectory_ensemble(*args, threads=threads)
    assert serial_pool == [workers]
    want = run_trajectory_ensemble(*args, threads=1)
    assert [r.positions.tobytes() + r.field_norms.tobytes() for r in got] == \
        [r.positions.tobytes() + r.field_norms.tobytes() for r in want]


@pytest.mark.parametrize("subcommand", ["tracer", "ergodic"])
def test_threads_above_the_ceiling_is_one_line_exit_1(small_cfg, tmp_path, monkeypatch,
                                                      capsys, serial_pool, subcommand):
    from tracerflow import _ensemble
    seen = []

    def spy(*args, **kwargs):
        seen.append(args[6] if len(args) > 6 else kwargs["threads"])
        return []

    monkeypatch.setattr(_ensemble, "run_trajectory_ensemble", spy)
    monkeypatch.setattr(cli, "run_trajectory_ensemble", spy)
    out = tmp_path / "o.out"
    code = cli.main([subcommand, "--config", str(small_cfg), "--out", str(out),
                     "--threads", str(cli.MAX_THREADS + 1)])
    err = capsys.readouterr().err
    assert code == 1 and len(err.splitlines()) == 1 and "--threads" in err, err
    assert seen == [] and serial_pool == [] and not out.exists()
    if subcommand == "tracer":   # the ceiling itself is accepted
        assert cli.main([subcommand, "--config", str(small_cfg), "--out", str(out),
                         "--threads", str(cli.MAX_THREADS)]) == 0
        assert seen == [cli.MAX_THREADS]


def test_chain_subcommand_table(small_cfg, tmp_path):
    out = tmp_path / "chain.csv"
    res = run_cli("chain", "--config", str(small_cfg), "--out", str(out))
    assert res.returncode == 0
    assert_csv_manifest(out, small_cfg, "chain")
    lines = body_of(out)
    assert lines[0] == "x,n,closed,exact,mc,mc_stderr,H_n"
    for ln in lines[1:]:
        x, n, closed, exact = ln.split(",")[:4]
        if float(x) + int(n) - 1 < 5:
            assert abs(float(closed) - float(exact)) <= 1e-14


def test_tracer_manifest_lists_the_streams(small_cfg, tmp_path):
    cfg = json.loads(small_cfg.read_text())
    cfg["simulation"]["ensemble"] = 3
    small_cfg.write_text(json.dumps(cfg))
    out = tmp_path / "t.csv"
    assert cli.main(["tracer", "--config", str(small_cfg), "--out", str(out)]) == 0
    assert_csv_manifest(out, small_cfg, "tracer")
    assert_jsonl_manifest(str(out) + ".drift.jsonl", small_cfg, "tracer")


def test_ergodic_subcommand_probe_records(small_cfg, tmp_path):
    out = tmp_path / "erg.jsonl"
    res = run_cli("ergodic", "--config", str(small_cfg), "--out", str(out))
    assert res.returncode == 0
    assert_jsonl_manifest(out, small_cfg, "ergodic")
    recs = [json.loads(ln) for ln in body_of(out)]
    assert all(set(r) == {"probe", "params", "estimate", "stderr", "seed",
                          "config_hash"} for r in recs)
    probes = {r["probe"] for r in recs}
    assert {"occupation_fraction", "moment_scan", "stability_probe",
            "e_property", "lln_variance"} <= probes


def manifest_streams(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    if lines[0].startswith("{"):
        return json.loads(lines[0])["manifest"]["streams"]
    [line] = [ln for ln in lines if ln.startswith("# streams=")]
    return json.loads(line.removeprefix("# streams="))


def test_every_stream_is_distinct_and_listed(small_cfg, tmp_path, monkeypatch):
    # every seed handed to default_rng in one invocation of each subcommand: the
    # streams, the ensemble runs and the coupling offsets and chain starts
    real, drawn = np.random.default_rng, []

    def spy(seed=None):
        drawn.append(seed)
        return real(seed)

    monkeypatch.setattr(np.random, "default_rng", spy)
    master = parse_config(small_cfg.read_text()).simulation.seed
    every = []
    for sub in cli.SUBCOMMANDS:
        drawn.clear()
        out = tmp_path / sub
        assert cli.main([sub, "--config", str(small_cfg), "--out", str(out)]) == 0, sub
        assert all(isinstance(ss, np.random.SeedSequence) and ss.entropy == master
                   for ss in drawn), (sub, drawn)
        s = states(drawn)
        assert len(set(s)) == len(s), sub
        every += s
        streams = manifest_streams(out)
        assert streams == STREAMS[sub]
        assert sorted({ss.spawn_key[0] for ss in drawn}) == \
            sorted(key for [key] in streams.values()), sub
    assert len(set(every)) == len(every)
    # field, decay, 4 tracer runs; ergodic's run, scan, stability, coupling,
    # its 2 offsets and 4 LLN runs; 3 chain starts
    assert len(every) == 1 + 1 + 4 + (1 + 1 + 1 + 1 + 2 + 4) + 3


def test_children_do_not_depend_on_earlier_calls(small_model):
    # a SeedSequence passed in is never spawned from, so a second call with the
    # same object draws the same streams
    ss = np.random.SeedSequence(7, spawn_key=(2,))
    runs = [run_trajectory_ensemble(small_model, 0.05, 0.01, 1, ss, 2) for _ in range(2)]
    assert [r.positions.tobytes() for r in runs[0]] == \
        [r.positions.tobytes() for r in runs[1]]
    assert states(r.seed for r in runs[0]) == \
        states(np.random.SeedSequence(7, spawn_key=(2, i)) for i in range(2))
    psi = ObservableSpec("velocity_at_origin")
    a, b = (e_property_probe(small_model, [0.5, 0.25], psi, T=0.05, ensemble=4,
                             seed=ss, dt=0.01) for _ in range(2))
    assert a.profile.tobytes() == b.profile.tobytes()


@pytest.mark.parametrize("probe, needle", [
    ({"chain_n_max": 61}, "probe.chain_n_max"),
    ({"chain_n_max": 0}, "probe.chain_n_max"),
    ({"mc_paths": 1}, "probe.mc_paths"),
    ({"chain_x": []}, "probe.chain_x"),
], ids=["n_max_61", "n_max_0", "mc_paths_1", "chain_x_empty"])
def test_chain_probe_out_of_range_is_exit_1(small_cfg, tmp_path, probe, needle):
    cfg = json.loads(small_cfg.read_text())
    cfg["probe"].update(probe)
    small_cfg.write_text(json.dumps(cfg))
    out = tmp_path / "c.csv"
    res = run_cli("chain", "--config", str(small_cfg), "--out", str(out))
    assert_one_line_exit_1(res, needle)
    assert not out.exists()


def test_horizon_off_the_step_grid_is_exit_1(small_cfg, tmp_path):
    # T = 1.0 at dt = 0.3 would simulate to t = 0.9 and report T = 1.0
    with pytest.raises(ConfigError, match="simulation.T"):
        parse_config('{"seed": 1, "simulation": {"T": 1.0, "dt": 0.3}}')
    parse_config('{"seed": 1, "simulation": {"T": 0.9, "dt": 0.3}}')
    cfg = json.loads(small_cfg.read_text())
    cfg["simulation"].update(T=1.0, dt=0.3)
    small_cfg.write_text(json.dumps(cfg))
    res = run_cli("tracer", "--config", str(small_cfg), "--out", str(tmp_path / "t.csv"))
    assert_one_line_exit_1(res, "simulation.T", "simulation.dt")


def test_lln_horizon_off_the_record_grid_is_exit_1(small_cfg, tmp_path):
    # 0.5 is step 50, not a multiple of record_every = 3, and not the last step
    cfg = json.loads(small_cfg.read_text())
    cfg["simulation"].update(dt=0.01, record_every=3)
    cfg["probe"]["horizons"] = [0.5, 1.0]
    small_cfg.write_text(json.dumps(cfg))
    out = tmp_path / "e.jsonl"
    res = run_cli("ergodic", "--config", str(small_cfg), "--out", str(out))
    assert_one_line_exit_1(res, "probe.horizons", "0.5")
    assert not out.exists()


@pytest.mark.parametrize("probe, needle", [
    ({"observable": "bogus"}, "probe.observable"),
    ({"observable": "indicator_ball"}, "probe.delta"),
    ({"observable": "velocity_at_origin", "component": 5}, "probe.component"),
], ids=["bogus", "ball_without_delta", "component_5_at_d2"])
def test_ergodic_observable_config_is_exit_1(small_cfg, tmp_path, probe, needle):
    cfg = json.loads(small_cfg.read_text())
    cfg["probe"].update(probe)
    small_cfg.write_text(json.dumps(cfg))
    out = tmp_path / "e.jsonl"
    res = run_cli("ergodic", "--config", str(small_cfg), "--out", str(out))
    assert_one_line_exit_1(res, needle)
    assert not out.exists()


def test_ergodic_probe_records_carry_the_simulated_horizon(small_cfg, tmp_path):
    base = json.loads(small_cfg.read_text())
    for simulation, horizons in [
            ({"T": 3.0, "dt": 0.3}, []),   # the probes' min(T, 2.0) rounds to 7 steps of 0.3
            ({"T": 0.7, "dt": 0.01, "record_every": 1}, [0.35, 0.7])]:   # 70 * 0.01 != 0.7
        cfg = copy.deepcopy(base)
        cfg["simulation"].update(simulation)
        cfg["probe"].update(observable="velocity_at_origin", component=1,
                            horizons=horizons)
        small_cfg.write_text(json.dumps(cfg))
        out = tmp_path / "e.jsonl"
        res = run_cli("ergodic", "--config", str(small_cfg), "--out", str(out))
        assert res.returncode == 0, res.stderr
        T, dt = simulation["T"], simulation["dt"]
        run_T, probe_T = round(T / dt) * dt, round(min(T, 2.0) / dt) * dt
        want = {"occupation_fraction": [run_T], "occupation_window_min": [run_T],
                "time_average": [run_T], "stability_probe": [probe_T],
                "e_property": [probe_T, probe_T],
                "lln_variance": [round(h / dt) * dt for h in horizons]}
        got = {}
        for r in map(json.loads, body_of(out)):
            if "T" in r["params"]:
                got.setdefault(r["probe"], []).append(r["params"]["T"])
        assert got == {probe: ts for probe, ts in want.items() if ts}, simulation


def test_ergodic_records_carry_the_norm_check_and_the_argmax_time(small_cfg, tmp_path):
    cfg = json.loads(small_cfg.read_text())
    cfg["simulation"].update(T=0.5, ensemble=100)
    cfg["probe"].update(offsets=[1.0, 0.5, 0.0], horizons=[],
                        observable="indicator_ball", delta=2.0)
    small_cfg.write_text(json.dumps(cfg))
    out = tmp_path / "e.jsonl"
    res = run_cli("ergodic", "--config", str(small_cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    recs = [json.loads(ln) for ln in body_of(out)]
    [stab] = [r["params"] for r in recs if r["probe"] == "stability_probe"]
    # the mean of ||Z_T||^2 over the probe's ensemble against its closed form
    assert stab["norm_sq_closed"] > 0.0 and abs(stab["z"]) <= 4.0, stab
    # the sup is taken at t = 0 or on the grid of every 10th step and the last
    dt, n_steps = 0.01, 50
    grid = {0.0, n_steps * dt} | {s * dt for s in range(10, n_steps, 10)}
    times = [r["params"]["t_argmax"] for r in recs if r["probe"] == "e_property"]
    assert len(times) == 3 and set(times) <= grid, times
    assert times[-1] == 0.0 < max(times)   # zero offset: the start; others reach later


def test_tracer_and_decay_records_carry_the_simulated_horizon(small_cfg, tmp_path):
    cfg = json.loads(small_cfg.read_text())
    cfg["simulation"].update(T=0.7, dt=0.01)
    small_cfg.write_text(json.dumps(cfg))
    out = tmp_path / "t.csv"
    assert run_cli("tracer", "--config", str(small_cfg), "--out", str(out)).returncode == 0
    last_t = float(body_of(out)[-1].split(",")[1])
    assert last_t == 70 * 0.01
    drift = [json.loads(ln) for ln in body_of(str(out) + ".drift.jsonl")]
    assert [r["params"]["T"] for r in drift] == [last_t, last_t]
    out = tmp_path / "d.jsonl"
    assert run_cli("decay", "--config", str(small_cfg), "--out", str(out)).returncode == 0
    decay = [json.loads(ln) for ln in body_of(out)]
    assert decay[0]["params"]["horizon"] == 70 * 0.01


def test_ergodic_threads_reach_the_lln_ensemble(small_cfg, tmp_path, monkeypatch):
    from tracerflow import _ensemble
    real, seen = _ensemble.run_trajectory_ensemble, []

    def spy(*args):
        seen.append(args[6:])
        return real(*args[:6])   # one process: the bodies do not depend on it

    monkeypatch.setattr(_ensemble, "run_trajectory_ensemble", spy)
    out = tmp_path / "e.jsonl"
    assert cli.main(["ergodic", "--config", str(small_cfg), "--out", str(out),
                     "--threads", "3"]) == 0
    assert seen == [(3,)]


@pytest.mark.parametrize("subcommand, section, key, value, needle", [
    ("field", "simulation", "seed", -5, "simulation.seed"),
    ("decay", "simulation", "seed", -5, "simulation.seed"),
    ("ergodic", "probe", "offsets", [0.25, 1.0], "probe.offsets"),
    ("ergodic", "probe", "offsets", [1.0, -0.5], "probe.offsets"),
    ("ergodic", "probe", "horizons", [-0.5, 0.5], "probe.horizons"),
    ("ergodic", "probe", "horizons", [1e-10, 1.0], "probe.horizons"),
    ("ergodic", "spectrum", "dimension", 1, "spectrum.projection"),
    ("decay", "spectrum", "dimension", 1, "spectrum.projection"),
    ("field", "spectrum", "dimension", 1, "spectrum.projection"),
    ("tracer", "output", "format", "jsonl", "unknown key output"),
    ("validate", "probe", "offsets", ["x"], "probe.offsets[0]: expected a number"),
    ("validate", "probe", "offsets", [None], "probe.offsets[0]: expected a number"),
    ("validate", "probe", "offsets", ["1.5"], "probe.offsets[0]: expected a number"),
    ("validate", "probe", "offsets", [True], "probe.offsets[0]: expected a number"),
    ("validate", "probe", "offsets", [math.nan], "probe.offsets[0]: must be finite"),
    ("ergodic", "probe", "offsets", [math.inf, 0.5], "probe.offsets[0]: must be finite"),
    ("validate", "probe", "horizons", [0.5, "x"], "probe.horizons[1]: expected a number"),
    ("ergodic", "probe", "R", -1.0, "probe.R"),
    ("validate", "spectrum", "decay_p", -1000, "is not finite"),
    ("tracer", "spectrum", "decay_p", -1000, "is not finite"),
    ("validate", "spectrum", "gamma_power", 2000, "is not finite"),
    ("tracer", "spectrum", "gamma_power", 2000, "is not finite"),
    ("validate", "spectrum", "m", 400, "X^m weight or H1 term at (0, 3) is not finite"),
    ("tracer", "spectrum", "m", 400, "X^m weight or H1 term at (0, 3) is not finite"),
    ("ergodic", "spectrum", "m", 400, "X^m weight or H1 term at (0, 3) is not finite"),
], ids=["field_seed", "decay_seed", "offsets_increasing", "offsets_negative",
        "horizon_negative", "horizon_at_step_0", "ergodic_d1", "decay_d1", "field_d1",
        "output_section",
        "offsets_string", "offsets_null", "offsets_numeric_string", "offsets_bool",
        "offsets_nan", "offsets_infinity", "horizons_string_second", "radius_negative",
        "energy_overflow_validate", "energy_overflow_tracer",
        "rate_overflow_validate", "rate_overflow_tracer",
        "weight_overflow_validate", "weight_overflow_tracer", "weight_overflow_ergodic"])
def test_invalid_config_is_one_line_exit_1(small_cfg, tmp_path, subcommand, section,
                                           key, value, needle):
    cfg = json.loads(small_cfg.read_text())
    cfg.setdefault(section, {})[key] = value
    small_cfg.write_text(json.dumps(cfg))
    out = tmp_path / "o.out"
    res = run_cli(subcommand, "--config", str(small_cfg), "--out", str(out))
    assert_one_line_exit_1(res, needle)
    assert not out.exists()


# ---------------------------------------------------------------- CLI fuzz

TINY = {"spectrum": {"dimension": 2, "truncation": 2},
        "simulation": {"dt": 0.05, "T": 0.2, "ensemble": 2, "record_every": 1,
                       "seed": 5},
        "probe": {"offsets": [0.5, 0.25], "horizons": [0.1, 0.2],
                  "chain_x": [1.0, 1.5], "chain_n_max": 4, "mc_paths": 50}}


# float fields whose size sets no amount of work, so a huge value ends quickly
HUGE = 1e160
HUGE_FIELDS = {"sigma0", "gamma_coeff", "R", "eps", "delta", "offsets", "chain_x"}


def _single_field_mutations():
    """Every numeric config field flipped in sign, zeroed, or (lists) reversed
    or with a non-numeric or non-finite last entry, the dimension set to 1, and
    each of HUGE_FIELDS (lists: the first or the last entry) set to HUGE."""
    out = [(("spectrum", "dimension"), 1)]
    for section, fields in asdict(parse_config(json.dumps(TINY))).items():
        for key, v in fields.items():
            if isinstance(v, list):
                values = [v[::-1], [-x for x in v], [0.0] * len(v),
                          [*v[:-1], "x"], [*v[:-1], math.inf]]
            elif v is None:
                values = [-1.0, 0.0]
            elif isinstance(v, (int, float)):
                values = [-v, 0 * v]
            else:
                continue
            if key in HUGE_FIELDS:
                values += [[HUGE, *v[1:]], [*v[:-1], HUGE]] if isinstance(v, list) \
                    else [HUGE]
            out += [((section, key), value) for value in values]
    return out


def _no_json_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=100, deadline=None)
@given(mutation=st.sampled_from(_single_field_mutations()))
@example(mutation=(("simulation", "seed"), -5))
@example(mutation=(("probe", "offsets"), [0.25, 0.5]))
@example(mutation=(("probe", "offsets"), [-0.5, -0.25]))
@example(mutation=(("probe", "horizons"), [0.0, 0.0]))
@example(mutation=(("spectrum", "dimension"), 1))
@example(mutation=(("probe", "offsets"), [0.5, "x"]))
@example(mutation=(("probe", "R"), HUGE))
@example(mutation=(("spectrum", "sigma0"), HUGE))
@example(mutation=(("probe", "offsets"), [HUGE, 0.25]))
@example(mutation=(("probe", "horizons"), [1e-10, 0.2]))
def test_cli_keeps_its_exit_codes_under_single_field_mutations(mutation):
    (section, key), value = mutation
    cfg = copy.deepcopy(TINY)
    cfg[section][key] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        for sub in cli.SUBCOMMANDS:
            out = os.path.join(tmp, sub)
            code = cli.main([sub, "--config", path, "--out", out])
            assert code in (0, 1, 2, 3), (sub, code)
            jsonl = {"tracer": out + ".drift.jsonl", "chain": None}.get(sub, out)
            if jsonl is not None and os.path.exists(jsonl):
                with open(jsonl) as fh:
                    for line in fh:
                        json.loads(line, parse_constant=_no_json_constant)


# ---------------------------------------------------------------- huge magnitudes

def run_tiny(tmp_path, subcommand, **sections):
    cfg = copy.deepcopy(TINY)
    for section, values in sections.items():
        cfg[section].update(values)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    return run_cli(subcommand, "--config", str(path), "--out", str(out)), out


@pytest.mark.parametrize("subcommand, sections, probe", [
    ("ergodic", {"probe": {"R": HUGE}}, "moment_scan"),
    ("field", {"spectrum": {"sigma0": HUGE}}, "ou_eqtime_covariance"),
    ("ergodic", {"spectrum": {"sigma0": HUGE}}, "stability_probe"),
    ("ergodic", {"spectrum": {"sigma0": HUGE}, "probe": {"n": 2}}, "moment_scan"),
], ids=["moment_radius", "field_energy", "stability_energy", "moment_energy_n2"])
def test_statistic_past_the_float_range_is_exit_2(tmp_path, subcommand, sections, probe):
    # no Infinity or NaN reaches the JSONL output, and no traceback or numpy
    # warning reaches stderr: one line names the probe
    res, out = run_tiny(tmp_path, subcommand, **sections)
    assert res.returncode == 2, res.stderr
    assert len(res.stderr.splitlines()) == 1, res.stderr
    assert res.stderr.startswith(f"numerical failure: {probe}: "), res.stderr
    assert not out.exists()


def test_decay_step_longer_than_the_horizon_is_exit_1(tmp_path):
    # min(T, 5) rounds to no step of dt, which left the contraction slack at -inf
    res, out = run_tiny(tmp_path, "decay", simulation={"dt": 20.0, "T": 20.0})
    assert_one_line_exit_1(res, "simulation.dt", "20.0")
    assert not out.exists()


def test_ergodic_step_longer_than_the_probe_horizon_is_exit_1(tmp_path):
    # min(T, 2) rounds to no step of dt, which ran both probes for zero steps
    res, out = run_tiny(tmp_path, "ergodic", simulation={"dt": 5.0, "T": 5.0, "ensemble": 3},
                        probe={"horizons": [5.0, 10.0]})
    assert_one_line_exit_1(res, "simulation.dt", "5.0")
    assert not out.exists()


def test_field_skips_sites_without_energy(tmp_path):
    # |k|^-1100 underflows to 0 for |k| >= 2: 8 of the 12 pairs carry no
    # energy, and their covariance statistics would be 0/0
    res, _ = run_tiny(tmp_path, "field", spectrum={"decay_p": 1100},
                      simulation={"dt": 0.01, "T": 0.2, "ensemble": 50})
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""


@pytest.mark.filterwarnings("error")
def test_covariance_report_without_energy_raises_no_warning():
    model = build_power_law_spectrum(2, 2, 1.0, 1100.0, "incompressible", 1.0, 2.0)
    assert np.count_nonzero(model.energy.any(axis=(1, 2))) == 4
    rep = ou_covariance_report(model, ensemble=50, lags=(0.1, 0.5, 1.0), seed=1)
    assert all(math.isfinite(v) for v in rep["max_lag_corr_abs_err"].values())


def test_huge_chain_start_climbs_surely_without_numpy_warnings(tmp_path):
    res, out = run_tiny(tmp_path, "chain", probe={"chain_x": [1e200]})
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""
    header, *rows = body_of(out)
    assert header.split(",")[-1] == "H_n"
    assert len(rows) == TINY["probe"]["chain_n_max"]
    assert all(float(row.split(",")[-1]) == 1.0 for row in rows)


def test_huge_coupling_offset_reads_one_without_numpy_warnings(tmp_path):
    # the offset's norm overflows to inf, and tanh(inf) = 1 against tanh(0) = 0
    res, out = run_tiny(tmp_path, "ergodic", probe={"offsets": [HUGE, 0.25]})
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""
    coupling = [r for r in map(json.loads, body_of(out)) if r["probe"] == "e_property"]
    assert coupling[0]["params"]["offset"] == HUGE
    assert coupling[0]["estimate"] == 1.0


@pytest.mark.parametrize("subcommand", ["validate", "tracer"])
def test_lattice_too_large_to_allocate_is_one_line_exit_1(tmp_path, subcommand):
    # 17^14 sites: numpy refuses the request at once
    path = tmp_path / "cfg.json"
    path.write_text('{"dimension": 14, "K": 8, "seed": 1}')
    out = tmp_path / "out"
    res = run_cli(subcommand, "--config", str(path), "--out", str(out))
    assert_one_line_exit_1(res, "do not fit in memory")
    assert not out.exists()
