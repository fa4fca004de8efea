"""Quick checks of the benchmark's own tracing and oracles on tiny configs."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tracing import SPAN_NAMES, Recorder, _span
from workloads import Workload, body_hash, check_output, expected_calls

ROOT = Path(__file__).resolve().parent.parent

TINY = {
    "tracer": Workload("tiny-tracer", "tracer", 2, "",
                       {"dt": 0.05, "T": 0.2, "ensemble": 3, "record_every": 1}, {}),
    "ergodic": Workload("tiny-ergodic", "ergodic", 1, "",
                        {"dt": 0.02, "T": 0.2, "ensemble": 4, "record_every": 1},
                        {"offsets": [0.5, 0.0], "horizons": [5.0, 10.0]}),
    "chain": Workload("tiny-chain", "chain", 1, "", {},
                      {"chain_x": [1.0, 2.0], "chain_n_max": 8, "mc_paths": 2000}),
}


def test_self_times_sum_to_root_span():
    rec = Recorder()
    leaf = _span(rec, "leaf", lambda: sum(range(2000)))

    def rows(n):
        for i in range(n):
            leaf()
            yield i

    rows = _span(rec, "rows", rows)

    def root():
        leaf()
        return list(rows(3))

    assert _span(rec, "root", root)() == [0, 1, 2]
    stats = rec.summary()["stats"]
    assert {k: v["calls"] for k, v in stats.items()} == {"root": 1, "leaf": 4, "rows": 1}
    total_self = sum(v["self_s"] for v in stats.values())
    assert total_self == pytest.approx(stats["root"]["incl_s"], rel=1e-9)


def _cli(w, cfg_path, out, spans=None):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    head = [sys.executable, str(ROOT / "bench" / "tracing.py"), str(spans)] if spans \
        else [sys.executable, "-m", "tracerflow"]
    args = [w.subcommand, "--config", str(cfg_path), "--out", str(out),
            "--threads", str(w.threads)]
    return subprocess.run(head + args, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=120)


@pytest.mark.parametrize("kind", sorted(TINY))
def test_traced_run_matches_config_and_untraced_result(kind, tmp_path):
    from tracerflow import build_power_law_spectrum
    from tracerflow.config import config_hash, parse_config

    w = TINY[kind]
    cfg = w.config(seed=3)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    parsed = parse_config(cfg_path.read_text())
    n_pairs = build_power_law_spectrum(2, 8, 1.0, 14.0, "incompressible",
                                       1.0, 2.0).n_pairs

    plain, traced, spans = tmp_path / "plain.out", tmp_path / "traced.out", tmp_path / "s.json"
    for proc in (_cli(w, cfg_path, plain), _cli(w, cfg_path, traced, spans)):
        assert proc.returncode == 0, proc.stderr
    for out in (plain, traced):
        assert check_output(w, cfg, str(out), config_hash(parsed)) == []
    assert body_hash(w, cfg, str(plain)) == body_hash(w, cfg, str(traced))

    got = json.loads(spans.read_text())
    calls, normals = expected_calls(w, cfg, n_pairs)
    assert {n: got["stats"].get(n, {}).get("calls", 0) for n in SPAN_NAMES} == \
        {n: calls.get(n, 0) for n in SPAN_NAMES}
    assert got["normals"] == normals
    if kind == "tracer":   # every job ran in a pool worker, none in the CLI process
        assert got["busy"] and str(got["pid"]) not in got["busy"]
