"""tracerflow benchmark: time to result of the CLI, checked against the package's oracles.

Usage, from the root of a checkout (nothing needs building; the CLI runs from
``src/`` with PYTHONPATH)::

    python3 bench/run.py --workload tracer-pool --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40

One client drives a closed loop: it starts one ``python3 -m tracerflow``
subprocess, waits for it to exit, checks its outputs and only then starts the
next.  At most ``--threads`` (<= nproc) program processes are busy at once;
BLAS is pinned to one thread.  After one warm-up invocation, cycles repeat for
``--seconds``: each is one timed CLI invocation followed by one timed set-up
probe (``--trace 0``) or by one traced invocation (``--trace 1``).  Every
invocation at one seed must produce the same result body.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of the traced invocations (see tracing.py).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--workload all`` runs every workload in both
modes, interleaved round-robin, and prints the tables.  Each run also writes
its provenance, samples and metrics to ``bench/out/BENCH_*.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from tracing import SPAN_NAMES
from workloads import (WORKLOADS, Workload, body_hash, check_output,
                       criterion4_config, expected_calls, output_files,
                       work_steps)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
INVOCATION_TIMEOUT_S = 60.0
MIN_CYCLES = 3
BLAS_THREADS = 1
MAX_WORKERS = 2   # ensemble.worker_busy_s.w<i> slots reported

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "steps_per_s": "1/s",
             "cpu_s": "s", "peak_rss_mb": "MB"}
PER_CALL_US = ["tracer.advect_step", "field.pair_noise", "field.ens_pair_noise"]
# ROADMAP baseline per call, microseconds (ens_pair_noise at n=150)
ROADMAP_US = {"tracer.advect_step": "198", "field.pair_noise": "51",
              "field.ens_pair_noise": "5300-6400"}

# A fresh interpreter: import, parse the config and, where the subcommand
# builds one, the spectrum model.  argv: config, build (0|1), provenance (0|1).
SETUP_PROBE = r"""
import json, sys
import tracerflow
from tracerflow.config import config_hash, parse_config
from tracerflow.spectrum import build_power_law_spectrum
with open(sys.argv[1]) as fh:
    cfg = parse_config(fh.read())
info = {"file": tracerflow.__file__, "config_hash": config_hash(cfg)}
if sys.argv[2] == "1":
    sp = cfg.spectrum
    model = build_power_law_spectrum(sp.dimension, sp.truncation, sp.sigma0,
                                     sp.decay_p, sp.projection, sp.gamma_coeff,
                                     sp.gamma_power, m=sp.m, alpha=sp.alpha)
    info["n_pairs"] = int(model.n_pairs)
if sys.argv[3] == "1":
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info.update(numpy=numpy.__version__, python=sys.version.split()[0],
                blas=f"{blas.get('name')} {blas.get('version')}")
print(json.dumps(info))
"""


def per_layer_units() -> dict:
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units["field.normals_drawn"] = "count"
    for i in range(MAX_WORKERS):
        units[f"ensemble.worker_busy_s.w{i}"] = "s"
    units["ensemble.worker_imbalance"] = "ratio"
    units["ensemble.worker_busy_ratio"] = "ratio"
    units["trace.overhead_frac"] = "ratio"
    for name in PER_CALL_US:
        units[f"{name}.us_per_call"] = "us"
    return units


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def spawn(argv: list[str], env: dict, log_path: Path) -> tuple[int, float, float, int]:
    """Run argv to completion in its own process group.

    Returns (exit code, wall seconds from spawn to exit, user+sys CPU seconds
    of the process and its reaped children, their largest resident set KiB).
    """
    with open(log_path, "wb") as log:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=log, start_new_session=True)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
            wall = perf_counter() - t0
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)   # stray pool workers, should the CLI have left any
    return proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss


def _tail(path: Path, n: int = 3) -> str:
    lines = path.read_text(errors="replace").strip().splitlines()
    return " | ".join(lines[-n:])


@dataclass
class Inputs:
    """One generated config: its file, the output path, the program's hash of
    the config and the result-body digest of its first invocation."""

    cfg: dict
    path: Path
    out: Path
    config_hash: str = ""
    reference_hash: str | None = None


class Session:
    """Repeated invocations of one workload at one seed, in one mode."""

    def __init__(self, w: Workload, seed: int, trace: bool, work: Path):
        self.w, self.seed, self.trace = w, seed, trace
        self.work = work / f"{w.name}-trace{int(trace)}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.inputs = self._write("config", w.config(seed))
        # criterion 4 is checked on one extra, untimed run at its own horizon
        self.c4 = self._write("criterion4", criterion4_config(self.inputs.cfg)) \
            if w.subcommand == "tracer" else None
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
                        OMP_NUM_THREADS=str(BLAS_THREADS),
                        MKL_NUM_THREADS=str(BLAS_THREADS))
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.samples = {"wall_s": [], "cpu_s": [], "rss_kb": [], "setup_s": [],
                        "traced_wall_s": [], "spans": []}
        self.info: dict = {}
        self.cycle_s: list[float] = []

    def _write(self, name: str, cfg: dict) -> Inputs:
        path = self.work / f"{name}.json"
        path.write_text(json.dumps(cfg, sort_keys=True))
        return Inputs(cfg, path, self.work / f"{name}.out")

    # -- subprocesses -------------------------------------------------------

    def setup_probe(self, inputs: Inputs, provenance: bool = False) -> tuple[dict, float]:
        log = self.work / "setup.log"
        argv = [sys.executable, "-c", SETUP_PROBE, str(inputs.path),
                str(int(self.w.builds_model)), str(int(provenance))]
        rc, wall, _, _ = spawn(argv, self.env, log)
        if rc != 0:
            raise RuntimeError(f"set-up probe exited {rc}: {_tail(log)}")
        return json.loads(log.read_text().strip().splitlines()[-1]), wall

    def invoke(self, inputs: Inputs, traced: bool = False, timed: bool = True) -> None:
        w = self.w
        cli_args = [w.subcommand, "--config", str(inputs.path),
                    "--out", str(inputs.out), "--threads", str(w.threads)]
        spans_path = self.work / "spans.json"
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "tracing.py"), str(spans_path)]
        else:
            argv = [sys.executable, "-m", "tracerflow"]
        for path in output_files(w, inputs.cfg, str(inputs.out)) + [str(spans_path)]:
            Path(path).unlink(missing_ok=True)
        log = self.work / "cli.log"
        rc, wall, cpu, rss = spawn(argv + cli_args, self.env, log)
        self.attempted += 1
        errs = [f"exit code {rc}: {_tail(log)}"] if rc != 0 else \
            check_output(w, inputs.cfg, str(inputs.out), inputs.config_hash)
        if not errs:
            digest = body_hash(w, inputs.cfg, str(inputs.out))
            if inputs.reference_hash is None:
                inputs.reference_hash = digest
            elif digest != inputs.reference_hash:
                errs.append("result body differs from the first run at this seed")
        if traced and not errs:
            spans = json.loads(spans_path.read_text())
            errs += self.coverage_errors(spans)
            self.samples["spans"].append(spans)
        if errs:
            self.failed += 1
            self.errors.append(f"{'traced ' if traced else ''}invocation "
                               f"{self.attempted} ({inputs.path.stem}): "
                               + "; ".join(errs))
        elif timed and traced:
            self.samples["traced_wall_s"].append(wall)
        elif timed:
            self.samples["wall_s"].append(wall)
            self.samples["cpu_s"].append(cpu)
            self.samples["rss_kb"].append(rss)

    def coverage_errors(self, spans: dict) -> list[str]:
        calls, normals = expected_calls(self.w, self.inputs.cfg, self.info.get("n_pairs", 0))
        errs = []
        for name in SPAN_NAMES:
            got = spans["stats"].get(name, {}).get("calls", 0)
            if got != calls.get(name, 0):
                errs.append(f"{name}.calls {got} != {calls.get(name, 0)}")
        if spans["normals"] != normals:
            errs.append(f"field.normals_drawn {spans['normals']} != {normals}")
        return errs

    # -- schedule -----------------------------------------------------------

    def prepare(self) -> None:
        """Provenance probe, the criterion 4 run and one warm-up invocation,
        none of them timed."""
        self.info, _ = self.setup_probe(self.inputs, provenance=True)
        self.inputs.config_hash = self.info["config_hash"]
        src = (ROOT / "src").resolve()
        if not Path(self.info["file"]).resolve().is_relative_to(src):
            raise RuntimeError(f"tracerflow imported from {self.info['file']}, "
                               f"not from {src}")
        if self.w.threads * BLAS_THREADS > nproc():
            raise RuntimeError(f"{self.w.threads} workers x {BLAS_THREADS} BLAS "
                               f"threads exceed nproc={nproc()}")
        if self.c4 is not None:
            self.c4.config_hash = self.setup_probe(self.c4)[0]["config_hash"]
            self.invoke(self.c4, timed=False)
        self.invoke(self.inputs, timed=False)

    def cycle(self) -> None:
        t0 = perf_counter()
        self.invoke(self.inputs)
        if self.trace:
            self.invoke(self.inputs, traced=True)
        else:
            self.samples["setup_s"].append(self.setup_probe(self.inputs)[1])
        self.cycle_s.append(perf_counter() - t0)

    # -- results ------------------------------------------------------------

    def correct(self) -> bool:
        return self.failed == 0 and bool(self.samples["spans"] if self.trace
                                         else self.samples["wall_s"])

    def provenance(self) -> dict:
        return {"workload": self.w.name, "seed": self.seed, "trace": int(self.trace),
                "nproc": nproc(), "python": self.info.get("python"),
                "numpy": self.info.get("numpy"), "blas": self.info.get("blas"),
                "blas_threads": BLAS_THREADS, "process_workers": self.w.threads,
                "git_commit": git_commit(ROOT),
                "config_hash": self.inputs.config_hash,
                "criterion4_config_hash": self.c4.config_hash if self.c4 else None,
                "config": self.inputs.cfg, "why": self.w.why}

    def end_to_end(self) -> dict:
        s = self.samples
        wall = statistics.median(s["wall_s"])
        return {"wall_s": wall,
                "setup_s": statistics.median(s["setup_s"]),
                "steps_per_s": work_steps(self.w, self.inputs.cfg) / wall,
                "cpu_s": statistics.median(s["cpu_s"]),
                "peak_rss_mb": statistics.median(s["rss_kb"]) / 1024.0}

    def per_layer(self) -> dict:
        spans = self.samples["spans"]
        out = {}
        for name in SPAN_NAMES:
            per = [sp["stats"].get(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
                   for sp in spans]
            out[f"{name}.calls"] = per[0]["calls"]
            out[f"{name}.self_s"] = statistics.median(p["self_s"] for p in per)
            if name in PER_CALL_US:
                out[f"{name}.us_per_call"] = statistics.median(
                    1e6 * p["incl_s"] / p["calls"] if p["calls"] else 0.0 for p in per)
        out["field.normals_drawn"] = spans[0]["normals"]
        busy, imbalance, ratio = [], [], []
        for sp in spans:
            b = sorted(sp["busy"].values(), reverse=True)
            busy.append(b + [0.0] * (MAX_WORKERS - len(b)))
            pool_wall = sp["stats"].get("ensemble.run_trajectory_ensemble",
                                        {}).get("incl_s", 0.0)
            imbalance.append(max(b) / statistics.mean(b) if b else 0.0)
            ratio.append(sum(b) / (len(b) * pool_wall) if b and pool_wall else 0.0)
        for i in range(MAX_WORKERS):
            out[f"ensemble.worker_busy_s.w{i}"] = statistics.median(x[i] for x in busy)
        out["ensemble.worker_imbalance"] = statistics.median(imbalance)
        out["ensemble.worker_busy_ratio"] = statistics.median(ratio)
        out["trace.overhead_frac"] = (statistics.median(self.samples["traced_wall_s"])
                                      / statistics.median(self.samples["wall_s"]) - 1.0)
        return out

    def metrics(self) -> dict:
        """Metric name -> {value, unit}; empty when no invocation succeeded."""
        if not self.correct():
            return {}
        if self.trace:
            units = per_layer_units()
            return {k: {"value": v, "unit": units[k]} for k, v in self.per_layer().items()}
        return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in self.end_to_end().items()}

    def record(self) -> dict:
        return {"provenance": self.provenance(), "attempted": self.attempted,
                "failed": self.failed, "errors": self.errors,
                "samples": {k: v for k, v in self.samples.items() if k != "spans"},
                "metrics": self.metrics()}


def run_sessions(sessions: list[Session], seconds: float) -> None:
    """Warm up every session, then cycle them round-robin for seconds each."""
    for s in sessions:
        s.prepare()
    budget = seconds * len(sessions)
    t0 = perf_counter()
    while True:
        for s in sessions:
            s.cycle()
        n = len(sessions[0].cycle_s)
        round_s = sum(statistics.median(s.cycle_s) for s in sessions)
        if n >= MIN_CYCLES and perf_counter() - t0 + round_s > budget:
            break


def print_end_to_end(sessions: list[Session]) -> None:
    print(f"{'workload':<16} " + " ".join(f"{k + ' [' + u + ']':>18}"
                                          for k, u in E2E_UNITS.items())
          + f" {'failed_frac':>12} {'n':>4}")
    for s in sessions:
        m = s.end_to_end() if s.correct() else {}
        cells = " ".join(f"{m.get(k, float('nan')):>18.6g}" for k in E2E_UNITS)
        print(f"{s.w.name:<16} {cells} {s.failed / max(s.attempted, 1):>12.3g} "
              f"{len(s.samples['wall_s']):>4}")


def print_per_layer(sessions: list[Session]) -> None:
    tables = {s.w.name: s.per_layer() for s in sessions if s.correct()}
    if not tables:
        return
    names = list(tables)
    # share of all self time; in-process self times sum to the cli.main span,
    # pool-worker self times add worker busy time on top
    total = {n: sum(tables[n][f"{x}.self_s"] for x in SPAN_NAMES) for n in names}
    print(f"\n{'per-layer (traced)':<44} " + " ".join(f"{n:>24}" for n in names))
    for name in SPAN_NAMES:
        calls = " ".join(f"{tables[n][name + '.calls']:>24}" for n in names)
        print(f"{name + '.calls':<44} {calls}")
        cells = " ".join(
            f"{tables[n][name + '.self_s']:>14.4f} ({100 * tables[n][name + '.self_s'] / total[n]:5.1f}%)"
            for n in names)
        print(f"{name + '.self_s [s] (share)':<44} {cells}")
    units = per_layer_units()
    for key in units:
        if key.endswith((".calls", ".self_s")):
            continue
        cells = " ".join(f"{tables[n][key]:>24.6g}" for n in names)
        print(f"{key + ' [' + units[key] + ']':<44} {cells}")
    print("\nper-call time of traced kernels (inclusive, tracing on) vs ROADMAP baseline:")
    for name in PER_CALL_US:
        vals = [f"{n}: {tables[n][name + '.us_per_call']:.1f}" for n in names
                if tables[n][name + ".calls"]]
        print(f"  {name:<24} baseline {ROADMAP_US[name]} us; measured us/call "
              + ", ".join(vals))


def write_record(name: str, payload: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"BENCH_{name}.json").write_text(json.dumps(payload, indent=1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "tracerflow" / "__init__.py").is_file():
        print(f"error: no tracerflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = OUT_DIR / f"work-{os.getpid()}"
    try:
        if args.workload == "all":
            return run_all(args, work)
        return run_one(args, work)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_one(args, work: Path) -> int:
    s = Session(WORKLOADS[args.workload], args.seed, bool(args.trace), work)
    run_sessions([s], args.seconds)
    print("provenance " + json.dumps(s.provenance(), sort_keys=True))
    for err in s.errors:
        print("FAILED " + err)
    if s.trace:
        if s.correct():
            print_per_layer([s])
    else:
        print_end_to_end([s])
    write_record(f"{s.w.name}_seed{s.seed}_trace{int(s.trace)}", s.record())
    print(json.dumps({"correct": s.correct(), "attempted": s.attempted,
                      "failed": s.failed, "metrics": s.metrics()}))
    return 0


def run_all(args, work: Path) -> int:
    plain = [Session(w, args.seed, False, work) for w in WORKLOADS.values()]
    traced = [Session(w, args.seed, True, work) for w in WORKLOADS.values()]
    run_sessions(plain + traced, args.seconds)
    print("provenance " + json.dumps({k: v for k, v in plain[0].provenance().items()
                                      if k not in ("workload", "config", "why",
                                                   "config_hash", "criterion4_config_hash",
                                                   "trace")},
                                     sort_keys=True))
    for s in plain:
        print(f"config_hash {s.w.name} {s.inputs.config_hash}")
    for s in plain + traced:
        for err in s.errors:
            print(f"FAILED {s.w.name}: {err}")
    print_end_to_end(plain)
    print_per_layer(traced)
    sessions = plain + traced
    write_record(f"all_seed{args.seed}", {"runs": [s.record() for s in sessions]})
    metrics = {f"{s.w.name}.{k}": v for s in sessions for k, v in s.metrics().items()}
    print(json.dumps({"correct": all(s.correct() for s in sessions),
                      "attempted": sum(s.attempted for s in sessions),
                      "failed": sum(s.failed for s in sessions),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
