"""Per-layer spans for one tracerflow CLI invocation, recorded from outside the package.

Usage::

    python3 bench/tracing.py SPANS.json <tracerflow CLI arguments...>

The script imports tracerflow, replaces each public function named in LAYERS
by a timing wrapper wherever a tracerflow module binds it (so a name bound by
``from .field import ...`` in ``tracer`` or ``ergodic`` is caught as well),
runs ``tracerflow.cli.main`` as the root span, writes the aggregated spans to
SPANS.json and exits with the CLI's exit code.  No file under ``src/`` changes.

A span's self time is its duration minus the time its child spans cover, so
the self times of the spans recorded in the CLI process sum to the root span.
Pool workers forked by ``tracerflow._ensemble`` inherit the wrappers; each
job's spans travel back to the parent attached to the TrajectoryRecord the
job returns, and are merged into the same per-function totals there.  Worker
self times therefore add worker busy time on top of the root span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from time import perf_counter

# layer name -> (module, public functions wrapped as spans)
LAYERS = {
    "cli": ("tracerflow.cli", ["main"]),
    "config": ("tracerflow.config", ["parse_config"]),
    "spectrum": ("tracerflow.spectrum", ["build_power_law_spectrum"]),
    "field": ("tracerflow.field", [
        "sample_stationary", "ou_exact_step", "pair_noise", "evaluate",
        "sobolev_norm", "noiseless_flow_step",
        "ens_pair_noise", "ens_observation_step", "ens_ou_step", "ens_norm_m",
        "ens_tile"]),
    "tracer": ("tracerflow.tracer", [
        "run_lagrangian", "advect_step", "shift_field", "trajectory_csv_rows",
        "stokes_drift_estimate"]),
    "ensemble": ("tracerflow._ensemble", ["run_trajectory_ensemble"]),
    "ergodic": ("tracerflow.ergodic", [
        "e_property_probe", "stability_probe", "moment_scan", "summarize_run"]),
    "chain": ("tracerflow.chain", [
        "kernel_power_profile", "kernel_power_closed_form", "ladder_weights",
        "simulate_paths"]),
}

SPAN_NAMES = [f"{layer}.{fn}" for layer, (_, fns) in LAYERS.items() for fn in fns]

_ATTACHED = "_bench_spans"


def _pair_noise_normals(model, rng, scale=None, lead_shape=()):
    n = 1
    for s in lead_shape:
        n *= int(s)
    return n * model.n_pairs * model.dimension * 2


def _ens_pair_noise_normals(model, rng, scale, n):
    return int(n) * model.n_pairs * model.dimension * 2


# Gaussian variates requested per call, computed from the call's arguments.
NORMALS = {"field.pair_noise": _pair_noise_normals,
           "field.ens_pair_noise": _ens_pair_noise_normals}


class Recorder:
    """Aggregated spans of one process: name -> [calls, self_s, incl_s]."""

    def __init__(self):
        self.owner = os.getpid()
        self.reset()
        self.busy = {}  # pid -> seconds spent in ensemble jobs

    def reset(self):
        self.stats = {}
        self.stack = []  # open spans: [name, start, child_s]
        self.normals = 0

    def count(self, name):
        self.stats.setdefault(name, [0, 0.0, 0.0])[0] += 1

    def enter(self, name):
        self.stack.append([name, perf_counter(), 0.0])

    def exit(self):
        name, start, child = self.stack.pop()
        dur = perf_counter() - start
        s = self.stats.setdefault(name, [0, 0.0, 0.0])
        s[1] += dur - child
        s[2] += dur
        if self.stack:
            self.stack[-1][2] += dur

    def merge(self, pid, busy, stats, normals):
        self.busy[pid] = self.busy.get(pid, 0.0) + busy
        self.normals += normals
        for name, (calls, self_s, incl_s) in stats.items():
            s = self.stats.setdefault(name, [0, 0.0, 0.0])
            s[0] += calls
            s[1] += self_s
            s[2] += incl_s

    def summary(self) -> dict:
        return {"pid": self.owner,
                "stats": {name: {"calls": c, "self_s": s, "incl_s": i}
                          for name, (c, s, i) in self.stats.items()},
                "normals": self.normals,
                "busy": {str(pid): b for pid, b in self.busy.items()}}


def _span(rec: Recorder, name: str, fn):
    if inspect.isgeneratorfunction(fn):
        # one call per generator; each resumption is a span segment, so
        # the consumer's work between items is not charged to the generator
        @functools.wraps(fn)
        def gen(*args, **kwargs):
            rec.count(name)
            it = fn(*args, **kwargs)
            while True:
                rec.enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    rec.exit()
                yield item
        return gen

    normals = NORMALS.get(name)

    @functools.wraps(fn)
    def call(*args, **kwargs):
        rec.count(name)
        if normals is not None:
            rec.normals += normals(*args, **kwargs)
        rec.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.exit()
    return call


def _ensemble_job(rec: Recorder, fn):
    """Wrap _ensemble._one_run: busy time per process; in a pool worker,
    the job's own spans are attached to the record it returns."""
    @functools.wraps(fn)
    def job(*args, **kwargs):
        pid = os.getpid()
        in_worker = pid != rec.owner
        if in_worker:
            rec.reset()
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        busy = perf_counter() - t0
        if in_worker:
            setattr(out, _ATTACHED, (pid, busy, rec.stats, rec.normals))
        else:
            rec.busy[pid] = rec.busy.get(pid, 0.0) + busy
        return out
    return job


def _ensemble_gather(rec: Recorder, fn):
    """Merge the spans pool workers attached to the returned records."""
    @functools.wraps(fn)
    def gather(*args, **kwargs):
        records = fn(*args, **kwargs)
        for r in records:
            attached = r.__dict__.pop(_ATTACHED, None)
            if attached is not None:
                rec.merge(*attached)
        return records
    return gather


def _rebind(modules, orig, new) -> None:
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, new)


def install(rec: Recorder) -> None:
    """Replace every LAYERS function in every loaded tracerflow module."""
    importlib.import_module("tracerflow.cli")
    modules = [m for n, m in list(sys.modules.items())
               if n == "tracerflow" or n.startswith("tracerflow.")]
    for layer, (modname, fns) in LAYERS.items():
        home = importlib.import_module(modname)
        for fn in fns:
            orig = getattr(home, fn)
            new = _span(rec, f"{layer}.{fn}", orig)
            if fn == "run_trajectory_ensemble":
                new = _ensemble_gather(rec, new)
            _rebind(modules, orig, new)
    ens = importlib.import_module("tracerflow._ensemble")
    _rebind(modules, ens._one_run, _ensemble_job(rec, ens._one_run))


def main(argv) -> int:
    if len(argv) < 2:
        print("usage: tracing.py SPANS.json <tracerflow CLI arguments...>",
              file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[1:]
    rec = Recorder()
    install(rec)
    cli = importlib.import_module("tracerflow.cli")
    try:
        return cli.main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(rec.summary(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
