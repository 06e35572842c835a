"""The repository benchmark: end-to-end and per-layer metrics of the flow.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-figures --seed 0 \
        --seconds 10 --trace 0

Workloads (see ``workloads.py``): ``paper-figures`` (every paper figure
the CLI draws), ``dse-grid`` (the stock 1008-point DSE grid) and
``library-corners`` (library characterisation at supply corners plus
the noise-margin Monte Carlo).

With ``--trace 0`` the benchmark reports the end-to-end metrics:

- ``setup_s``: process start until the workload's inputs are ready,
  the median over ``SETUP_SAMPLES`` processes;
- ``cold_s`` / ``warm_s``: one pass against an empty private result
  cache, then again on the cache it filled (in-process memos dropped
  before each; warm passes repeat until they add up to half the cold
  one).  Rounds of one cold pass and its warm passes repeat until
  ``--seconds`` of passes were measured (at least one round); both
  metrics are medians over every pass of the run;
- ``peak_rss_mb``: peak resident memory of the measuring process;
- ``cache_mb``: bytes the cold pass left in the result cache.

With ``--trace 1`` it runs one untraced cold pass and a traced cold/warm
pair in a separate process and reports the per-layer metrics
(``_per_layer``) plus the tracing overhead; the spans are written to
``.bench_build/perfbench/traces/``.

Every pass's outputs are digested per operation (figure, grid point,
library, Monte Carlo sample): warm must equal cold at any seed, and at
seed 0 both must equal ``recorded_digests.json``.  An exception or a
mismatch is a failed operation.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records the host.

Every process runs serially (``REPRO_WORKERS=1``) in a private
environment: result cache, run reports, history, progress stream and
``HOME`` live in a temp dir under ``.bench_build/perfbench/`` that is
removed afterwards; the native kernels and bytecode are built there once,
before any timing.  ``--record`` rewrites the recorded digests from a
seed-0 run (after an intended change of results).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
CHILD = HERE / "child.py"
RECORDED = HERE / "recorded_digests.json"

WORKLOADS = ("paper-figures", "dse-grid", "library-corners")
#: Processes whose set-up time is sampled per run (median reported).
SETUP_SAMPLES = 3
#: A run must finish within this many seconds of starting to measure.
RUN_BUDGET_S = 170.0
PREBUILD_TIMEOUT_S = 800.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _per_layer(trace: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics ``{name: (value, unit)}`` from a traced run.

    Times are layer self times over the traced cold and warm passes;
    counts are telemetry counters over the same passes.  Which layer
    should move which end-to-end metric, and where:

    - ``pipeline.*`` (pipeline cutting): paper-figures cold_s and warm_s,
      about 0 elsewhere;
    - ``sta.*``, ``mapping.*``: mainly dse-grid cold_s;
    - ``physical.*``, ``tradeoffs.deepen_s``: dse-grid cold_s and warm_s;
    - ``ipc.*``: dse-grid and paper-figures cold_s;
    - ``trace.generate_s``: setup_s (traces are generated in setup);
    - ``char.*``: library-corners and paper-figures cold_s;
    - ``spice.*``: library-corners cold_s, its DC part also warm_s;
    - ``cells.vtc_s``, ``yield.s``: library-corners warm_s;
    - ``devices.fit_s``: paper-figures cold_s;
    - ``cache.*``: warm_s everywhere, cold_s for writes;
    - ``executor.*``: serial overhead, every workload.
    """
    layers, c = trace["layers"], trace["counters"]

    def self_s(layer):
        return layers.get(layer, {}).get("self_s", 0.0)

    def calls(fn):
        return layers.get(f"fn:{fn}", {}).get("calls", 0)

    def total(prefix):
        return sum(v for k, v in c.items() if k.startswith(prefix))

    steps = c.get("ensemble.transient_steps", 0) + c.get(
        "spice.transient_steps", 0)
    rejections = c.get("ensemble.lte_rejections", 0) + c.get(
        "spice.lte_rejections", 0)
    hits, misses = total("cache.hit."), total("cache.miss.")
    sim_s = layers.get("fn:simulate", {}).get("total_s", 0.0)
    passes = layers.get("pass", {}).get("total_s", 0.0)
    unattributed = self_s("pass") + self_s("entry")
    S, N, R = "s", "count", "ratio"
    return {
        "pipeline.sweep_s": (self_s("pipeline.sweep"), S),
        "pipeline.leveling_s": (self_s("pipeline.leveling"), S),
        "pipeline.leveling_calls": (calls("stages_needed"), N),
        "pipeline.leveling_distinct_ratio": (
            _ratio(trace["leveling_distinct"], calls("stages_needed")), R),
        "pipeline.registers_s": (self_s("pipeline.registers"), S),
        "pipeline.registers_calls": (calls("count_registers"), N),
        "sta.s": (self_s("sta"), S),
        "sta.runs": (c.get("sta.runs", 0), N),
        "sta.vector_runs": (c.get("sta.vector_runs", 0), N),
        "sta.incremental_share": (_ratio(
            c.get("sta.incremental_runs", 0) + c.get("sta.incremental_hits", 0),
            c.get("sta.runs", 0)), R),
        "sta.nldm_lookups": (c.get("sta.nldm_lookups", 0), N),
        "sta.retimed_gates": (c.get("sta.retimed_gates", 0), N),
        "mapping.s": (self_s("mapping"), S),
        "mapping.calls": (calls("map_cached") + calls("technology_map"), N),
        "physical.s": (self_s("physical"), S),
        "physical.calls": (calls("core_physical"), N),
        "tradeoffs.deepen_s": (self_s("tradeoffs.deepen"), S),
        "ipc.s": (self_s("ipc"), S),
        "ipc.simulations": (c.get("ipc.simulations", 0), N),
        "ipc.requests": (calls("simulate_cached"), N),
        "ipc.cycles": (c.get("ipc.cycles", 0), N),
        "ipc.sim_minst_per_s": (
            _ratio(c.get("ipc.instructions", 0), sim_s) / 1e6, "Minst/s"),
        "trace.generate_s": (
            trace["setup_layers"].get("trace", {}).get("self_s", 0.0), S),
        "char.library_s": (self_s("char"), S),
        "char.cells": (c.get("char.cells", 0), N),
        "char.window_retries": (c.get("char.window_retries", 0)
                                + c.get("char.dff_window_retries", 0), N),
        "char.delay_clamps": (trace["clamps"], N),
        "spice.transient_s": (self_s("spice.transient"), S),
        "spice.dc_s": (self_s("spice.dc"), S),
        "spice.transient_steps": (steps, N),
        "spice.newton_lane_iterations": (
            c.get("ensemble.newton_lane_iterations", 0), N),
        "spice.step_accept_ratio": (_ratio(steps, steps + rejections), R),
        "spice.scalar_retries": (c.get("ensemble.scalar_retries", 0)
                                 + c.get("char.scalar_point_fallbacks", 0), N),
        "spice.native_kernel_calls": (
            c.get("backend.native.kernel_calls", 0)
            + c.get("backend.native.timestep_calls", 0), N),
        "cells.vtc_s": (self_s("cells.vtc"), S),
        "yield.s": (self_s("yield"), S),
        "devices.fit_s": (self_s("devices.fit"), S),
        "cache.get_s": (self_s("cache.get"), S),
        "cache.put_s": (self_s("cache.put"), S),
        "cache.hit_ratio": (_ratio(hits, hits + misses), R),
        "cache.bytes_read": (c.get("cache.bytes_read", 0), "B"),
        "cache.bytes_written": (c.get("cache.bytes_written", 0), "B"),
        "executor.map_s": (self_s("executor.map"), S),
        "executor.tasks": (trace["executor_tasks"], N),
        "tracing.attributed_share": (1.0 - _ratio(unattributed, passes), R),
        "tracing.untraced_cold_s": (trace["untraced_cold_s"], S),
        "tracing.cold_s": (trace["cold_s"], S),
        "tracing.overhead_pct": (
            100.0 * (_ratio(trace["cold_s"], trace["untraced_cold_s"]) - 1.0),
            "%"),
    }


def _source_tag() -> str:
    """Hash of the interpreter and every source file the build covers."""
    h = hashlib.sha256(sys.executable.encode())
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def child_env(workdir: Path) -> dict[str, str]:
    """The private environment of every benchmark process."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k not in (
               "PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP")}
    home = workdir / "home"
    home.mkdir(parents=True, exist_ok=True)
    env.update(
        HOME=str(home),
        REPRO_WORKERS="1",
        REPRO_CACHE_DIR=str(workdir / "cache"),
        REPRO_RUNS_DIR=str(workdir / "runs"),
        REPRO_HISTORY=str(workdir / "history.ndjson"),
        REPRO_PROGRESS=str(workdir / "progress.ndjson"),
        REPRO_NATIVE_DIR=str(BUILD / "native"),
        TMPDIR=str(workdir),
        PYTHONPYCACHEPREFIX=str(BUILD / "pycache"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_child(args, mode: str, env: dict, workdir: Path, timeout: float,
              *extra: str) -> dict:
    """Run one benchmark process to completion and return its result."""
    cmd = [sys.executable, str(CHILD), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode,
           "--seconds", str(args.seconds), "--workdir", str(workdir),
           "--budget-s", f"{max(timeout - 5.0, 1.0):.1f}",
           "--spawned-at", repr(time.monotonic()), *extra]
    if args.small:
        cmd.append("--small")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=max(timeout, 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} process exited with {proc.returncode}")
    return json.loads(lines[-1])


def measure(args, env: dict, workdir: Path, deadline: float) -> dict:
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        setups.append(run_child(args, "setup", env, workdir,
                                deadline - time.monotonic())["setup_s"])
    res = run_child(args, "measure", env, workdir,
                    deadline - time.monotonic())
    setups.append(res["setup_s"])
    rounds = res["rounds"]
    res["metrics"] = {
        "setup_s": (statistics.median(setups), "s"),
        "cold_s": (statistics.median(p["cold_s"] for p in rounds), "s"),
        "warm_s": (statistics.median(w for p in rounds for w in p["warm_s"]),
                   "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "cache_mb": (statistics.median(p["cache_bytes"] for p in rounds)
                     / 1e6, "MB"),
    }
    return res


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced sizes (self-test only)")
    parser.add_argument("--record", action="store_true",
                        help="rewrite the recorded seed-0 digests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.record and (args.seed != 0 or args.small or args.trace):
        parser.error("--record needs a full-size --seed 0 --trace 0 run")

    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=BUILD / "tmp"))
    try:
        env = child_env(workdir)
        # Native kernels and bytecode: built once per source tree, untimed.
        stamp, tag = BUILD / "prebuilt", _source_tag()
        if not stamp.is_file() or stamp.read_text() != tag:
            run_child(args, "prebuild", env, workdir, PREBUILD_TIMEOUT_S)
            stamp.write_text(tag)
        deadline = time.monotonic() + RUN_BUDGET_S
        if args.trace:
            out = BUILD / "traces" / f"{args.workload}-seed{args.seed}.json"
            res = run_child(args, "trace", env, workdir,
                            deadline - time.monotonic(),
                            "--trace-out", str(out))
            metrics = _per_layer(res["trace"])
        else:
            res = measure(args, env, workdir, deadline)
            metrics = res["metrics"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.record:
        recorded = (json.loads(RECORDED.read_text())
                    if RECORDED.is_file() else {})
        recorded[args.workload] = res["digests"]
        RECORDED.write_text(json.dumps(recorded, indent=0, sort_keys=True)
                            + "\n")
    for op in res["failed_ops"]:
        print(f"failed operation: {op}", file=sys.stderr)
    print("host: " + json.dumps(res["host"], sort_keys=True))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
