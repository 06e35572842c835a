"""Engine performance microbenchmarks.

Times the workloads the optimisation PRs target, compares them against
the recorded pre-optimisation baselines, and writes the results to
``BENCH_perf.json``:

1. ``single_transient`` — one characterisation-arc transient (nand2),
2. ``cell_characterization`` — the full slew x load NLDM grid of one cell,
3. ``library_characterization`` — all six organic cells (the paper's
   library build; the end-to-end ``>= 3x`` target applies here),
4. ``ipc_simulate`` — the trace-driven IPC kernel alone: all seven
   workloads at full sweep trace length on the baseline core,
5. ``depth_sweep`` — the Figure 11 pipeline-depth sweep on one process,
   run twice: against a cold result cache (everything computed) and a
   warm one (every simulation and block timing replayed from disk,
   reported as ``depth_sweep_warm_cache``),
6. ``width_sweep`` — the 30-point Figure 13/14 width grid, cold cache,
7. ``dse_sweep`` — the 1008-point batched design-space grid (4
   library/wire combos x 7 data widths x 4 width pairs x depths 9-17)
   from :mod:`repro.analysis.dse`, cold cache — the row the
   shared-structure synthesis engine and incremental STA
   (``REPRO_INCREMENTAL_STA``) own; seeded from the pre-incremental
   path's time of the identical grid,
8. ``ensemble_newton`` — the solver-backend microbench: 200 fixed-dt
   ensemble Newton timesteps on a 16-member inverter batch, isolating
   the ``REPRO_BACKEND`` dispatch effect from step control and probing
   (seed baseline recorded under the ``numpy`` reference backend),
9. ``native_timestep`` — 25 complete 16-member ensemble transient
   sweeps (predictor, RHS, Newton, LTE step control, probing): the
   region the whole-timestep native kernel owns, seeded from the
   numpy-backend time of the identical call so the kernel is gated by
   ``--check`` from day one,
10. ``alu_pipeline_sweep`` — Figure 12's two 12-point min-period
    pipeline sweeps (organic and silicon) on the 16-bit complex ALU,
    with the mapped netlist built outside the timed region: the STA
    pass and the pipeline cutting it feeds, seeded from the time of the
    gate-at-a-time greedy leveler on the 2-vCPU build box.

Usage::

    PYTHONPATH=src python -m benchmarks.perf.run_bench           # everything
    PYTHONPATH=src python -m benchmarks.perf.run_bench --quick   # skip library
    PYTHONPATH=src python -m benchmarks.perf.run_bench --only depth_sweep
    PYTHONPATH=src python -m benchmarks.perf.run_bench --workers 4
    PYTHONPATH=src python -m benchmarks.perf.run_bench --profile
    PYTHONPATH=src python -m benchmarks.perf.run_bench \
        --check BENCH_perf.json --tolerance 0.25     # CI regression gate

``--profile`` reports a per-stage breakdown (stamp / device-eval /
solve / rhs / probe / step-control / predict / retry / cache /
telemetry / residual overhead) from :mod:`repro.runtime.profiling`
next to each timing and embeds it in the JSON artifact.  The stage counters are
process-aware: worker processes ship their telemetry snapshots back
through ``parallel_map`` and the parent merges them in task order, so
the breakdown is complete (and deterministic) with ``--workers`` too.

``--report PATH`` additionally collects full telemetry for the whole
benchmark run and writes a :mod:`repro.runtime.report` JSON document
(span tree, solver/cache metrics, environment fingerprint) there — the
artifact CI uploads per run.  ``--trace [PATH]`` exports the same
telemetry as a Chrome Trace Event JSON (load it in Perfetto or
``chrome://tracing``); without an explicit PATH it lands next to the
report (or next to ``--out``).

``--check`` re-runs the benchmarks and compares them against a
previously recorded ``BENCH_perf.json``: any benchmark slower than the
recorded time by more than ``--tolerance`` (fraction, default 0.25)
fails the run with exit status 1.  Rows whose recorded entry is missing
or has ``seed_seconds: null`` (benchmarks newer than the baseline) are
not gated, and the gate is skipped entirely — exit 0 with a warning —
when the recorded environment fingerprint (machine, python, cpu count)
does not match the current box, since cross-machine wall-clock
comparisons are meaningless.

Baselines were measured on the same single-core box the optimised
numbers come from: the characterisation rows at the seed commit
(a5dc719), ``depth_sweep`` at the PR-1 commit (0bbc774, which recorded
1.8854 s for the identical call — same 10k-instruction traces, one
worker — before the packed-array kernels and the result cache existed).
The sweep benches pin ``REPRO_CACHE_DIR`` to a private temporary
directory, so a developer's warm cache can never fake a cold number.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import tempfile
import time
from pathlib import Path

from repro.runtime import log as repro_log, profiling, telemetry
from repro.runtime import report as run_report

#: Wall-clock seconds before each optimisation landed (see module
#: docstring for which commit each row was measured at).
SEED_BASELINES = {
    "single_transient": 0.0856,
    "cell_characterization": 7.29,
    "library_characterization": 67.73,
    "ipc_simulate": None,                 # new in PR 2
    "depth_sweep": 1.8854,                # PR-1 time of the identical call
    "depth_sweep_warm_cache": 1.8854,     # vs the same uncached PR-1 run
    "width_sweep": 0.2364,                # PR-7 time, pre-incremental STA
    "dse_sweep": 10.7409,                 # PR-7 path on the same 1008-pt
                                          # grid (serial per-point loop,
                                          # full re-time everywhere)
    "ensemble_newton": 0.082,             # numpy reference backend (PR 6)
    "native_timestep": 2.55,              # numpy backend, PR-6 sweep loop
    "alu_pipeline_sweep": 4.53,           # gate-at-a-time greedy leveler
}

#: Trace length for the sweep benches — matches the PR-1 measurement the
#: ``depth_sweep`` baseline was recorded with.
SWEEP_TRACE_LENGTH = 10_000


def _bench_single_transient() -> float:
    from repro.cells.library_def import organic_library_definition
    from repro.characterization import harness

    defn = organic_library_definition()
    grid = harness.default_grid(defn)
    cell = defn.cells["nand2"]
    # Warm-up (module import, first-call numpy costs), then measure.
    harness.measure_arc(cell, "a", True, grid.slews[0], grid.loads[0])
    profiling.reset()
    t0 = time.perf_counter()
    harness.measure_arc(cell, "a", True, grid.slews[0], grid.loads[0])
    return time.perf_counter() - t0


def _bench_cell_characterization(workers: int | None) -> float:
    from repro.cells.library_def import organic_library_definition
    from repro.characterization import harness

    defn = organic_library_definition()
    grid = harness.default_grid(defn)
    cell = defn.cells["nand2"]
    profiling.reset()
    t0 = time.perf_counter()
    harness.characterize_cell(cell, grid, area=1.0, workers=workers)
    return time.perf_counter() - t0


def _bench_library_characterization(workers: int | None) -> float:
    from repro.cells.library_def import organic_library_definition
    from repro.characterization.harness import characterize_library

    profiling.reset()
    t0 = time.perf_counter()
    characterize_library(organic_library_definition(), use_cache=False,
                         workers=workers)
    return time.perf_counter() - t0


def _bench_ensemble_newton() -> float:
    """Raw stacked-Newton throughput through the active solver backend.

    Marches 200 fixed-step backward-Euler solves of a 16-member
    inverter ensemble straight through
    :meth:`~repro.spice.ensemble.EnsembleSystem.newton_batch` — no step
    control, no probing, no harness — so the row isolates exactly what
    the backend dispatch layer (``REPRO_BACKEND``) changes.
    """
    import numpy as np

    from repro.cells.topologies import diode_load_inverter
    from repro.devices.pentacene import pentacene_model
    from repro.spice import (Capacitor, Circuit, EnsembleSystem,
                             NewtonOptions, RampValue, VoltageSource)

    vdd = 15.0
    members = []
    for k in range(16):
        model = pentacene_model(vt_shift=0.05 * (k % 5))
        cell = diode_load_inverter(model, w_drive=100e-6, w_load=30e-6,
                                   vdd=vdd)
        ckt = Circuit(f"bench_tb{k}")
        ckt.add(VoltageSource("v_vdd", "vdd", "0", vdd))
        ckt.add(VoltageSource("v_a", "a", "0",
                              RampValue(0.0, vdd, 4e-5, 2e-4)))
        cell.instantiate(ckt, {"a": "a", "out": "out", "vdd": "vdd",
                               "vss": "0"})
        ckt.add(Capacitor("c_load", "out", "0", 1e-12))
        members.append(ckt)
    es = EnsembleSystem(members)
    opts = NewtonOptions()
    x, _ok = es.solve_dc(options=opts)

    mem = np.arange(es.B)
    dt = 2e-6
    inv_dt = np.full(es.B, 1.0 / dt)
    t = np.full(es.B, dt)

    def step(x, t):
        b = es.rhs_batch(mem, t)
        x_new, _conv = es.newton_batch(mem, None, b, x.copy(), opts,
                                       inv_dt=inv_dt, x_prev=x,
                                       add_storage=True)
        return x_new, t + dt

    # Warm-up pays kernel compile / gather memoisation, then measure.
    step(x, t)
    profiling.reset()
    t0 = time.perf_counter()
    for _ in range(200):
        x, t = step(x, t)
    return time.perf_counter() - t0


def _bench_native_timestep() -> float:
    """The whole transient sweep loop through the active solver backend.

    Where ``ensemble_newton`` isolates the stacked Newton inner loop,
    this row times complete :meth:`~repro.spice.ensemble.
    EnsembleTransient.run` sweeps — predictor, RHS assembly, Newton,
    LTE step control and probe crossing extraction — on a 16-member
    inverter ensemble with spread slews and loads, which is exactly the
    region the whole-timestep native kernel
    (``SolverBackend.ensemble_timestep``) takes over.  Seeded from the
    numpy-backend time of the identical call at the PR-6 commit, so the
    kernel is regression-gated from day one.
    """
    from repro.cells.topologies import diode_load_inverter
    from repro.devices.pentacene import pentacene_model
    from repro.spice import (Capacitor, Circuit, RampValue, VoltageSource)
    from repro.spice.ensemble import EnsembleTransient, Probe
    from repro.spice.transient import TransientOptions

    vdd = 15.0
    members, opts = [], []
    for k in range(16):
        model = pentacene_model(vt_shift=0.05 * (k % 5))
        cell = diode_load_inverter(model, w_drive=100e-6, w_load=30e-6,
                                   vdd=vdd)
        slew = 1e-4 * (1.0 + 0.5 * (k % 4))
        ckt = Circuit(f"ts_tb{k}")
        ckt.add(VoltageSource("v_vdd", "vdd", "0", vdd))
        ckt.add(VoltageSource("v_a", "a", "0",
                              RampValue(0.0, vdd, 4e-5, slew)))
        cell.instantiate(ckt, {"a": "a", "out": "out", "vdd": "vdd",
                               "vss": "0"})
        ckt.add(Capacitor("c_load", "out", "0", 1e-12 * (1 + k % 3)))
        members.append(ckt)
        dt = min(2e-3 / 400.0, slew / 8.0)
        opts.append(TransientOptions(dt=dt, t_stop=2e-3, dt_max=16.0 * dt,
                                     lte_tol=5e-4 * vdd))
    probes = [Probe("a", 0.5 * vdd), Probe("out", 0.5 * vdd)]

    # Warm-up pays kernel compile / gather memoisation, then measure.
    # 25 sweeps keep the row ~100ms: long enough that scheduler noise
    # stays well inside the --check tolerance.
    EnsembleTransient(members, opts, probes).run()
    profiling.reset()
    t0 = time.perf_counter()
    for _ in range(25):
        EnsembleTransient(members, opts, probes).run()
    return time.perf_counter() - t0


def _warm_ipc_kernel() -> None:
    """Pay one-time compile/build costs outside the timed region.

    The fast IPC kernel compiles its C backend the first time it runs on
    a machine (cached under ``~/.cache/repro/native`` afterwards); that
    is a per-machine build artifact, not per-sweep work, so it does not
    belong in any timed region.
    """
    from repro.core import ipc_native

    ipc_native.native_available()


def _bench_ipc_simulate() -> float:
    """All seven workloads through ``simulate()`` on the baseline core.

    Full sweep trace length (30k dynamic instructions per workload), no
    caching involved — this is the raw timing-kernel cost a sweep pays
    per configuration.
    """
    from repro.core.config import CoreConfig
    from repro.core.superscalar import simulate
    from repro.core.tradeoffs import make_traces

    _warm_ipc_kernel()
    traces = make_traces()
    config = CoreConfig()
    # Warm per-trace derived state (packed arrays, predictor streams) the
    # way any sweep's first config does, then time a clean pass.
    for trace in traces.values():
        simulate(config, trace)
    profiling.reset()
    t0 = time.perf_counter()
    for trace in traces.values():
        simulate(config, trace)
    return time.perf_counter() - t0


def _bench_depth_sweep(workers: int | None) -> tuple[float, float]:
    """(cold, warm) seconds for the Figure 11 depth sweep, one process.

    Cold: fresh result-cache directory, every block timing and
    simulation computed.  Warm: the identical call again, replayed from
    the cache the cold run just filled.
    """
    from repro.analysis.figures import load_libraries, wire_models
    from repro.core.physical import reset_structure_caches
    from repro.core.tradeoffs import depth_sweep, make_traces

    org_lib, _ = load_libraries()
    org_wire, _ = wire_models()
    traces = make_traces(n_instructions=SWEEP_TRACE_LENGTH)
    _warm_ipc_kernel()
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp, \
            _cache_dir(tmp):
        # Drop every in-process synthesis memo so "cold" is genuinely
        # cold regardless of which bench rows ran earlier in this
        # process; the warm re-run keeps them, as a warm caller would.
        reset_structure_caches()
        profiling.reset()
        t0 = time.perf_counter()
        depth_sweep(org_lib, org_wire, max_depth=15, traces=traces,
                    workers=workers)
        cold = time.perf_counter() - t0
        # No profiling.reset() here: the row's breakdown is taken over
        # cold + warm, so dropping the cold run's stage totals would
        # misattribute the whole cold run to `overhead`.
        t0 = time.perf_counter()
        depth_sweep(org_lib, org_wire, max_depth=15, traces=traces,
                    workers=workers)
        warm = time.perf_counter() - t0
    return cold, warm


def _bench_width_sweep(workers: int | None) -> float:
    """The 30-point Figure 13/14 width grid, cold cache."""
    from repro.analysis.figures import load_libraries, wire_models
    from repro.core.physical import reset_structure_caches
    from repro.core.tradeoffs import make_traces, width_sweep

    org_lib, _ = load_libraries()
    org_wire, _ = wire_models()
    traces = make_traces(n_instructions=SWEEP_TRACE_LENGTH)
    _warm_ipc_kernel()
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp, \
            _cache_dir(tmp):
        reset_structure_caches()
        profiling.reset()
        t0 = time.perf_counter()
        width_sweep(org_lib, org_wire, traces=traces, workers=workers)
        return time.perf_counter() - t0


def _bench_dse_sweep(workers: int | None) -> float:
    """The 1008-point batched DSE grid, cold cache.

    Libraries, wire models and the trace are prepared outside the timed
    region (exactly how the seed number was measured); the timed region
    is :func:`repro.analysis.dse.dse_sweep` on the stock grid against a
    private cold result cache and freshly reset in-process structure
    caches.
    """
    from repro.analysis.dse import DSE_TRACE_LENGTH, default_combos, dse_sweep
    from repro.core.physical import reset_structure_caches
    from repro.core.tradeoffs import make_traces

    combos = default_combos()
    traces = make_traces(workloads=["gzip"], n_instructions=DSE_TRACE_LENGTH)
    _warm_ipc_kernel()
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp, \
            _cache_dir(tmp):
        reset_structure_caches()
        profiling.reset()
        t0 = time.perf_counter()
        dse_sweep(combos=combos, traces=traces, workers=workers)
        return time.perf_counter() - t0


def _bench_alu_pipeline_sweep() -> float:
    """Figure 12's organic and silicon pipeline sweeps, 16-bit complex ALU.

    Libraries and the mapped netlist are prepared outside the timed
    region, after the in-process synthesis memos are dropped, so the
    timed STA pass starts from a fresh netlist.
    """
    from repro.analysis.figures import (
        FIG12_STAGE_COUNTS,
        load_libraries,
        wire_models,
    )
    from repro.core.physical import block_netlist, reset_structure_caches
    from repro.synthesis.pipeline import pipeline_sweep

    org_lib, sil_lib = load_libraries()
    org_wire, sil_wire = wire_models()
    reset_structure_caches()
    netlist = block_netlist("complex", 16)
    profiling.reset()
    t0 = time.perf_counter()
    pipeline_sweep(netlist, org_lib, org_wire, FIG12_STAGE_COUNTS)
    pipeline_sweep(netlist, sil_lib, sil_wire, FIG12_STAGE_COUNTS)
    return time.perf_counter() - t0


class _cache_dir:
    """Temporarily point the persistent result cache somewhere private."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.saved: str | None = None

    def __enter__(self) -> "_cache_dir":
        self.saved = os.environ.get("REPRO_CACHE_DIR")
        os.environ["REPRO_CACHE_DIR"] = self.path
        return self

    def __exit__(self, *exc) -> None:
        if self.saved is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = self.saved


BENCHES = {
    "single_transient": lambda workers: _bench_single_transient(),
    "cell_characterization": _bench_cell_characterization,
    "library_characterization": _bench_library_characterization,
    "ensemble_newton": lambda workers: _bench_ensemble_newton(),
    "native_timestep": lambda workers: _bench_native_timestep(),
    "ipc_simulate": lambda workers: _bench_ipc_simulate(),
    "depth_sweep": _bench_depth_sweep,
    "width_sweep": _bench_width_sweep,
    "dse_sweep": _bench_dse_sweep,
    "alu_pipeline_sweep": lambda workers: _bench_alu_pipeline_sweep(),
}


def _record(results: dict, name: str, elapsed: float,
            profile: dict | None = None) -> None:
    baseline = SEED_BASELINES.get(name)
    entry = {"seconds": round(elapsed, 4), "seed_seconds": baseline}
    if baseline:
        entry["speedup_vs_seed"] = round(baseline / elapsed, 2)
    if profile is not None:
        entry["profile"] = profile
    results[name] = entry
    speedup = entry.get("speedup_vs_seed")
    extra = f"  ({speedup}x vs seed)" if speedup else ""
    print(f"[bench] {name}: {elapsed:.4f}s{extra}", flush=True)
    if profile is not None:
        stages = "  ".join(f"{stage} {seconds:.3f}s"
                           for stage, seconds in profile.items())
        print(f"[bench]   profile: {stages}", flush=True)


def _env_fingerprint() -> dict:
    """The machine identity recorded with (and checked against) baselines."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def _check_against(results: dict, baseline_path: Path,
                   tolerance: float) -> int:
    """Regression gate: exit status comparing *results* to a recorded run.

    Delegates to :func:`repro.runtime.history.regress_check` — the same
    gate ``python -m repro perf regress`` applies to run reports — so
    the two never drift apart.
    """
    from repro.runtime import history
    try:
        baseline = json.loads(baseline_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"[bench] --check: cannot read {baseline_path}: {exc}")
        return 1
    fresh = {name: entry["seconds"] for name, entry in results.items()}
    status, lines = history.regress_check(fresh, baseline,
                                          current_env=_env_fingerprint(),
                                          tolerance=tolerance)
    for line in lines:
        print(f"[bench] --check: {line}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes for the parallel layers "
                             "(default: REPRO_WORKERS or serial)")
    parser.add_argument("--quick", action="store_true",
                        help="skip the slow library characterization")
    parser.add_argument("--only", choices=sorted(BENCHES), default=None,
                        help="run a single benchmark")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parents[2]
                        / "BENCH_perf.json",
                        help="output JSON path (default: repo root)")
    parser.add_argument("--profile", action="store_true",
                        help="per-stage stamp/device-eval/solve/overhead "
                             "breakdown next to each timing")
    parser.add_argument("--check", type=Path, default=None,
                        metavar="BASELINE_JSON",
                        help="compare against a recorded BENCH_perf.json "
                             "and exit 1 on regressions")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed slowdown fraction for --check "
                             "(default 0.25)")
    parser.add_argument("--report", type=Path, default=None,
                        metavar="REPORT_JSON",
                        help="collect telemetry and write a run-report "
                             "JSON (span tree + solver/cache metrics) here")
    parser.add_argument("--trace", nargs="?", const=True, default=None,
                        metavar="TRACE_JSON",
                        help="export a Chrome Trace Event JSON of the run "
                             "(default path: next to --report, else next "
                             "to --out)")
    repro_log.add_cli_flags(parser)
    args = parser.parse_args(argv)
    repro_log.configure_from_args(args)

    names = [args.only] if args.only else list(BENCHES)
    if args.quick and not args.only:
        names.remove("library_characterization")

    collect = args.report is not None or args.trace is not None
    if collect:
        telemetry.reset()
        telemetry.enable(True)
        repro_log.capture_warnings()
    t_run = time.perf_counter()

    results: dict = {}
    for name in names:
        # Collect garbage left by the previous row so its collection
        # cost lands nowhere: rows must not time each other's debris.
        gc.collect()
        print(f"[bench] {name} ...", flush=True)
        if args.profile:
            profiling.reset()
            profiling.enable(True)
        if name == "depth_sweep":
            with telemetry.span("bench:depth_sweep"):
                cold, warm = _bench_depth_sweep(args.workers)
            profiling.enable(False)
            prof = (profiling.breakdown(cold + warm)
                    if args.profile else None)
            _record(results, "depth_sweep", cold, prof)
            _record(results, "depth_sweep_warm_cache", warm)
            continue
        with telemetry.span(f"bench:{name}"):
            elapsed = BENCHES[name](args.workers)
        profiling.enable(False)
        prof = profiling.breakdown(elapsed) if args.profile else None
        _record(results, name, elapsed, prof)

    from repro.core import ipc_native
    from repro.spice.backends import get_backend

    payload = {
        "benchmarks": results,
        "environment": {
            **_env_fingerprint(),
            "workers": args.workers,
            "vectorized": os.environ.get("REPRO_VECTORIZED", "auto"),
            "ensemble": os.environ.get("REPRO_ENSEMBLE", "auto"),
            "ipc_kernel": ("native" if ipc_native.native_available()
                           else "python"),
            "spice_backend": get_backend().name,
            "spice_backend_requested": os.environ.get("REPRO_BACKEND",
                                                      "auto"),
        },
        "notes": ("Characterisation seed_seconds measured at commit "
                  "a5dc719 (scalar stamping, fixed-step transient "
                  "controller); depth_sweep seed_seconds is the PR-1 "
                  "(0bbc774) time of the identical call, before the "
                  "packed-array IPC kernels and the persistent result "
                  "cache. width_sweep and dse_sweep seed_seconds were "
                  "measured at the PR-7 commit (b47c364), before the "
                  "shared-structure synthesis engine and incremental "
                  "STA. Sweep benches run against a private temporary "
                  "REPRO_CACHE_DIR with in-process structure caches "
                  "reset: 'depth_sweep' is the cold-cache "
                  "time, 'depth_sweep_warm_cache' the immediate re-run. "
                  "On a single-core box all speedup comes from the "
                  "engine; multi-core boxes additionally gain from "
                  "--workers."),
    }
    if collect:
        telemetry.enable(False)
        report = run_report.build_report(
            "bench", argv=argv, status="ok",
            duration_seconds=time.perf_counter() - t_run)
        report["benchmarks"] = results
        if args.report is not None:
            run_report.write_report(report, path=args.report)
            print(f"[bench] wrote run report {args.report}")
        if args.trace is not None:
            from repro.runtime import trace_export
            anchor = args.report if args.report is not None else args.out
            trace_path = trace_export.default_trace_path(anchor) \
                if args.trace is True else Path(args.trace)
            trace_export.write_trace(report, trace_path)
            print(f"[bench] wrote trace {trace_path}")

    status = 0
    if args.check is not None:
        status = _check_against(results, args.check, args.tolerance)
    if args.check is not None and args.check.resolve() == args.out.resolve():
        # Gating against the file we would write: keep the recorded
        # baseline instead of clobbering it with the fresh run.
        print(f"[bench] not overwriting baseline {args.out}")
    else:
        args.out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"[bench] wrote {args.out}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
