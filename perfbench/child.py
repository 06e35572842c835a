"""One benchmark process: set a workload up, then time its passes.

``run.py`` starts this script once per sample, with a private
environment, and reads the JSON object on its last stdout line.  Modes:

- ``prebuild``: import everything and load (compiling on first use) the
  native kernels; timed nowhere;
- ``setup``: report ``setup_s`` (process start to inputs ready) and exit;
- ``measure``: set up, then repeat rounds of a cold pass followed by
  warm passes until ``--seconds`` of passes have been measured;
- ``trace``: set up, time one untraced cold pass, then a traced
  cold/warm pair, and report the per-layer metrics.

A cold pass runs against an empty private result cache after
``reset_structure_caches()``; the warm pass repeats it on the cache the
cold pass filled, with the in-process memos dropped again.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import digest as digests                                  # noqa: E402
import tracer as tracing                                  # noqa: E402

RECORDED = HERE / "recorded_digests.json"


def host_info() -> dict:
    from repro.core import ipc_native
    from repro.spice.backends import get_backend
    from repro.spice.backends import native as spice_native
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "solver_backend": get_backend().name,
        "native_spice_kernel": spice_native.load_kernel() is not None,
        "native_ipc_kernel": ipc_native.native_available(),
    }


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def timed_pass(workload, cache_dir: Path,
               span=contextlib.nullcontext()) -> tuple[float, dict]:
    """One pass of *workload* against the result cache in *cache_dir*."""
    from repro.core.physical import reset_structure_caches
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    workload.prepare()
    reset_structure_caches()
    gc.collect()
    t0 = time.perf_counter()
    with span:
        outputs = workload.run()
    seconds = time.perf_counter() - t0
    for op, out in outputs.items():
        if isinstance(out, Exception):
            print(f"operation {op} failed:", file=sys.stderr)
            traceback.print_exception(out, file=sys.stderr)
    return seconds, digests.digest_outputs(outputs)


class Check:
    """Counts operations attempted and failed across passes."""

    def __init__(self, recorded: dict | None) -> None:
        self.references = [recorded] if recorded else []
        self.attempted = 0
        self.failed: list[str] = []

    def add(self, label: str, got: dict, *references: dict) -> None:
        refs = [*references, *self.references]
        names = set(got).union(*refs)
        bad = digests.failed_operations(got, *refs)
        self.attempted += len(names)
        self.failed += [f"{label}:{op}" for op in bad]


def measure(workload, workdir: Path, seconds: float, budget_s: float,
            check: Check, started: float) -> tuple[list[dict], dict]:
    rounds = []
    measured = 0.0
    while True:
        k = len(rounds)
        cache = workdir / f"cache-{k}"
        cold_s, cold = timed_pass(workload, cache)
        check.add(f"cold{k}", cold)
        cache_bytes = dir_bytes(cache)
        # Warm passes are repeated until they add up to half the cold
        # pass, so a short warm pass is sampled as often as it is cheap.
        warm_times = []
        while not warm_times or sum(warm_times) < 0.5 * cold_s:
            warm_s, warm = timed_pass(workload, cache)
            check.add(f"warm{k}.{len(warm_times)}", warm, cold)
            warm_times.append(warm_s)
        shutil.rmtree(cache, ignore_errors=True)
        if not rounds:
            first_digests = cold
        rounds.append({"cold_s": cold_s, "warm_s": warm_times,
                       "cache_bytes": cache_bytes})
        round_s = cold_s + sum(warm_times)
        measured += round_s
        elapsed = time.monotonic() - started
        if measured >= seconds or elapsed + 1.5 * round_s > budget_s:
            return rounds, first_digests


def trace(workload, workdir: Path, tracer, clamp, check: Check) -> dict:
    from repro.runtime import telemetry
    untraced_s, untraced = timed_pass(workload, workdir / "cache-untraced")
    check.add("untraced", untraced)

    tracer.install()
    telemetry.reset()
    telemetry.enable(True)
    clamp.clamps = 0
    cache = workdir / "cache-traced"
    cold_s, cold = timed_pass(workload, cache, tracer.span("pass", "cold"))
    warm_s, warm = timed_pass(workload, cache, tracer.span("pass", "warm"))
    telemetry.enable(False)
    tracer.uninstall()
    check.add("traced-cold", cold, untraced)
    check.add("traced-warm", warm, cold)
    return {"untraced_cold_s": untraced_s, "cold_s": cold_s,
            "warm_s": warm_s, "counters": telemetry.counters(),
            "clamps": clamp.clamps}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("prebuild", "setup", "measure", "trace"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.monotonic() when the parent started "
                             "this process")
    parser.add_argument("--budget-s", type=float, default=150.0,
                        help="start no round that would end later")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args(argv)
    started = args.spawned_at or time.monotonic()

    clamp = tracing.install_clamp_counter()
    import workloads
    from repro.core import ipc_native
    from repro.spice.backends import get_backend
    get_backend()
    ipc_native.load_kernel()
    if args.mode == "prebuild":
        print(json.dumps({}))
        return 0

    tracer = None
    if args.mode == "trace":
        tracer = tracing.Tracer(extra_modules=[workloads])
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](args.seed, small=args.small)
    workload.setup()
    setup_s = time.monotonic() - started
    result: dict = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    recorded = None
    if args.seed == 0 and not args.small and RECORDED.is_file():
        recorded = json.loads(RECORDED.read_text()).get(args.workload)
    check = Check(recorded)
    if tracer is not None:
        setup_layers = tracer.layer_times()
        setup_spans = tracer.dump()
        tracer.uninstall()
        tracer.reset()
        result["trace"] = trace(workload, args.workdir, tracer, clamp, check)
        result["trace"]["setup_layers"] = setup_layers
        result["trace"]["layers"] = tracer.layer_times()
        result["trace"]["leveling_distinct"] = len(tracer.leveling_keys)
        result["trace"]["executor_tasks"] = tracer.executor_tasks
        if args.trace_out is not None:
            args.trace_out.parent.mkdir(parents=True, exist_ok=True)
            args.trace_out.write_text(json.dumps(
                {"workload": args.workload, "seed": args.seed,
                 "host": host_info(), "setup_spans": setup_spans,
                 "pass_spans": tracer.dump()}))
    else:
        result["rounds"], result["digests"] = measure(
            workload, args.workdir, args.seconds, args.budget_s, check,
            started)
    result.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024 / 1e6,
        attempted=check.attempted, failed=len(check.failed),
        failed_ops=check.failed[:20], host=host_info())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
