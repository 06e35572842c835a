"""Fault-injection checks: the runtime must degrade the way it claims to.

Each check injects one failure through :mod:`repro.validate.faults` and
asserts the *documented* recovery — not merely "no crash": a dead worker
re-runs serially with complete results, a corrupt cache entry is evicted
and recomputed, a hopeless Newton solve surfaces its full continuation
trail (and survives pickling back from a worker), and a machine without
a C toolchain transparently runs the pure-Python IPC kernel and the
numpy pipeline leveler.
"""

from __future__ import annotations

import os
import pickle
import tempfile

from repro.validate import faults
from repro.validate.checks import CheckContext, check, expect


@check("worker-crash-fallback", "fault")
def worker_crash_fallback(ctx: CheckContext) -> str:
    """A worker dying mid-map neither hangs the map nor drops tasks."""
    from repro.runtime.executor import parallel_map

    rng = ctx.rng()
    values = list(range(8))
    crash_on = rng.choice(values)
    tasks = [(v, crash_on, os.getpid()) for v in values]
    results = parallel_map(faults.crashy_double, tasks, workers=2)
    got = [r.unwrap() for r in results]
    expect(got == [2 * v for v in values],
           f"crash fallback dropped or reordered tasks: {got}")
    return (f"worker killed on task {crash_on}; all {len(values)} tasks "
            f"recovered serially, in order")


@check("corrupt-cache-recovery", "fault")
def corrupt_cache_recovery(ctx: CheckContext) -> str:
    """Corrupted and truncated cache entries are evicted and recomputed."""
    from repro.runtime.cache import ResultCache

    payload = {"cycles": 12345, "note": "validation payload"}
    modes = ("truncate", "garbage")
    with tempfile.TemporaryDirectory(prefix="repro-validate-") as tmp:
        cache = ResultCache(root=tmp, enabled=True)
        for mode in modes:
            key = cache.key({"check": ctx.name, "mode": mode,
                             "seed": ctx.seed})
            cache.put("validation", key, payload)
            expect(cache.get("validation", key) == payload,
                   f"[{mode}] sanity: entry unreadable before corruption")
            path = faults.corrupt_cache_entry(cache, "validation", key,
                                              mode=mode)
            expect(cache.get("validation", key) is None,
                   f"[{mode}] corrupt entry was served as a hit")
            expect(not path.exists(),
                   f"[{mode}] corrupt entry not evicted from disk")
            cache.put("validation", key, payload)
            expect(cache.get("validation", key) == payload,
                   f"[{mode}] recompute-and-store after eviction failed")
    return f"{len(modes)} corruption modes detected, evicted, recomputed"


@check("newton-event-trail", "fault")
def newton_event_trail(ctx: CheckContext) -> str:
    """A hopeless solve raises ConvergenceError with its full trail."""
    from repro.cells.library_def import organic_library_definition
    from repro.cells.topologies import build_dc_testbench
    from repro.errors import ConvergenceError
    from repro.spice.dc import operating_point

    defn = organic_library_definition()
    inv = defn.cell("inv")
    circuit = build_dc_testbench(inv, {"a": defn.vdd / 2.0})

    caught: ConvergenceError | None = None
    with faults.strangled_newton(max_iterations=1):
        try:
            operating_point(circuit)
        except ConvergenceError as exc:
            caught = exc
    expect(caught is not None,
           "starved Newton converged in one iteration — fault not injected")
    stages = [event.get("stage") for event in caught.events]
    for stage in ("newton", "gmin", "source"):
        expect(stage in stages,
               f"event trail missing the {stage!r} stage: {stages}")
    rendered = str(caught)
    expect("gmin" in rendered and "source" in rendered,
           "trail stages not rendered into the error message")
    # Workers ship failures back by pickle; the trail must survive it.
    revived = pickle.loads(pickle.dumps(caught))
    expect(revived.events == caught.events,
           "event trail lost in pickle round-trip")
    expect(str(revived) == rendered,
           "rendered message changed across pickle round-trip")
    return (f"{len(caught.events)} events across stages "
            f"{sorted(set(s for s in stages if s))}; picklable")


@check("missing-toolchain-fallback", "fault")
def missing_toolchain_fallback(ctx: CheckContext) -> str:
    """With no C compiler, the IPC kernel runs pure-Python (same cycles)
    and the pipeline leveler runs numpy (same stages); nothing is built."""
    from repro.core import ipc_native
    from repro.core.config import CoreConfig
    from repro.core.superscalar import simulate
    from repro.core.tradeoffs import make_traces
    from repro.synthesis import pipeline
    from repro.synthesis.generators import ripple_carry_adder
    from repro.synthesis.mapping import technology_map
    from repro.synthesis.sta import _vector_structure
    from repro.validate.pipeline_oracle import greedy_stages

    config = CoreConfig()
    trace = make_traces(workloads=["dhrystone"], n_instructions=2_000,
                        seed=ctx.seed)["dhrystone"]
    reference = simulate(config, trace, kernel="reference")
    rng = ctx.rng()
    netlist = technology_map(ripple_carry_adder(8))
    delays = {name: rng.uniform(0.5, 1.5) for name in netlist.gates}
    budgets = [rng.uniform(1.5, 12.0) for _ in range(8)]
    with tempfile.TemporaryDirectory(prefix="repro-validate-") as tmp:
        with faults.missing_native_toolchain(tmp):
            expect(not ipc_native.native_available(),
                   "native kernel still available with no compiler and an "
                   "empty kernel cache — fault not injected")
            crippled = simulate(config, trace, kernel="fast")
            expect(pipeline._KERNEL.load() is None,
                   "pipeline leveler kernel still loads with no compiler")
            arr = pipeline.level_delays(netlist, delays)
            leveled = [pipeline.stages_needed(netlist, arr, b)
                       for b in budgets]
            expect(not any(f.endswith(".so") for f in os.listdir(tmp)),
                   "a kernel was compiled despite the missing toolchain")
    expect(crippled.cycles == reference.cycles,
           f"python fallback kernel diverges from reference: "
           f"{crippled.cycles} != {reference.cycles}")
    names = _vector_structure(netlist)["gate_names"]
    for budget, got in zip(budgets, leveled):
        want = greedy_stages(netlist, delays, budget)
        expect(got is not None and got[0] == want[0]
               and dict(zip(names, got[1].tolist())) == want[1],
               f"numpy fallback leveler diverges from the greedy on rca8 "
               f"@ budget {budget!r}")
    return ("toolchain-less run fell back to the python IPC kernel, "
            f"cycle-exact ({crippled.cycles} cycles), and to the numpy "
            f"leveler, greedy-exact on rca8 ({len(budgets)} budgets)")
