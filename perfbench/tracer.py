"""In-memory span tracing around ``repro``'s public functions.

Spans are recorded by wrapping each traced function at every name it is
bound to (its defining module and every ``from ... import`` of it, plus
class attributes for methods), so callers hit the wrapper whichever name
they look the function up by.  A span is ``[layer, function, start,
end, parent]``; spans stay in memory and are written out by the caller
when the run ends.  A layer's self time is its spans' time minus the
time of their child spans.

Counts come from ``repro``'s own telemetry counters
(``telemetry.counters()``); the tracer adds only what no counter holds:
call counts, distinct leveling keys, mapped task counts and the
negative-delay clamp warnings of the ``repro`` logger.
"""

from __future__ import annotations

import functools
import importlib
import logging
import sys
from contextlib import contextmanager
from time import perf_counter

#: (layer, target) pairs; a target is ``module:function`` or
#: ``module:Class.method``.
TARGETS = [
    ("pipeline.sweep", "repro.synthesis.pipeline:pipeline_sweep"),
    ("pipeline.sweep", "repro.synthesis.pipeline:min_period_for_stages"),
    ("pipeline.sweep", "repro.synthesis.pipeline:per_gate_delays"),
    ("pipeline.sweep", "repro.synthesis.pipeline:sequencing_overhead"),
    ("pipeline.leveling", "repro.synthesis.pipeline:stages_needed"),
    ("pipeline.registers", "repro.synthesis.pipeline:count_registers"),
    ("sta", "repro.synthesis.sta:static_timing"),
    ("mapping", "repro.synthesis.mapping:map_cached"),
    ("mapping", "repro.synthesis.mapping:technology_map"),
    ("physical", "repro.core.physical:core_physical"),
    ("physical", "repro.core.physical:region_logic_delays"),
    ("physical", "repro.core.physical:core_area"),
    ("tradeoffs.deepen", "repro.core.tradeoffs:deepen_pipeline"),
    ("ipc", "repro.core.superscalar:simulate"),
    ("ipc", "repro.core.superscalar:simulate_cached"),
    ("trace", "repro.core.tradeoffs:make_traces"),
    ("trace", "repro.core.workloads:generate_trace"),
    ("char", "repro.characterization.harness:characterize_library"),
    ("char", "repro.characterization.harness:characterize_cell"),
    ("char", "repro.characterization.harness:characterize_dff"),
] + [("char", f"repro.characterization.harness:{fn}") for fn in (
    "measure_arc", "measure_arc_batch", "average_leakage",
    "measure_clk_to_q", "measure_clk_to_q_batch", "measure_setup_time")] + [
    ("spice.transient", "repro.spice.transient:transient"),
    ("spice.transient", "repro.spice.ensemble:EnsembleTransient.run"),
    ("spice.dc", "repro.spice.dc:operating_point"),
    ("spice.dc", "repro.spice.dc:dc_sweep"),
    ("spice.dc", "repro.spice.ensemble:ensemble_operating_point"),
    ("spice.dc", "repro.spice.ensemble:ensemble_dc_sweep"),
    ("cells.vtc", "repro.cells.vtc:compute_vtc"),
    ("cells.vtc", "repro.cells.vtc:compute_vtc_batch"),
    ("cells.vtc", "repro.cells.vtc:analyze_inverter"),
    ("cells.vtc", "repro.cells.vtc:switching_threshold"),
    ("cells.vtc", "repro.cells.vtc:noise_margin_mec"),
    ("yield", "repro.analysis.yield_mc:perturb_cell"),
    ("yield", "repro.analysis.yield_mc:noise_margin_yield"),
    ("yield", "repro.analysis.yield_mc:compare_styles"),
    ("devices.fit", "repro.devices.extraction:characterize_curve"),
    ("devices.fit", "repro.devices.extraction:fit_level1"),
    ("devices.fit", "repro.devices.extraction:fit_level61"),
    ("cache.get", "repro.runtime.cache:ResultCache.get"),
    ("cache.put", "repro.runtime.cache:ResultCache.put"),
    ("executor.map", "repro.runtime.executor:parallel_map"),
    # Entry points: their self time is work that no layer span covers.
    ("entry", "repro.analysis.dse:dse_sweep"),
] + [("entry", f"repro.analysis.figures:{fn}") for fn in (
    "fig3_transfer_characteristics", "fig4_model_fits",
    "fig6_inverter_comparison", "fig7_vdd_scaling", "fig8_vss_tuning",
    "fig11_pipeline_depth", "fig12_alu_depth", "fig13_width_performance",
    "fig14_width_area", "fig15_wire_ablation")]

#: Bindings that must be wrapped for the layer split to hold: callers
#: look these functions up under these names.
REQUIRED_BINDINGS = [
    "repro.analysis.figures:pipeline_sweep",
    "repro.synthesis.pipeline:static_timing",
    "repro.analysis.dse:deepen_pipeline",
    "repro.core.tradeoffs:simulate_cached",
]

CLAMP_MESSAGE = "negative propagation delay"


class _ClampCounter(logging.Handler):
    """Counts the ``repro`` logger's negative-delay clamp warnings."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.clamps = 0

    def emit(self, record: logging.LogRecord) -> None:
        if record.getMessage().startswith(CLAMP_MESSAGE):
            self.clamps += 1


def install_clamp_counter() -> _ClampCounter:
    """Attach a clamp counter to the ``repro`` logger (and keep the
    library's warnings off stderr, where they would interleave with the
    benchmark's own output)."""
    handler = _ClampCounter()
    logger = logging.getLogger("repro")
    logger.addHandler(handler)
    if logger.level == logging.NOTSET:
        logger.setLevel(logging.WARNING)
    return handler


def _resolve(target: str):
    module_name, _, attr = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Wraps the traced functions and records spans while installed."""

    def __init__(self, extra_modules=()) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._extra_modules = list(extra_modules)
        self._patches: list[tuple[object, str, object]] = []
        self.leveling_keys: set = set()
        self.executor_tasks = 0

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, layer: str):
        name = fn.__name__
        observe = {"stages_needed": self._observe_leveling,
                   "parallel_map": self._observe_map}.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if observe is not None:
                observe(args, kwargs)
            with self.span(layer, name):
                return fn(*args, **kwargs)
        return wrapper

    def _observe_leveling(self, args, kwargs) -> None:
        netlist = args[0] if args else kwargs["netlist"]
        budget = args[2] if len(args) > 2 else kwargs["budget"]
        self.leveling_keys.add((netlist.fingerprint(), budget))

    def _observe_map(self, args, kwargs) -> None:
        tasks = args[1] if len(args) > 1 else kwargs["tasks"]
        self.executor_tasks += len(tasks)

    @contextmanager
    def span(self, layer: str, name: str):
        """Record one span around a block."""
        record = [layer, name, perf_counter(), 0.0,
                  self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[3] = perf_counter()
            self._stack.pop()

    def reset(self) -> None:
        """Drop the recorded spans and observations."""
        self.spans.clear()
        self.leveling_keys.clear()
        self.executor_tasks = 0

    # -- installation --------------------------------------------------------

    def _modules(self):
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "repro" or n.startswith("repro."))]
        return mods + self._extra_modules

    def install(self) -> None:
        """Wrap every target at every name it is bound to."""
        originals = {}
        for layer, target in TARGETS:
            owner, name = _resolve(target)
            fn = getattr(owner, name)
            originals[id(fn)] = (fn, self._wrap(fn, layer))
            if isinstance(owner, type):
                self._patch(owner, name, fn, originals[id(fn)][1])
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, value, hit[1])
        for binding in REQUIRED_BINDINGS:
            owner, name = _resolve(binding)
            if not hasattr(getattr(owner, name), "__wrapped__"):
                raise RuntimeError(f"tracer missed binding {binding}")

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every original binding."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- read-out ------------------------------------------------------------

    def layer_times(self) -> dict[str, dict[str, float]]:
        """``{key: {"self_s", "total_s", "calls"}}`` keyed by layer, and by
        ``fn:<function>`` for each traced function."""
        child_time = [0.0] * len(self.spans)
        for layer, name, t0, t1, parent in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out: dict[str, dict[str, float]] = {}
        for i, (layer, name, t0, t1, parent) in enumerate(self.spans):
            for key in (layer, f"fn:{name}"):
                cell = out.setdefault(key, {"self_s": 0.0, "total_s": 0.0,
                                            "calls": 0})
                cell["self_s"] += (t1 - t0) - child_time[i]
                cell["total_s"] += t1 - t0
                cell["calls"] += 1
        return out

    def dump(self) -> list[dict]:
        """The recorded spans as JSON-ready dicts."""
        return [{"layer": layer, "name": name, "start": t0, "end": t1,
                 "parent": parent}
                for layer, name, t0, t1, parent in self.spans]
