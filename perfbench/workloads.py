"""The benchmark's workloads, driven through the public ``repro`` API.

A workload has three steps:

- ``setup()`` builds the seeded inputs once per process (traces, and for
  ``dse-grid`` the two stock libraries);
- ``prepare()`` hands a pass fresh copies of those inputs, so no object
  carries lazily built state from one pass into the next;
- ``run()`` is one timed pass and returns ``{operation: output}``; an
  operation that raised maps to its exception.

``small=True`` shrinks every workload for the self-test.
"""

from __future__ import annotations

import repro.analysis.figures as figures
from repro.analysis.calibration import paper_value
from repro.analysis.dse import DATA_WIDTHS, DSE_TRACE_LENGTH, WIDTH_PAIRS, dse_sweep
from repro.analysis.yield_mc import compare_styles
from repro.characterization import organic_library, silicon_library
from repro.characterization.library import Library
from repro.core.trace import Trace
from repro.core.tradeoffs import make_traces
from repro.devices.materials import dntt_model
from repro.synthesis.wires import organic_wire_model, silicon_wire_model

#: Trace lengths of ``python -m repro fig11`` and ``fig13``.
FIG11_TRACE_LENGTH = 25_000
FIG13_TRACE_LENGTH = 20_000
#: ``python -m repro fig14`` builds its area grid on this tiny trace.
FIG14_TRACE = (("dhrystone",), 512)
#: Device-curve seed of ``python -m repro fig3``/``fig4``.
FIG3_SEED = 2017
#: Monte Carlo seed of ``repro.analysis.yield_mc.compare_styles``.
YIELD_SEED = 1


def _trace_arrays(traces: dict[str, Trace]) -> dict[str, dict]:
    return {name: dict(klass=t.klass_codes, src0=t.src0, src1=t.src1,
                       dst=t.dst, taken=t.taken, pattern_key=t.pattern_key,
                       is_miss=t.is_miss)
            for name, t in traces.items()}


def _fresh_traces(arrays: dict[str, dict]) -> dict[str, Trace]:
    """New Trace objects over the same arrays, with empty lazy caches."""
    return {name: Trace.from_arrays(name, **a) for name, a in arrays.items()}


def _guarded(outputs: dict, op: str, fn, *args, **kwargs):
    """Run one operation, storing its output or the exception it raised."""
    try:
        outputs[op] = fn(*args, **kwargs)
    except Exception as exc:                   # a failed operation, counted
        outputs[op] = exc
    return outputs[op]


class PaperFigures:
    """What ``python -m repro fig3 fig4 fig6 fig7 fig8 fig11 ... fig15``
    computes.  The seed picks the IPC traces (trace seed = seed) and the
    synthetic device curves (curve seed = 2017 + seed), so seed 0 gives
    exactly the CLI's figures."""

    name = "paper-figures"

    def __init__(self, seed: int, small: bool = False) -> None:
        self.seed = seed
        self.small = small
        self.n11 = 2_000 if small else FIG11_TRACE_LENGTH
        self.n13 = 2_000 if small else FIG13_TRACE_LENGTH
        self._arrays: dict[tuple, dict] = {}
        self._pass_traces: dict[tuple, dict[str, Trace]] = {}

    def setup(self) -> None:
        for workloads, n in ((None, self.n11), (None, self.n13), FIG14_TRACE):
            names = list(workloads) if workloads else None
            self._arrays[(workloads, n)] = _trace_arrays(
                make_traces(workloads=names, n_instructions=n,
                            seed=self.seed))

    def _make_traces(self, workloads=None, n_instructions=None, seed=0):
        key = (tuple(workloads) if workloads else None, n_instructions)
        return self._pass_traces[key]

    def prepare(self) -> None:
        self._pass_traces = {key: _fresh_traces(a)
                             for key, a in self._arrays.items()}
        # The figure runners look make_traces up in their own module;
        # serve them this pass's seeded traces instead.
        figures.make_traces = self._make_traces

    def run(self) -> dict:
        s = self.small
        out: dict = {}
        F = figures
        _guarded(out, "fig3", F.fig3_transfer_characteristics,
                 seed=FIG3_SEED + self.seed)
        _guarded(out, "fig4", F.fig4_model_fits, seed=FIG3_SEED + self.seed)
        _guarded(out, "fig6", F.fig6_inverter_comparison)
        _guarded(out, "fig7", F.fig7_vdd_scaling)
        _guarded(out, "fig8", F.fig8_vss_tuning)
        _guarded(out, "fig11", F.fig11_pipeline_depth,
                 n_instructions=self.n11, **({"max_depth": 10} if s else {}))
        _guarded(out, "fig12", F.fig12_alu_depth,
                 **({"stage_counts": [1, 2, 4], "width": 8} if s else {}))
        _guarded(out, "fig13", F.fig13_width_performance,
                 n_instructions=self.n13)
        _guarded(out, "fig14", F.fig14_width_area)
        _guarded(out, "fig15", F.fig15_wire_ablation,
                 **({"alu_stages": [1, 2, 4], "core_max_depth": 10,
                     "width": 8} if s else {}))
        return out


class DseGrid:
    """The stock 1008-point ``dse_sweep`` grid on seeded gzip traces.

    The two stock libraries are characterised in setup (bypassing the
    result cache), so a pass runs synthesis, STA, the core model and IPC
    simulation only."""

    name = "dse-grid"

    def __init__(self, seed: int, small: bool = False) -> None:
        self.seed = seed
        self.widths = (8, 16) if small else DATA_WIDTHS
        self.width_pairs = WIDTH_PAIRS[:2] if small else WIDTH_PAIRS
        self.max_depth = 11 if small else 17

    def setup(self) -> None:
        self._arrays = _trace_arrays(make_traces(
            workloads=["gzip"], n_instructions=DSE_TRACE_LENGTH,
            seed=self.seed))
        self._libraries = (organic_library(use_cache=False).to_dict(),
                           silicon_library(use_cache=False).to_dict())

    def prepare(self) -> None:
        org, sil = (Library.from_dict(d) for d in self._libraries)
        org_wire, sil_wire = organic_wire_model(), silicon_wire_model()
        self._combos = [
            ("organic", org, org_wire),
            ("organic_no_wire", org, org_wire.scaled(0.0)),
            ("silicon", sil, sil_wire),
            ("silicon_no_wire", sil, sil_wire.scaled(0.0)),
        ]
        self._traces = _fresh_traces(self._arrays)

    def run(self) -> dict:
        out: dict = {}
        grid = _guarded(out, "dse_sweep", dse_sweep, combos=self._combos,
                        widths=self.widths, width_pairs=self.width_pairs,
                        max_depth=self.max_depth, traces=self._traces,
                        workers=1)
        if isinstance(grid, Exception):
            return out
        del out["dse_sweep"]
        for i, p in enumerate(grid.points):
            c = p.config
            out[(f"{i:04d}:{p.combo}:w{c.data_width}:f{c.front_width}"
                 f"x{c.back_width}:d{c.depth}")] = p
        return out


class LibraryCorners:
    """Library characterisation at Fig 7's supply corners plus two
    retargets, then the style-comparison noise-margin Monte Carlo.

    The libraries go through the result cache (characterised in the cold
    pass, read back in the warm one); the Monte Carlo is never cached.
    The seed picks the Monte Carlo samples (seed 0 = the stock seed)."""

    name = "library-corners"

    def __init__(self, seed: int, small: bool = False) -> None:
        self.seed = seed
        self.n_samples = 4 if small else 30
        self.corners = list(zip((5.0, 10.0, 15.0), paper_value("fig7_vss")))

    def setup(self) -> None:
        pass

    def prepare(self) -> None:
        pass

    def run(self) -> dict:
        out: dict = {}
        for vdd, vss in self.corners:
            _guarded(out, f"library:pentacene_vdd{vdd:g}", organic_library,
                     vdd=vdd, vss=vss)
        _guarded(out, "library:dntt", organic_library, model=dntt_model())
        _guarded(out, "library:silicon", silicon_library)
        styles = _guarded(out, "mc", compare_styles,
                          n_samples=self.n_samples, seed=YIELD_SEED + self.seed)
        if isinstance(styles, Exception):
            return out
        del out["mc"]
        for style, result in styles.items():
            for i, margin in enumerate(result.noise_margins):
                out[f"mc:{style}:{i:02d}"] = float(margin)
            out[f"mc:{style}:summary"] = (result.n_samples,
                                          result.n_converged,
                                          result.vm_values,
                                          result.nm_threshold)
        return out


WORKLOADS = {w.name: w for w in (PaperFigures, DseGrid, LibraryCorners)}
