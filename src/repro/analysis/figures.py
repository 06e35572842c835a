"""Per-figure experiment runners.

Every public function regenerates the data behind one figure or table of
the paper's evaluation and returns a small result object carrying both the
measured series and, where available, the paper-reported reference.  The
benchmark suite (``benchmarks/``) calls these and prints the same
rows/series the paper plots; EXPERIMENTS.md records the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.calibration import paper_value
from repro.cells.topologies import (
    biased_load_inverter,
    diode_load_inverter,
    pseudo_e_inverter,
)
from repro.cells.vtc import VtcAnalysis, analyze_inverter, compute_vtc, switching_threshold
from repro.characterization import organic_library, silicon_library
from repro.characterization.library import Library
from repro.core.tradeoffs import (
    DepthSweepPoint,
    WidthSweepPoint,
    depth_sweep,
    make_traces,
    width_matrix,
    width_sweep,
)
from repro.devices import PENTACENE, measured_transfer_curve
from repro.devices.extraction import (
    DeviceReport,
    FitResult,
    characterize_curve,
    fit_level1,
    fit_level61,
)
from repro.devices.pentacene import PENTACENE_CI
from repro.synthesis.netlist import Netlist
from repro.synthesis.pipeline import PipelineResult, pipeline_sweep
from repro.synthesis.wires import WireModel, organic_wire_model, silicon_wire_model

#: Pseudo-E sizing used for the inverter figures — the library sizing
#: (weak W/L = 0.1 shifter load), so Figures 6-8 describe the same cell
#: the architecture experiments build with.
_FIG_PSEUDO_E_SIZES = dict(w_drive=100e-6, w_shift_load=10e-6,
                           l_shift_load=100e-6, w_up=100e-6, w_down=50e-6)


def load_libraries() -> tuple[Library, Library]:
    """(organic, silicon) characterised libraries (disk-cached)."""
    return organic_library(), silicon_library()


def wire_models() -> tuple[WireModel, WireModel]:
    return organic_wire_model(), silicon_wire_model()


# ---------------------------------------------------------------------------
# Figure 3 / Section 4.1
#
# Figures 3 and 4 are device-level (measured transfer curves and SPICE
# model fits); they build no gate netlists, so the shared-structure /
# incremental-STA machinery has nothing to reuse here — audited when the
# sweep path moved to block_netlist(), nothing to deduplicate.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fig3Result:
    report_vds1: DeviceReport
    report_vds10: DeviceReport
    curve_vds1: object
    paper_mobility: float
    paper_ss: float
    paper_on_off: float
    paper_vt1: float
    paper_vt10: float


def fig3_transfer_characteristics(seed: int = 2017) -> Fig3Result:
    """Synthesise the ID-VGS measurement and extract Section 4.1's values."""
    curve1 = measured_transfer_curve(vds=-1.0, seed=seed)
    curve10 = measured_transfer_curve(vds=-10.0, seed=seed + 1)
    return Fig3Result(
        report_vds1=characterize_curve(curve1, PENTACENE_CI),
        report_vds10=characterize_curve(curve10, PENTACENE_CI),
        curve_vds1=curve1,
        paper_mobility=paper_value("mobility"),
        paper_ss=paper_value("subthreshold_slope"),
        paper_on_off=paper_value("on_off_ratio"),
        paper_vt1=paper_value("vt_vds1"),
        paper_vt10=paper_value("vt_vds10"),
    )


# ---------------------------------------------------------------------------
# Figure 4
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fig4Result:
    level1: FitResult
    level61: FitResult

    @property
    def level1_much_worse(self) -> bool:
        """Figure 4's message: level 1 misses subthreshold/leakage."""
        return self.level1.rms_log_error > 10 * self.level61.rms_log_error


def fig4_model_fits(seed: int = 2017) -> Fig4Result:
    curve = measured_transfer_curve(vds=-1.0, seed=seed)
    return Fig4Result(level1=fit_level1(curve, PENTACENE_CI),
                      level61=fit_level61(curve, PENTACENE_CI))


# ---------------------------------------------------------------------------
# Figure 6
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fig6Result:
    diode: VtcAnalysis
    biased: VtcAnalysis
    pseudo_e: VtcAnalysis

    def gains(self) -> tuple[float, float, float]:
        return (self.diode.max_gain, self.biased.max_gain,
                self.pseudo_e.max_gain)


def fig6_inverter_comparison(vdd: float = 15.0) -> Fig6Result:
    """Diode-load vs biased-load vs pseudo-E at VDD = 15 V (Figure 6d)."""
    diode = diode_load_inverter(PENTACENE, w_drive=100e-6, w_load=50e-6,
                                vdd=vdd)
    biased = biased_load_inverter(PENTACENE, w_drive=100e-6, w_load=20e-6,
                                  vdd=vdd, vss=-5.0)
    pseudo = pseudo_e_inverter(PENTACENE, vdd=vdd, vss=-15.0,
                               **_FIG_PSEUDO_E_SIZES)
    return Fig6Result(
        diode=analyze_inverter(diode),
        biased=analyze_inverter(biased),
        pseudo_e=analyze_inverter(pseudo),
    )


# ---------------------------------------------------------------------------
# Figure 7
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fig7Result:
    analyses: dict[float, VtcAnalysis]     # keyed by VDD
    vss_used: dict[float, float]


def fig7_vdd_scaling() -> Fig7Result:
    """Pseudo-E at VDD = 5/10/15 V with the paper's VSS choices."""
    vss_by_vdd = dict(zip((5.0, 10.0, 15.0), paper_value("fig7_vss")))
    analyses = {}
    for vdd, vss in vss_by_vdd.items():
        cell = pseudo_e_inverter(PENTACENE, vdd=vdd, vss=vss,
                                 **_FIG_PSEUDO_E_SIZES)
        analyses[vdd] = analyze_inverter(cell)
    return Fig7Result(analyses=analyses, vss_used=vss_by_vdd)


# ---------------------------------------------------------------------------
# Figure 8
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fig8Result:
    vss_values: np.ndarray
    vm_values: np.ndarray
    slope: float
    intercept: float
    paper_slope: float


def fig8_vss_tuning(vdd: float = 5.0,
                    vss_values: np.ndarray | None = None) -> Fig8Result:
    """VM versus VSS at VDD = 5 V and the linear fit (Figure 8b)."""
    if vss_values is None:
        vss_values = np.arange(-20.0, -9.9, 1.25)
    vms = []
    for vss in vss_values:
        cell = pseudo_e_inverter(PENTACENE, vdd=vdd, vss=float(vss),
                                 **_FIG_PSEUDO_E_SIZES)
        curve = compute_vtc(cell, n_points=101)
        vms.append(switching_threshold(curve))
    vms_arr = np.asarray(vms)
    slope, intercept = np.polyfit(vss_values, vms_arr, 1)
    return Fig8Result(vss_values=np.asarray(vss_values), vm_values=vms_arr,
                      slope=float(slope), intercept=float(intercept),
                      paper_slope=paper_value("fig8_slope"))


# ---------------------------------------------------------------------------
# Figures 11-15: architecture sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fig11Result:
    organic: list[DepthSweepPoint]
    silicon: list[DepthSweepPoint]

    def optimal_depth(self, process: str) -> int:
        points = self.organic if process == "organic" else self.silicon
        base = points[0]
        def mean_rel(p):
            return sum(v / base.performance[k]
                       for k, v in p.performance.items()) / len(p.performance)
        return max(points, key=mean_rel).depth

    def normalized_performance(self, process: str) -> dict[int, dict[str, float]]:
        points = self.organic if process == "organic" else self.silicon
        base = points[0]
        return {p.depth: {k: v / base.performance[k]
                          for k, v in p.performance.items()}
                for p in points}

    def normalized_area(self, process: str) -> dict[int, float]:
        points = self.organic if process == "organic" else self.silicon
        base_area = points[0].physical.area
        return {p.depth: p.physical.area / base_area for p in points}


def fig11_pipeline_depth(max_depth: int = 15,
                         n_instructions: int = 25_000,
                         workers: int | None = None) -> Fig11Result:
    """Core performance/area versus pipeline depth for both processes."""
    org_lib, sil_lib = load_libraries()
    org_wire, sil_wire = wire_models()
    traces = make_traces(n_instructions=n_instructions)
    return Fig11Result(
        organic=depth_sweep(org_lib, org_wire, max_depth=max_depth,
                            traces=traces, workers=workers),
        silicon=depth_sweep(sil_lib, sil_wire, max_depth=max_depth,
                            traces=traces, workers=workers),
    )


@dataclass(frozen=True)
class Fig12Result:
    stage_counts: list[int]
    organic: list[PipelineResult]
    silicon: list[PipelineResult]

    def frequency_ratios(self, process: str) -> list[float]:
        points = self.organic if process == "organic" else self.silicon
        base = points[0].frequency
        return [p.frequency / base for p in points]

    def area_ratios(self, process: str) -> list[float]:
        points = self.organic if process == "organic" else self.silicon
        base = points[0].area
        return [p.area / base for p in points]

    def saturation_stage(self, process: str, tolerance: float = 0.03
                         ) -> int:
        """First requested stage count whose frequency is within
        *tolerance* of the best achieved — where the curve flattens."""
        ratios = self.frequency_ratios(process)
        best = max(ratios)
        for n, r in zip(self.stage_counts, ratios):
            if r >= best * (1.0 - tolerance):
                return n
        return self.stage_counts[-1]


def _alu_netlist(width: int) -> Netlist:
    # Shares the mapped complex-ALU slice with the core model's block
    # path (one generic netlist + one mapping per width, process-wide)
    # instead of keeping a private memo here.
    from repro.core.physical import block_netlist
    return block_netlist("complex", width)


#: Stage counts of Figure 12's ALU sweeps.
FIG12_STAGE_COUNTS = (1, 2, 4, 6, 8, 10, 12, 14, 18, 22, 26, 30)


def fig12_alu_depth(stage_counts: list[int] | None = None,
                    width: int = 16) -> Fig12Result:
    """Complex-ALU frequency and area versus pipeline stages."""
    stage_counts = stage_counts or list(FIG12_STAGE_COUNTS)
    netlist = _alu_netlist(width)
    org_lib, sil_lib = load_libraries()
    org_wire, sil_wire = wire_models()
    return Fig12Result(
        stage_counts=stage_counts,
        organic=pipeline_sweep(netlist, org_lib, org_wire, stage_counts),
        silicon=pipeline_sweep(netlist, sil_lib, sil_wire, stage_counts),
    )


@dataclass(frozen=True)
class Fig13Result:
    organic: dict[tuple[int, int], float]
    silicon: dict[tuple[int, int], float]
    paper_organic: tuple
    paper_silicon: tuple

    def optimum(self, process: str) -> tuple[int, int]:
        matrix = self.organic if process == "organic" else self.silicon
        return max(matrix, key=matrix.get)


def fig13_width_performance(n_instructions: int = 25_000,
                            workers: int | None = None) -> Fig13Result:
    """Normalised performance over the 30-point width grid."""
    org_lib, sil_lib = load_libraries()
    org_wire, sil_wire = wire_models()
    traces = make_traces(n_instructions=n_instructions)
    org_pts = width_sweep(org_lib, org_wire, traces=traces, workers=workers)
    sil_pts = width_sweep(sil_lib, sil_wire, traces=traces, workers=workers)
    return Fig13Result(
        organic=width_matrix(org_pts, "performance"),
        silicon=width_matrix(sil_pts, "performance"),
        paper_organic=paper_value("fig13_org_matrix"),
        paper_silicon=paper_value("fig13_si_matrix"),
    )


@dataclass(frozen=True)
class Fig14Result:
    organic: dict[tuple[int, int], float]
    silicon: dict[tuple[int, int], float]

    def max_process_difference(self) -> float:
        """Largest |organic - silicon| across the grid (paper: 'similar')."""
        return max(abs(self.organic[k] - self.silicon[k])
                   for k in self.organic)


def fig14_width_area(workers: int | None = None) -> Fig14Result:
    """Normalised area over the width grid (no simulation needed)."""
    org_lib, sil_lib = load_libraries()
    org_wire, sil_wire = wire_models()
    # IPC is irrelevant for area: reuse width_sweep with a tiny trace.
    traces = make_traces(workloads=["dhrystone"], n_instructions=512)
    org_pts = width_sweep(org_lib, org_wire, traces=traces, workers=workers)
    sil_pts = width_sweep(sil_lib, sil_wire, traces=traces, workers=workers)
    return Fig14Result(
        organic=width_matrix(org_pts, "area"),
        silicon=width_matrix(sil_pts, "area"),
    )


@dataclass(frozen=True)
class Fig15Result:
    alu_stage_counts: list[int]
    alu: dict[str, list[float]]           # 4 series of frequency ratios
    core_depths: list[int]
    core: dict[str, list[float]]

    SERIES = ("organic", "organic_no_wire", "silicon", "silicon_no_wire")


def fig15_wire_ablation(alu_stages: list[int] | None = None,
                        core_max_depth: int = 15,
                        width: int = 16) -> Fig15Result:
    """Frequency versus stages with and without wire delay (Figure 15)."""
    alu_stages = alu_stages or [1, 2, 4, 6, 8, 10, 14, 18, 22, 26, 30]
    netlist = _alu_netlist(width)
    org_lib, sil_lib = load_libraries()
    org_wire, sil_wire = wire_models()

    alu_series: dict[str, list[float]] = {}
    core_series: dict[str, list[float]] = {}
    core_depths = list(range(9, core_max_depth + 1))

    from repro.core.config import CoreConfig
    from repro.core.physical import core_physical
    from repro.core.tradeoffs import deepen_pipeline

    for label, lib, wire in (
            ("organic", org_lib, org_wire),
            ("organic_no_wire", org_lib, org_wire.scaled(0.0)),
            ("silicon", sil_lib, sil_wire),
            ("silicon_no_wire", sil_lib, sil_wire.scaled(0.0))):
        sweep = pipeline_sweep(netlist, lib, wire, alu_stages)
        base = sweep[0].frequency
        alu_series[label] = [p.frequency / base for p in sweep]

        config = CoreConfig()
        freqs = []
        while config.depth <= core_max_depth:
            freqs.append(core_physical(config, lib, wire).frequency)
            if config.depth == core_max_depth:
                break
            config = deepen_pipeline(config, lib, wire)
        core_series[label] = [f / freqs[0] for f in freqs]

    return Fig15Result(alu_stage_counts=alu_stages, alu=alu_series,
                       core_depths=core_depths, core=core_series)
