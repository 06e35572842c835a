"""Pipeline cutting / retiming: minimum clock period for N stages.

The repro equivalent of the paper's methodology: "we synthesize the
baseline design and cut the stage which is on the critical path manually to
ensure an improved clock rate" plus DesignWare's "parameterized number of
pipeline stages and automatic pipeline retiming" (Section 5.1).

Given a mapped netlist and per-gate delays (NLDM + wire, from STA), a
greedy ASAP leveling assigns each gate to the earliest stage whose
remaining logic budget fits it.  Binary search over the budget finds the
minimum clock period achievable with N stages:

    period(N) = logic_budget(N) + clk->q + setup + skew + feedback-wire

The last term is the per-cycle cost of the cross-pipeline feedback signals
(bypasses, stalls, branch resolution) travelling the block's physical span
— the wire cost that, per the paper, silicon pays in gate-delay terms and
the organic process does not.  Gate granularity emerges naturally: no
budget can go below the largest single gate delay, which is what tops out
the organic curves around 22 stages in Figure 12.

Registers inserted at stage boundaries are counted per crossed boundary
(a value consumed k stages after production needs k flops), which drives
the area growth with depth.

The leveling and the register count run on the level-sorted array view
of the netlist that vector STA caches (``sta._vector_structure``).  The
leveler is a C loop over the gates in level order, built by
:mod:`repro.runtime.native`; without a compiler (or with
``REPRO_NATIVE=0``) one numpy pass per logic level runs instead.  Both
do the greedy's own float operations, so the stage of every gate is
bit-identical to the gate-at-a-time greedy kept in
:mod:`repro.validate.pipeline_oracle` as the differential oracle.  A
sweep shares one budget memo across its stage counts, whose bisections
all start from the same bounds.
"""

from __future__ import annotations

import ctypes
import time
from dataclasses import dataclass, field

import numpy as np

from repro.characterization.library import Library
from repro.errors import PipelineError
from repro.runtime import native, profiling, telemetry
from repro.runtime.log import get_logger
from repro.synthesis.netlist import Netlist
from repro.synthesis.sta import _vector_structure, static_timing
from repro.synthesis.wires import WireModel, block_span

logger = get_logger(__name__)


@dataclass(frozen=True)
class PipelineResult:
    """Minimum-period pipelining of one netlist into ``n_stages``."""

    netlist_name: str
    n_stages: int
    period: float
    frequency: float
    logic_budget: float
    overhead: float
    n_registers: int
    gate_area: float
    register_area: float
    stage_of_gate: dict[str, int] = field(repr=False, default_factory=dict)

    @property
    def area(self) -> float:
        return self.gate_area + self.register_area


def per_gate_delays(netlist: Netlist, library: Library, wire: WireModel,
                    input_slew: float | None = None,
                    output_load: float | None = None) -> dict[str, float]:
    """Per-gate delay (NLDM + output wire RC) from one STA pass."""
    report = static_timing(netlist, library, wire, input_slew=input_slew,
                           output_load=output_load)
    return report.gate_delay


def level_delays(netlist: Netlist, delays: dict[str, float]) -> np.ndarray:
    """Per-gate delays as an array in the netlist's level order.

    Level order is the gate order of the netlist's vector structure
    (``sta._vector_structure(netlist)["gate_names"]``), which is what
    :func:`stages_needed` and :func:`count_registers` index by.
    """
    names = _vector_structure(netlist)["gate_names"]
    return np.fromiter((delays[name] for name in names), dtype=float,
                       count=len(names))


def stages_needed(netlist: Netlist, delays: np.ndarray,
                  budget: float) -> tuple[int, np.ndarray] | None:
    """Greedy ASAP leveling: stages required for a per-stage logic budget.

    *delays* holds the per-gate delays in level order
    (:func:`level_delays`).  Each gate starts from the latest stage among
    its inputs and the latest arrival within that stage (floored at 0.0);
    if its delay would overrun the budget it opens the next stage.  The
    compiled kernel applies that rule gate by gate; without it, one
    numpy pass per logic level applies it to the whole level.

    Returns ``(n_stages, stage)`` with ``stage[k]`` the stage of gate k in
    level order; ``None`` if some single gate exceeds the budget (gate
    granularity bound).
    """
    if telemetry.ENABLED:
        telemetry.count("pipeline.levelings")
    if len(delays) and delays.max() > budget:
        return None
    if _KERNEL.load() is not None:
        return _stages_native(netlist, delays, budget)
    return _stages_numpy(netlist, delays, budget)


_LEVELER_C = """
#include <stdint.h>

/* Greedy ASAP leveling of the gates in level order; the rule of
 * stages_needed in repro/synthesis/pipeline.py.  g_in is n x width net
 * ids with -1 padding (the sentinel net: stage 0, time 0.0, which is
 * also each gate's starting point).  net_stage/net_t are zeroed by the
 * caller; stage receives each gate's stage.  Returns the stage count.
 */
long repro_level(long n, long width, const int32_t *g_in,
                 const int32_t *g_out, const double *delay, double budget,
                 int32_t *net_stage, double *net_t, int32_t *stage)
{
    int32_t top = 0;
    for (long k = 0; k < n; k++) {
        int32_t s = 0;
        double t = 0.0;
        for (long p = 0; p < width; p++) {
            int32_t net = g_in[k * width + p];
            if (net < 0) continue;
            if (net_stage[net] > s) { s = net_stage[net]; t = net_t[net]; }
            else if (net_stage[net] == s && net_t[net] > t) t = net_t[net];
        }
        t += delay[k];
        if (t > budget) { s += 1; t = delay[k]; }
        stage[k] = s;
        net_stage[g_out[k]] = s;
        net_t[g_out[k]] = t;
        if (s > top) top = s;
    }
    return top + 1L;
}
"""


def _bind_leveler(lib: ctypes.CDLL):
    fn = lib.repro_level
    fn.restype = ctypes.c_long
    P, L = ctypes.c_void_p, ctypes.c_long
    fn.argtypes = [L, L, P, P, P, ctypes.c_double, P, P, P]
    return fn


_KERNEL = native.Kernel(
    "pipeline_leveler", _LEVELER_C, _bind_leveler, logger,
    "the pipeline leveler", "the numpy level-at-a-time loop")


def _stages_native(netlist: Netlist, delays: np.ndarray,
                   budget: float) -> tuple[int, np.ndarray]:
    """The compiled leveler (the kernel must be buildable)."""
    struct = _vector_structure(netlist)
    g_in = np.ascontiguousarray(struct["g_in"], dtype=np.int32)
    g_out = np.ascontiguousarray(struct["g_out"], dtype=np.int32)
    delays = np.ascontiguousarray(delays, dtype=float)
    if delays.shape != g_out.shape:              # the C loop reads n delays
        raise ValueError(f"{delays.shape} delays for {len(g_out)} gates")
    n_nets = len(struct["names"])
    net_stage = np.zeros(n_nets, dtype=np.int32)
    net_t = np.zeros(n_nets)
    stage = np.empty(len(g_out), dtype=np.int32)
    n = _KERNEL.build()(len(g_out), g_in.shape[1], g_in.ctypes.data,
                        g_out.ctypes.data, delays.ctypes.data, budget,
                        net_stage.ctypes.data, net_t.ctypes.data,
                        stage.ctypes.data)
    return int(n), stage


def _stages_numpy(netlist: Netlist, delays: np.ndarray,
                  budget: float) -> tuple[int, np.ndarray]:
    """The level-at-a-time numpy leveler."""
    struct = _vector_structure(netlist)
    g_out = struct["g_out"]
    # An extra input column pointing at the sentinel net (index -1, state
    # (0, 0.0)) that the pin padding of one- and two-input gates reads
    # too: it is the greedy's starting point, so the 0.0 floor of stage-0
    # arrivals needs no separate step.
    g_in = np.pad(struct["g_in"], ((0, 0), (0, 1)), constant_values=-1)
    n_nets = len(struct["names"])
    net_stage = np.zeros(n_nets + 1, dtype=np.int32)
    net_t = np.zeros(n_nets + 1)
    start = 0
    for stop in struct["bounds"].tolist():
        ins = g_in[start:stop]
        d = delays[start:stop]
        s_in = net_stage[ins]
        s_max = s_in.max(axis=1)
        t_in = np.where(s_in == s_max[:, None], net_t[ins],
                        -np.inf).max(axis=1)
        t_out = t_in + d
        spill = t_out > budget
        out = g_out[start:stop]
        net_stage[out] = s_max + spill
        net_t[out] = np.where(spill, d, t_out)
        start = stop
    stage = net_stage[g_out]
    return (int(stage.max()) + 1 if len(stage) else 1), stage


def count_registers(netlist: Netlist, stage: np.ndarray,
                    n_stages: int) -> int:
    """Pipeline flops: one per net per crossed stage boundary.

    *stage* is the per-gate stage in level order, as returned by
    :func:`stages_needed`.  Primary inputs are produced at stage 0's
    boundary; primary outputs are registered at the final boundary.
    """
    struct = _vector_structure(netlist)
    # Per-net driver stage (primary inputs: 0), plus the sentinel slot at
    # index -1 that absorbs the -1 pin padding of narrow gates.
    produced = np.zeros(len(struct["names"]) + 1, dtype=np.int32)
    produced[struct["g_out"]] = stage
    last = produced.copy()
    np.maximum.at(last, struct["g_in"], stage[:, None])
    po = struct["po_ids"]
    last[po] = np.maximum(last[po], n_stages - 1)
    return int((last[:-1] - produced[:-1]).sum()) + len(po)


def broadcast_penalty(library: Library, wire: WireModel,
                      span_length: float) -> float:
    """Per-cycle cost of a feedback signal crossing the block's span.

    Modelled as the extra delay of an inverter driving the span wire's
    capacitance (NLDM lookup, so it is priced in *this process's* gate
    currents) plus the wire's own Elmore delay.
    """
    inv = library.cell("inv")
    cin = inv.input_caps["a"]
    slew = library.typical_slew()
    c_span = wire.span_capacitance(span_length)
    loaded = inv.delay("a", slew, 4.0 * cin + c_span)
    unloaded = inv.delay("a", slew, 4.0 * cin)
    return (loaded - unloaded) + wire.span_elmore(span_length, cin)


#: Feedback-wire length model: stall/bypass/branch-resolution signals must
#: cross the block each cycle; their routed length grows with pipeline
#: depth (they span more stage boundaries — the Pentium-4 "wire stages"
#: effect the paper cites in Section 5.5).
FEEDBACK_BASE_SPANS = 0.5
FEEDBACK_SPANS_PER_STAGE = 0.15


def _gate_area(netlist: Netlist, library: Library) -> float:
    # A plain sum in gate order: the float total is part of every result.
    return sum(library.cell(g.cell).area for g in netlist.gates.values())


def sequencing_overhead(netlist: Netlist, library: Library, wire: WireModel,
                        n_stages: int = 1, skew_fo4: float = 0.5,
                        gate_area: float | None = None) -> float:
    """Per-stage overhead: clk->q + setup + skew + feedback wire.

    The feedback term is where the processes diverge: it is priced by
    NLDM tables and the per-process wire model, so the same physical
    length costs silicon several FO4 and the organic process almost
    nothing (Section 5.5's "relatively fast wires").  *gate_area* is the
    netlist's cell area when the caller already has it.
    """
    fo4 = library.inverter_fo4_delay()
    if gate_area is None:
        gate_area = _gate_area(netlist, library)
    span = block_span(gate_area)
    feedback_length = span * (FEEDBACK_BASE_SPANS
                              + FEEDBACK_SPANS_PER_STAGE * n_stages)
    return (library.register_overhead()
            + skew_fo4 * fo4
            + broadcast_penalty(library, wire, feedback_length))


class _SweepCut:
    """What every stage count of one sweep shares, built once per sweep.

    The level-ordered delay array, the budget bounds (one gate .. whole
    critical path), the gate area and a memo of leveling results keyed by
    budget.  It lives only as long as the :func:`pipeline_sweep` (or
    :func:`min_period_for_stages`) call that built it.
    """

    def __init__(self, netlist: Netlist, library: Library,
                 delays: dict[str, float]) -> None:
        if not netlist.gates:
            raise PipelineError(
                f"netlist {netlist.name!r} has no gates to pipeline")
        self.netlist = netlist
        self.delays = level_delays(netlist, delays)
        self.lo = float(self.delays.max())
        # Upper bound over ALL nets: the leveler assigns every gate,
        # including any not on an input-to-output path.  Tiny slack
        # because summation order differs between this bound and the
        # greedy leveling.
        self.hi = max(self._max_arrival(), self.lo) * (1.0 + 1e-9)
        self.gate_area = _gate_area(netlist, library)
        self._memo: dict[float, tuple[int, np.ndarray] | None] = {}

    def _max_arrival(self) -> float:
        struct = _vector_structure(self.netlist)
        g_in, g_out = struct["g_in"], struct["g_out"]
        arrival = np.zeros(len(struct["names"]) + 1)
        arrival[-1] = -np.inf                  # the pin-padding sentinel
        start = 0
        for stop in struct["bounds"].tolist():
            arrival[g_out[start:stop]] = (
                self.delays[start:stop]
                + arrival[g_in[start:stop]].max(axis=1))
            start = stop
        return float(arrival[:-1].max())

    def level(self, budget: float) -> tuple[int, np.ndarray] | None:
        """:func:`stages_needed` at *budget*, once per distinct budget."""
        if budget in self._memo:
            if telemetry.ENABLED:
                telemetry.count("pipeline.leveling_memo_hits")
            return self._memo[budget]
        result = stages_needed(self.netlist, self.delays, budget)
        self._memo[budget] = result
        return result

    def cut(self, library: Library, wire: WireModel, n_stages: int,
            skew_fo4: float, tolerance: float) -> PipelineResult:
        """Minimum clock period for *n_stages* stages."""
        if n_stages < 1:
            raise PipelineError(f"n_stages must be >= 1, got {n_stages}")
        netlist = self.netlist
        overhead = sequencing_overhead(netlist, library, wire, n_stages,
                                       skew_fo4, gate_area=self.gate_area)
        hi = self.hi
        feasible_hi = self.level(hi)
        if feasible_hi is None:
            raise PipelineError("critical-path budget infeasible (bug)")

        # If even the single-gate bound needs more stages than allowed,
        # the request is infeasible only when n_stages < stages at hi.
        if feasible_hi[0] > n_stages:
            raise PipelineError(
                f"netlist {netlist.name!r} cannot fit in {n_stages} "
                f"stage(s)")

        best_budget = hi
        best_stages, best_stage = feasible_hi
        lo_b, hi_b = self.lo, hi
        for _ in range(60):
            if hi_b - lo_b <= tolerance * hi_b:
                break
            mid = 0.5 * (lo_b + hi_b)
            res = self.level(mid)
            if res is not None and res[0] <= n_stages:
                best_budget, (best_stages, best_stage) = mid, res
                hi_b = mid
            else:
                lo_b = mid

        n_regs = count_registers(netlist, best_stage, best_stages)
        reg_area = n_regs * library.dff.area
        # Overhead is priced at the stage count actually achieved: asking
        # for more stages than the gate granularity permits does not add
        # feedback wire that was never built.
        if best_stages < n_stages:
            overhead = sequencing_overhead(netlist, library, wire,
                                           best_stages, skew_fo4,
                                           gate_area=self.gate_area)
        period = best_budget + overhead
        names = _vector_structure(netlist)["gate_names"]
        return PipelineResult(
            netlist_name=netlist.name,
            n_stages=best_stages,
            period=period,
            frequency=1.0 / period,
            logic_budget=best_budget,
            overhead=overhead,
            n_registers=n_regs,
            gate_area=self.gate_area,
            register_area=reg_area,
            stage_of_gate=dict(zip(names, best_stage.tolist())),
        )


def _cut_all(netlist: Netlist, library: Library, wire: WireModel,
             delays: dict[str, float], stage_counts, skew_fo4: float,
             tolerance: float) -> list[PipelineResult]:
    """Cut *netlist* at each stage count, booked as profiling stage
    ``pipeline`` (disjoint from the ``sta`` pass that made *delays*) and
    as span ``pipeline:<netlist name>``."""
    t0 = time.perf_counter() if profiling.ENABLED else 0.0
    try:
        with telemetry.span(f"pipeline:{netlist.name}"):
            cut = _SweepCut(netlist, library, delays)
            return [cut.cut(library, wire, n, skew_fo4, tolerance)
                    for n in stage_counts]
    finally:
        if profiling.ENABLED:
            profiling.add("pipeline", time.perf_counter() - t0)


def min_period_for_stages(netlist: Netlist, library: Library,
                          wire: WireModel, n_stages: int,
                          delays: dict[str, float] | None = None,
                          skew_fo4: float = 0.5,
                          tolerance: float = 1e-3) -> PipelineResult:
    """Minimum clock period cutting *netlist* into *n_stages* stages."""
    if delays is None:
        delays = per_gate_delays(netlist, library, wire)
    return _cut_all(netlist, library, wire, delays, [n_stages], skew_fo4,
                    tolerance)[0]


def pipeline_sweep(netlist: Netlist, library: Library, wire: WireModel,
                   stage_counts: list[int] | range,
                   skew_fo4: float = 0.5) -> list[PipelineResult]:
    """Minimum period across a range of stage counts (Figure 12 driver).

    Per-gate delays, the budget bounds and a leveling memo are computed
    once and shared; stage counts beyond the gate-granularity bound
    return the deepest feasible pipelining (the flat tail of the organic
    curve in Figure 12b).
    """
    delays = per_gate_delays(netlist, library, wire)
    return _cut_all(netlist, library, wire, delays, stage_counts, skew_fo4,
                    tolerance=1e-3)
