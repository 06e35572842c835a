"""Differential checks: every fast path diffed against its oracle.

The repo carries five "same answer, faster" engines (batched ensemble
transients, the packed-array/compiled IPC kernel, levelised-array STA,
level-at-a-time pipeline leveling, and the persistent result cache).
Each check here runs a seeded sample through both the fast path and its
reference implementation and fails on any disagreement beyond the
documented tolerance — the tolerances are the same ones the unit suites
enforce, so a validation failure means a real regression, not noise.
"""

from __future__ import annotations

import numpy as np

from repro.validate.checks import (
    CheckContext,
    check,
    expect,
    expect_close,
    swap_attr,
    swap_env,
)

#: Tolerance shared with the ensemble-equivalence unit suite.
ENSEMBLE_REL = 1e-9


# ---------------------------------------------------------------------------
# A small characterised library, built once per process.
#
# Differential STA and the NLDM invariants need real characterised
# tables, but a full library build (4x4 grid, setup-time bisection) is a
# minutes-scale job.  This mini build characterises the five
# combinational cells on a 2x3 grid — every code path of the harness,
# a fraction of the transients — and stubs the sequential timing, which
# no validation check reads.
# ---------------------------------------------------------------------------

_MINI_CACHE: dict = {}


def mini_organic_library():
    """A real (but small-grid) characterised organic library, memoised."""
    if "library" in _MINI_CACHE:
        return _MINI_CACHE["library"]
    from repro.cells.library_def import organic_library_definition
    from repro.characterization.harness import (
        CharacterizationGrid,
        characterize_cell,
        default_grid,
    )
    from repro.characterization.library import Library, SequentialTiming
    from repro.characterization.nldm import NldmTable

    defn = organic_library_definition()
    base = default_grid(defn)
    grid = CharacterizationGrid(
        slews=(base.slews[0], base.slews[2]),
        loads=(base.loads[0], base.loads[1], base.loads[2]))
    cells = {name: characterize_cell(defn.cell(name), grid,
                                     area=defn.cell_area(name))
             for name in defn.COMBINATIONAL}

    # Placeholder sequential timing: no validation check reads it, but
    # Library requires the field.  Values are scaled from the inverter
    # tables so they are at least dimensionally sensible.
    inv_delay = cells["inv"].arcs[0].delay
    dff = SequentialTiming(
        name="dff", input_caps={"d": defn.input_capacitance("inv", "a"),
                                "clk": defn.input_capacitance("inv", "a")},
        area=defn.cell_area("dff"),
        clk_to_q=NldmTable(inv_delay.slews.copy(), inv_delay.loads.copy(),
                           2.0 * inv_delay.values),
        setup_time=float(inv_delay.values.max()),
        hold_time=0.0, leakage=0.0)

    _MINI_CACHE["library"] = Library(
        name=f"{defn.name}-mini", process=defn.process, vdd=defn.vdd,
        cells=cells, dff=dff,
        metadata={"note": "validation mini-library; sequential timing "
                          "is a stub and must not be read by checks"})
    return _MINI_CACHE["library"]


@check("ensemble-vs-scalar-arc", "differential")
def ensemble_vs_scalar_arc(ctx: CheckContext) -> str:
    """Batched ensemble arc measurement == scalar transient measurement."""
    from repro.cells.library_def import organic_library_definition
    from repro.characterization.harness import (
        default_grid,
        measure_arc,
        measure_arc_batch,
    )

    defn = organic_library_definition()
    inv = defn.cell("inv")
    grid = default_grid(defn)
    rng = ctx.rng()
    n_points = 3 if ctx.fast else 8
    points = []
    for _ in range(n_points):
        s = rng.uniform(grid.slews[0], grid.slews[-1])
        c = rng.uniform(grid.loads[0], grid.loads[-1])
        points.append((s, c))

    compared = 0
    for input_rise in (True, False):
        with swap_env(REPRO_ENSEMBLE="0"):
            scalar = [measure_arc(inv, "a", input_rise, s, c)
                      for s, c in points]
        with swap_env(REPRO_ENSEMBLE="1"):
            batched = measure_arc_batch(inv, "a", input_rise, points)
        for (s, c), (d_ref, t_ref), (d_b, t_b) in zip(points, scalar,
                                                      batched):
            where = f"inv.a {'rise' if input_rise else 'fall'} " \
                    f"slew={s:g} load={c:g}"
            expect_close(d_b, d_ref, rel=ENSEMBLE_REL,
                         label=f"delay @ {where}")
            expect_close(t_b, t_ref, rel=ENSEMBLE_REL,
                         label=f"transition @ {where}")
            compared += 1
    return f"{compared} arc points agree to rel {ENSEMBLE_REL:g}"


@check("ensemble-vs-scalar-dc", "differential")
def ensemble_vs_scalar_dc(ctx: CheckContext) -> str:
    """Stacked VTC sweep == per-cell scalar sweeps on perturbed instances."""
    from repro.analysis.yield_mc import perturb_cell
    from repro.cells.topologies import pseudo_e_inverter
    from repro.cells.vtc import compute_vtc, compute_vtc_batch
    from repro.devices.pentacene import PENTACENE
    from repro.devices.variation import VariationModel

    base = pseudo_e_inverter(PENTACENE, vdd=15.0, vss=-15.0,
                             w_drive=100e-6, w_shift_load=10e-6,
                             l_shift_load=100e-6, w_up=100e-6,
                             w_down=50e-6)
    rng = ctx.np_rng()
    n_cells = 3 if ctx.fast else 8
    n_points = 21 if ctx.fast else 41
    cells = [perturb_cell(base, VariationModel(), rng)
             for _ in range(n_cells)]

    with swap_env(REPRO_ENSEMBLE="1"):
        batched = compute_vtc_batch(cells, n_points=n_points)
    for i, (cell, curve) in enumerate(zip(cells, batched)):
        expect(curve is not None,
               f"batched VTC abandoned instance {i} that the scalar "
               f"path should solve")
        scalar = compute_vtc(cell, n_points=n_points)
        err_v = float(np.max(np.abs(curve.vout - scalar.vout)))
        expect(np.allclose(curve.vout, scalar.vout, rtol=1e-9, atol=1e-12),
               f"VTC vout mismatch on instance {i}: max |dv| = {err_v:g}")
        expect(np.allclose(curve.power, scalar.power,
                           rtol=1e-9, atol=1e-18),
               f"VTC rail-power mismatch on instance {i}")
    return f"{n_cells} Monte Carlo instances x {n_points} bias points agree"


@check("backend-agreement", "differential")
def backend_agreement(ctx: CheckContext) -> str:
    """numpy == native (both dispatch depths) on real arcs and the flop.

    The native backend is measured twice: the whole-timestep C sweep
    (``REPRO_NATIVE_TIMESTEP=1``, the default) and the per-iteration
    Newton kernel under the Python sweep loop (``=0``).  Both must agree
    with numpy to solver tolerance on the seeded mini-grid — and with
    *each other* bitwise, which the step-schedule contract promises.
    The inverter arcs solve S = 8 systems; the flip-flop's clk->q leg
    covers the S = 24 pivoting path.
    """
    from repro.cells.library_def import organic_library_definition
    from repro.characterization.harness import (
        default_grid,
        estimate_gate_delay,
        measure_arc_batch,
        measure_clk_to_q_batch,
    )
    from repro.spice.backends import get_backend, reset_backend

    defn = organic_library_definition()
    inv = defn.cell("inv")
    grid = default_grid(defn)
    rng = ctx.rng()

    def draw(n: int) -> list[tuple[float, float]]:
        return [(rng.uniform(grid.slews[0], grid.slews[-1]),
                 rng.uniform(grid.loads[0], grid.loads[-1]))
                for _ in range(n)]

    points = draw(2 if ctx.fast else 5)
    dff_points = draw(1 if ctx.fast else 3)
    t_unit = estimate_gate_delay(inv, 4.0 * inv.input_capacitance("a"))

    legs = (("numpy", "numpy", {}),
            ("native", "native", {"REPRO_NATIVE_TIMESTEP": "1"}),
            ("native-periter", "native",
             {"REPRO_NATIVE_TIMESTEP": "0"}))
    results: dict[str, tuple[list, list[float]]] = {}
    try:
        for leg, backend, extra in legs:
            with swap_env(REPRO_BACKEND=backend, REPRO_ENSEMBLE="1",
                          **extra):
                reset_backend()
                if get_backend().name != backend:
                    continue             # e.g. native without a C compiler
                results[leg] = (
                    measure_arc_batch(inv, "a", True, points),
                    measure_clk_to_q_batch(defn.dff, dff_points, t_unit))
    finally:
        reset_backend()

    expect("numpy" in results, "reference numpy backend failed to resolve")
    reference = results["numpy"]
    compared = 0
    for name, measured in results.items():
        if name == "numpy":
            continue
        # The compiled kernel reorders floating-point work, so it gets
        # solver tolerance.
        for (s, c), (d_ref, t_ref), (d_b, t_b) in zip(points, reference[0],
                                                      measured[0]):
            where = f"{name} inv.a rise slew={s:g} load={c:g}"
            expect_close(d_b, d_ref, rel=1e-6, label=f"delay @ {where}")
            expect_close(t_b, t_ref, rel=1e-6, label=f"transition @ {where}")
            compared += 1
        for (s, c), d_ref, d_b in zip(dff_points, reference[1], measured[1]):
            expect_close(d_b, d_ref, rel=1e-6, label=f"clk->q @ {name} "
                         f"slew={s:g} load={c:g}")
            compared += 1
    if "native" in results and "native-periter" in results:
        expect(results["native"] == results["native-periter"],
               "whole-timestep native and per-iteration native disagree "
               "bitwise — the step-schedule contract is broken")
    backends = "+".join(sorted(results))
    return (f"{backends}: {compared} points agree ({len(dff_points)} "
            f"flip-flop clk->q per backend)")


def _mna_batch(rng: np.random.Generator, n: int, m: int,
               jitter: list[float]) -> np.ndarray:
    """MNA-shaped matrices of one structure, S = n nodes + m sources.

    Conductances and one-way transconductances over six decades, a small
    capacitive diagonal, and m voltage-source rows with a zero diagonal
    whose ±1 incidences force swaps and tie in magnitude.  Matrix k
    scales each value by up to ``jitter[k]`` decades, which can move
    pivots.
    """
    pairs = rng.integers(0, n, size=(3 * n, 2))
    g0 = 10.0 ** rng.uniform(-3.0, 3.0, size=3 * n)
    ports = rng.choice(n, size=m, replace=False)
    out = np.zeros((len(jitter), n + m, n + m))
    for J, jit in zip(out, jitter):
        g = g0 * 10.0 ** rng.uniform(-jit, jit, size=3 * n)
        (i, j), gc = pairs[:2 * n].T, g[:2 * n]
        for rows, cols, sign in ((i, i, 1), (j, j, 1), (i, j, -1),
                                 (j, i, -1)):
            np.add.at(J, (rows, cols), sign * gc)
        np.add.at(J, tuple(pairs[2 * n:].T), g[2 * n:])
        J[np.arange(n), np.arange(n)] += rng.uniform(0.0, 1e-3, size=n)
        J[ports, n + np.arange(m)] = J[n + np.arange(m), ports] = 1.0
    return out


@check("kernel-lu-oracle", "differential")
def kernel_lu_oracle(ctx: CheckContext) -> str:
    """The spice kernel's sparse LU == the dense partial-pivot oracle.

    Each seeded batch runs through the kernel's LU in turn: the first
    matrix records the pattern, the rest replay it or re-record on a
    pivot disagreement, and every factorization is reused for a second
    right-hand side.  The cases cover swaps forced by source rows, exact
    pivot ties, a singular matrix, S = 1, S > 64, and NaN/Inf.  Every
    solution component must equal the oracle's (NaN where it has NaN).
    """
    from repro.spice.backends import native
    from repro.validate.lu_oracle import lu_solve

    if native.load_kernel() is None:
        return "no native kernel available (nothing to compare)"
    rng = np.random.default_rng(ctx.rng().getrandbits(63))
    jitter = [2.0 if k % 3 == 2 else 0.01 for k in range(6 if ctx.fast
                                                          else 16)]
    cases = {"mna": _mna_batch(rng, 16, 8, jitter),
             "S>64": _mna_batch(rng, 60, 10 if ctx.fast else 20,
                                [0.01, 0.01, 2.0]),
             "S=1": np.array([[[2.5]], [[-0.5]], [[0.0]]]),
             "ties": _mna_batch(rng, 5, 2, [0.0, 0.0]),
             "singular": _mna_batch(rng, 6, 2, [0.01, 0.01]),
             "non-finite": np.zeros((2, 14, 14))}
    cases["ties"][:, 1:, 0] = [3.0, -3.0, 3.0, -3.0, 3.0, -3.0]
    cases["singular"][1, 6] = cases["singular"][1, 7]  # sources share a node
    # Two decoupled blocks, a NaN right side and an Inf entry: NaN must
    # reach the second block exactly as the dense loop spreads it.
    bad = cases["non-finite"]
    bad[:, :8, :8] = _mna_batch(rng, 6, 2, [0.01, 0.01])
    bad[:, 8:, 8:] = _mna_batch(rng, 5, 1, [0.01, 0.01])
    bad[1, 2, 3] = np.inf

    counts = np.zeros(4, dtype=np.int64)
    solved = n_singular = n_nan = 0
    for name, J in cases.items():
        b, b2 = rng.normal(size=(2,) + J.shape[:2])
        if name == "non-finite":
            b[0, 0] = np.nan
        x, x2, sing, cnt = native.lu_check(J, b, b2)
        counts += cnt
        for k, (rhs, got) in enumerate(zip(np.r_[b, b2], np.r_[x, x2])):
            k %= len(J)
            want = lu_solve(J[k].tolist(), rhs.tolist())
            where = f"{name}[{k}] (S={len(rhs)})"
            expect((want is None) == sing[k], f"{where}: singular "
                   f"{bool(sing[k])} in the kernel, {want is None} in "
                   f"the oracle")
            if want is None:
                n_singular += 1
                continue
            want = np.array(want)
            n_nan += bool(np.isnan(want).any())
            same = (got == want) | (np.isnan(got) & np.isnan(want))
            i = int(np.argmin(same))
            expect(bool(same.all()), f"{where}: component {i} is "
                   f"{got[i]!r}, the oracle gives {want[i]!r}")
            solved += 1
    factorizations, reuses, rerecords, passes = counts.tolist()
    expect(passes < factorizations and min(rerecords, reuses, n_singular,
                                           n_nan) > 0,
           f"replay, re-record, reuse, singular and NaN not all exercised "
           f"(counts {counts.tolist()}, {n_singular} singular, {n_nan} NaN)")
    return (f"{solved} solves bit-equal to the dense oracle "
            f"({n_singular} singular, {n_nan} with NaN); {factorizations} "
            f"factorizations, {factorizations - passes} replayed, "
            f"{rerecords} re-recorded, {reuses} reused")


@check("ipc-kernel-agreement", "differential")
def ipc_kernel_agreement(ctx: CheckContext) -> str:
    """fast-python == reference == native (when present), cycle-exact."""
    from repro.core import ipc_native
    from repro.core.config import CoreConfig
    from repro.core.superscalar import simulate
    from repro.core.tradeoffs import make_traces

    n_instructions = 2_000 if ctx.fast else 12_000
    traces = make_traces(workloads=["dhrystone", "bzip"],
                         n_instructions=n_instructions, seed=ctx.seed)
    configs = [CoreConfig(), CoreConfig().widened(2, 3)]

    compared = 0
    native_compared = 0
    native_was = ipc_native.native_available()
    try:
        for config in configs:
            for name, trace in traces.items():
                where = f"{config.name}/{name}"
                reference = simulate(config, trace, kernel="reference")
                with swap_env(REPRO_NATIVE="0"):
                    ipc_native.reset()
                    python = simulate(config, trace, kernel="fast")
                expect(python.cycles == reference.cycles,
                       f"python fast kernel disagrees with reference on "
                       f"{where}: {python.cycles} != {reference.cycles}")
                expect(python.mispredicts == reference.mispredicts,
                       f"mispredict count disagrees on {where}")
                compared += 1
                if native_was:
                    ipc_native.reset()
                    native = simulate(config, trace, kernel="fast")
                    expect(native.cycles == reference.cycles,
                           f"native kernel disagrees with reference on "
                           f"{where}: {native.cycles} != {reference.cycles}")
                    native_compared += 1
    finally:
        ipc_native.reset()
    native_note = (f", native kernel on {native_compared}"
                   if native_was else ", no native kernel available")
    return (f"{compared} config x trace pairs cycle-exact"
            f"{native_note}")


@check("sta-vector-vs-scalar", "differential")
def sta_vector_vs_scalar(ctx: CheckContext) -> str:
    """Levelised-array STA == scalar STA on a synthesized block."""
    import repro.synthesis.sta as sta
    from repro.synthesis.generators import (
        carry_select_adder,
        ripple_carry_adder,
        simple_alu,
    )
    from repro.synthesis.mapping import technology_map
    from repro.synthesis.wires import organic_wire_model

    builders = {
        "rca8": lambda: ripple_carry_adder(8),
        "csa8": lambda: carry_select_adder(8),
        "alu8": lambda: simple_alu(8),
    }
    rng = ctx.rng()
    names = ([rng.choice(sorted(builders))] if ctx.fast
             else sorted(builders))
    library = mini_organic_library()
    wire = organic_wire_model()
    input_slew = library.typical_slew()

    checked = []
    for name in names:
        netlist = technology_map(builders[name]())
        vector = sta._vector_static_timing(netlist, library, wire,
                                           input_slew, None)
        expect(vector is not None,
               f"vector STA refused library it should batch ({name})")
        with swap_attr(sta, "VECTOR_MIN_GATES", 10 ** 9):
            scalar = sta.static_timing(netlist, library, wire)
        expect_close(vector.max_delay, scalar.max_delay, rel=1e-12,
                     label=f"{name} max_delay")
        expect(vector.critical_path == scalar.critical_path,
               f"{name}: critical paths diverge")
        for attr in ("arrival", "slew"):
            vec_d, ref_d = getattr(vector, attr), getattr(scalar, attr)
            expect(vec_d.keys() == ref_d.keys(),
                   f"{name}: {attr} key sets diverge")
            for key, ref_val in ref_d.items():
                expect_close(vec_d[key], ref_val, rel=1e-9,
                             label=f"{name} {attr}[{key}]")
        checked.append(f"{name}({len(netlist.gates)} gates)")
    return "engines agree on " + ", ".join(checked)


@check("sta-incremental-agreement", "differential")
def sta_incremental_agreement(ctx: CheckContext) -> str:
    """Incremental delta-retiming == full re-time, bit for bit.

    Grows a carry-select adder through a width chain with the
    incremental gate on (copy-on-extend netlists, memoised mapping,
    session-based delta STA) and diffs every report field against a
    fresh synthesis timed with the gate off.  The contract is bitwise
    identity — ``==``, no tolerance — for both the scalar and the
    vector engine.
    """
    import repro.synthesis.sta as sta
    from repro.synthesis.generators import (
        carry_select_adder,
        extend_carry_select_adder,
    )
    from repro.synthesis.mapping import (
        map_cached,
        reset_map_cache,
        technology_map,
    )
    from repro.synthesis.wires import organic_wire_model

    library = mini_organic_library()
    wire = organic_wire_model()
    widths = (8, 12) if ctx.fast else (8, 12, 16, 24)
    engines = {"scalar": 10 ** 9, "vector": 1}

    compared = 0
    for engine, min_gates in engines.items():
        with swap_attr(sta, "VECTOR_MIN_GATES", min_gates):
            with swap_env(REPRO_INCREMENTAL_STA="1"):
                sta.reset_incremental()
                reset_map_cache()
                base = carry_select_adder(widths[0])
                incremental = {widths[0]: sta.static_timing(
                    map_cached(base), library, wire)}
                for w in widths[1:]:
                    base = extend_carry_select_adder(base, w)
                    incremental[w] = sta.static_timing(
                        map_cached(base), library, wire)
                expect(len(sta._SESSIONS) > 0,
                       f"{engine}: no sessions recorded with the gate on")
            with swap_env(REPRO_INCREMENTAL_STA="0"):
                sta.reset_incremental()
                for w in widths:
                    full = sta.static_timing(
                        technology_map(carry_select_adder(w)), library,
                        wire)
                    inc = incremental[w]
                    where = f"{engine}/csa{w}"
                    expect(inc.max_delay == full.max_delay,
                           f"{where}: max_delay diverges "
                           f"({inc.max_delay!r} != {full.max_delay!r})")
                    expect(inc.critical_path == full.critical_path,
                           f"{where}: critical paths diverge")
                    for attr in ("arrival", "slew", "load", "gate_delay"):
                        expect(getattr(inc, attr) == getattr(full, attr),
                               f"{where}: {attr} not bit-identical")
                    compared += 1
            sta.reset_incremental()
            reset_map_cache()
    return (f"{compared} engine x width points bit-identical across "
            f"widths {list(widths)}")


def _leveling_budgets(rng, netlist, delays: dict[str, float],
                      n_random: int) -> list[float]:
    """Budgets the min-period bisection visits, plus seeded extras.

    The bisection midpoints of a few seeded stage-count targets (walked
    with the oracle), uniform draws between one gate and the critical
    path, exact ties (a gate's single-stage output time) and one budget
    below gate granularity.
    """
    from repro.validate.pipeline_oracle import (
        greedy_stages,
        single_stage_times,
    )

    times = single_stage_times(netlist, delays)
    lo = max(delays.values())
    hi = max(max(times), lo) * (1.0 + 1e-9)
    budgets = [hi, 0.5 * lo]
    for target in rng.sample(range(1, 25), 4):
        lo_b, hi_b = lo, hi
        while hi_b - lo_b > 1e-3 * hi_b:
            mid = 0.5 * (lo_b + hi_b)
            budgets.append(mid)
            res = greedy_stages(netlist, delays, mid)
            if res is not None and res[0] <= target:
                hi_b = mid
            else:
                lo_b = mid
    budgets += [rng.uniform(lo, hi) for _ in range(n_random)]
    ties = [t for t in times if t >= lo]
    budgets += rng.sample(ties, min(n_random, len(ties)))
    return budgets


@check("pipeline-leveling", "differential")
def pipeline_leveling(ctx: CheckContext) -> str:
    """Both levelers and the register count == the scalar greedy.

    The compiled leveler (when a compiler exists) and the numpy
    level-at-a-time leveler are each called directly.  Exact equality of
    the stage count, every gate's stage and the register count, over
    bisection midpoints, seeded budgets and exact tie budgets on mapped
    blocks (and, in full mode, the 16-bit complex ALU of Figure 12).
    """
    from repro.synthesis import pipeline
    from repro.synthesis.generators import (
        carry_select_adder,
        ripple_carry_adder,
        simple_alu,
    )
    from repro.synthesis.mapping import technology_map
    from repro.synthesis.sta import _vector_structure
    from repro.synthesis.wires import organic_wire_model
    from repro.validate.pipeline_oracle import (
        count_registers_dict,
        greedy_stages,
    )

    builders = {
        "rca8": lambda: technology_map(ripple_carry_adder(8)),
        "csa8": lambda: technology_map(carry_select_adder(8)),
        "alu8": lambda: technology_map(simple_alu(8)),
    }
    if not ctx.fast:
        from repro.synthesis.generators import complex_alu_slice
        builders["complex16"] = lambda: technology_map(complex_alu_slice(16))
    legs = {"numpy": pipeline._stages_numpy}
    if pipeline._KERNEL.build() is not None:
        legs["native"] = pipeline._stages_native
    library = mini_organic_library()
    wire = organic_wire_model()
    rng = ctx.rng()

    checked = []
    for name, build in builders.items():
        netlist = build()
        delays = pipeline.per_gate_delays(netlist, library, wire)
        arr = pipeline.level_delays(netlist, delays)
        names = _vector_structure(netlist)["gate_names"]
        budgets = _leveling_budgets(rng, netlist, delays,
                                    8 if ctx.fast else 24)
        for budget in budgets:
            want = greedy_stages(netlist, delays, budget)
            where = f"{name} @ budget {budget!r}"
            infeasible = pipeline.stages_needed(netlist, arr, budget) is None
            expect(infeasible == (want is None),
                   f"{where}: the leveler calls the budget "
                   f"{'in' if infeasible else ''}feasible, the greedy "
                   f"does not")
            if want is None:
                continue
            ref = count_registers_dict(netlist, want[1], want[0])
            for leg, level in legs.items():
                n, stage = level(netlist, arr, budget)
                expect(n == want[0], f"{where}: {leg} leveler needs {n} "
                       f"stage(s), the greedy needs {want[0]}")
                stage_of = dict(zip(names, stage.tolist()))
                if stage_of != want[1]:
                    gate = next(g for g in names
                                if stage_of[g] != want[1][g])
                    expect(False, f"{where}: {leg} leveler puts gate "
                           f"{gate} in stage {stage_of[gate]}, the greedy "
                           f"puts it in {want[1][gate]}")
                regs = pipeline.count_registers(netlist, stage, n)
                expect(regs == ref, f"{where}: {regs} registers from the "
                       f"{leg} stages, the oracle counts {ref}")
        checked.append(f"{name}({len(netlist.gates)} gates, "
                       f"{len(budgets)} budgets)")
    return (f"{'+'.join(sorted(legs))}: leveler and register count exact "
            f"on " + ", ".join(checked))


@check("cache-warm-vs-cold", "differential")
def cache_warm_vs_cold(ctx: CheckContext) -> str:
    """A cache hit returns exactly what the cold computation produced."""
    import tempfile

    from repro.core.config import CoreConfig
    from repro.core.superscalar import simulate, simulate_cached
    from repro.core.tradeoffs import make_traces
    from repro.runtime.cache import ResultCache

    config = CoreConfig()
    trace = make_traces(workloads=["dhrystone"], n_instructions=2_000,
                        seed=ctx.seed)["dhrystone"]
    uncached = simulate(config, trace)
    with tempfile.TemporaryDirectory(prefix="repro-validate-") as tmp:
        cache = ResultCache(root=tmp, enabled=True)
        cold = simulate_cached(config, trace, cache=cache)
        expect(cache.misses == 1 and cache.hits == 0,
               f"cold run should miss exactly once "
               f"(hits={cache.hits}, misses={cache.misses})")
        warm = simulate_cached(config, trace, cache=cache)
        expect(cache.hits == 1,
               f"warm run should hit (hits={cache.hits})")
    for attr in ("instructions", "cycles", "branch_count",
                 "mispredicts", "l1_misses"):
        expect(getattr(warm, attr) == getattr(cold, attr)
               == getattr(uncached, attr),
               f"cached result field {attr} diverges: "
               f"warm={getattr(warm, attr)}, cold={getattr(cold, attr)}, "
               f"uncached={getattr(uncached, attr)}")
    expect(warm.ipc == uncached.ipc, "cached IPC not bit-identical")
    return "warm hit bit-identical to cold computation and plain simulate"
