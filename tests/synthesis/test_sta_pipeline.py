"""STA and pipelining tests on real mapped netlists with both libraries."""

import pytest

from repro.errors import PipelineError, SynthesisError
from repro.synthesis.generators import carry_select_adder, wallace_multiplier
from repro.synthesis.mapping import technology_map
from repro.synthesis.netlist import Netlist
from repro.runtime import profiling, telemetry
from repro.synthesis.pipeline import (
    count_registers,
    level_delays,
    min_period_for_stages,
    per_gate_delays,
    pipeline_sweep,
    sequencing_overhead,
    stages_needed,
)
from repro.synthesis.sta import _vector_structure, net_loads, static_timing
from repro.synthesis.wires import WireModel, block_span, organic_wire_model, silicon_wire_model
from repro.validate.pipeline_oracle import (
    count_registers_dict,
    greedy_stages,
    single_stage_times,
)


@pytest.fixture(scope="module")
def adder():
    return technology_map(carry_select_adder(8))


@pytest.fixture(scope="module")
def multiplier():
    return technology_map(wallace_multiplier(8))


class TestStaticTiming:
    def test_requires_mapped_netlist(self, organic_lib, organic_wire):
        nl = Netlist("t")
        a = nl.add_input("a")
        out = nl.add_gate("xor2", (a, a))
        nl.add_output(out)
        with pytest.raises(SynthesisError):
            static_timing(nl, organic_lib, organic_wire)

    def test_critical_path_nonempty(self, adder, organic_lib, organic_wire):
        rep = static_timing(adder, organic_lib, organic_wire)
        assert rep.max_delay > 0
        assert rep.critical_length >= adder.logic_depth() // 2

    def test_critical_path_is_connected(self, adder, organic_lib,
                                        organic_wire):
        rep = static_timing(adder, organic_lib, organic_wire)
        gates = adder.gates
        for first, second in zip(rep.critical_path, rep.critical_path[1:]):
            assert gates[first].output in gates[second].inputs

    def test_arrival_monotone_along_path(self, adder, organic_lib,
                                         organic_wire):
        rep = static_timing(adder, organic_lib, organic_wire)
        arrivals = [rep.arrival[adder.gates[g].output]
                    for g in rep.critical_path]
        assert arrivals == sorted(arrivals)

    def test_wire_ablation_speeds_up_silicon(self, multiplier, silicon_lib,
                                             silicon_wire):
        with_wire = static_timing(multiplier, silicon_lib, silicon_wire)
        without = static_timing(multiplier, silicon_lib,
                                silicon_wire.scaled(0.0))
        assert without.max_delay < with_wire.max_delay

    def test_wire_barely_matters_for_organic(self, multiplier, organic_lib,
                                             organic_wire):
        """The paper's premise: organic wires are relatively free."""
        with_wire = static_timing(multiplier, organic_lib, organic_wire)
        without = static_timing(multiplier, organic_lib,
                                organic_wire.scaled(0.0))
        assert without.max_delay > 0.99 * with_wire.max_delay

    def test_net_loads_positive(self, adder, organic_lib, organic_wire):
        loads = net_loads(adder, organic_lib, organic_wire)
        assert all(v > 0 for v in loads.values())


class TestLeveling:
    def test_budget_below_gate_granularity_infeasible(self, adder,
                                                      organic_lib,
                                                      organic_wire):
        delays = level_delays(adder, per_gate_delays(adder, organic_lib,
                                                     organic_wire))
        assert stages_needed(adder, delays, delays.max() * 0.5) is None

    def test_large_budget_single_stage(self, adder, organic_lib,
                                       organic_wire):
        delays = level_delays(adder, per_gate_delays(adder, organic_lib,
                                                     organic_wire))
        n, stage = stages_needed(adder, delays, delays.sum())
        assert n == 1
        assert set(stage.tolist()) == {0}

    def test_stage_count_monotone_in_budget(self, adder, organic_lib,
                                            organic_wire):
        delays = level_delays(adder, per_gate_delays(adder, organic_lib,
                                                     organic_wire))
        total = delays.sum()
        counts = []
        for frac in (0.02, 0.05, 0.2, 1.0):
            res = stages_needed(adder, delays, total * frac)
            if res:
                counts.append(res[0])
        assert counts == sorted(counts, reverse=True)

    def test_register_count_includes_outputs(self, adder, organic_lib,
                                             organic_wire):
        delays = level_delays(adder, per_gate_delays(adder, organic_lib,
                                                     organic_wire))
        n, stage = stages_needed(adder, delays, delays.sum())
        regs = count_registers(adder, stage, n)
        assert regs >= len(adder.primary_outputs)


def _budget_grid(netlist, delays: dict[str, float]) -> list[float]:
    """Bisection-style budgets from one gate to the critical path, plus
    exact ties: budgets equal to some gate's single-stage output time."""
    times = single_stage_times(netlist, delays)
    lo, hi = max(delays.values()), max(times)
    grid = [lo, hi, 0.5 * (lo + hi)]
    a, b = lo, hi
    for _ in range(6):                   # a descending bisection path
        b = 0.5 * (a + b)
        grid.append(b)
    ties = sorted(t for t in times if t >= lo)
    grid += ties[::max(1, len(ties) // 12)]
    return grid


def _assert_matches_oracle(netlist, delays: dict[str, float],
                           budgets: list[float]) -> int:
    """Vector leveler and register count == the scalar oracle, exactly."""
    arr = level_delays(netlist, delays)
    names = _vector_structure(netlist)["gate_names"]
    feasible = 0
    for budget in budgets:
        got = stages_needed(netlist, arr, budget)
        want = greedy_stages(netlist, delays, budget)
        if want is None:
            assert got is None, budget
            continue
        n, stage = got
        assert n == want[0], budget
        assert dict(zip(names, stage.tolist())) == want[1], budget
        assert (count_registers(netlist, stage, n)
                == count_registers_dict(netlist, want[1], n)), budget
        feasible += 1
    return feasible


class TestLevelingOracle:
    """The level-at-a-time leveler against the gate-at-a-time greedy."""

    @pytest.mark.parametrize("block", ["adder", "multiplier"])
    def test_matches_greedy_on_mapped_blocks(self, block, request,
                                             organic_lib, organic_wire):
        netlist = request.getfixturevalue(block)
        delays = per_gate_delays(netlist, organic_lib, organic_wire)
        budgets = _budget_grid(netlist, delays)
        assert _assert_matches_oracle(netlist, delays, budgets) >= 10

    def test_tie_budget_keeps_gate_in_stage(self, adder, organic_lib,
                                            organic_wire):
        """t_out == budget stays in the stage (the test is strictly >)."""
        delays = per_gate_delays(adder, organic_lib, organic_wire)
        hi = max(single_stage_times(adder, delays))
        n, stage = stages_needed(adder, level_delays(adder, delays), hi)
        assert n == 1 and not stage.any()

    def test_hand_built_corner_cases(self):
        nl = Netlist("corners")
        a = nl.add_input("a")
        b = nl.add_input("b")
        c = nl.add_input("c")
        delays = {}

        def gate(cell, inputs, out, delay):
            delays[out] = delay
            return nl.add_gate(cell, inputs, output=out, name=out)

        # Read before it is driven: the topological order comes from the
        # Kahn pass, not from insertion order.
        y = gate("nand2", ("x", "x"), "y", 2.0)            # one net, 2 pins
        gate("nor2", (a, b), "x", 1.0)
        z = gate("nand3", (y, b, c), "z", 1.5)
        gate("inv", (a,), "dead", 0.5)                     # reaches no PO
        w = gate("inv", (z,), "w", 1.0)
        # Negative delays on both sides of the greedy's 0.0 floor: a
        # stage-0 time below zero read by a gate with all three pins
        # used (floored), and after a spill a later-stage time below
        # zero (not floored).
        v = gate("inv", (a,), "v", -0.5)
        u = gate("nand3", (v, v, v), "u", 1.5)
        r = gate("inv", (u,), "r", 1.4)
        n1 = gate("inv", (r,), "n1", -1.9)
        n2 = gate("inv", (n1,), "n2", 1.2)
        n3 = gate("inv", (n2,), "n3", 1.2)
        for net in (z, z, c, w, n3):                       # z twice; c a PI
            nl.add_output(net)
        assert not nl._insertion_topo
        budgets = [1.0, 100.0] + [2.0 + 0.1 * k for k in range(40)]
        budgets += single_stage_times(nl, delays)
        assert _assert_matches_oracle(nl, delays, budgets) >= 40


class TestMinPeriod:
    def test_frequency_increases_with_stages(self, multiplier, organic_lib,
                                             organic_wire):
        sweep = pipeline_sweep(multiplier, organic_lib, organic_wire,
                               [1, 2, 4])
        freqs = [p.frequency for p in sweep]
        assert freqs[0] < freqs[1] < freqs[2]

    def test_area_increases_with_stages(self, multiplier, organic_lib,
                                        organic_wire):
        sweep = pipeline_sweep(multiplier, organic_lib, organic_wire,
                               [1, 4])
        assert sweep[1].area > sweep[0].area
        assert sweep[1].n_registers > sweep[0].n_registers

    def test_period_is_budget_plus_overhead(self, adder, organic_lib,
                                            organic_wire):
        res = min_period_for_stages(adder, organic_lib, organic_wire, 2)
        assert res.period == pytest.approx(res.logic_budget + res.overhead)

    def test_invalid_stage_count(self, adder, organic_lib, organic_wire):
        with pytest.raises(PipelineError):
            min_period_for_stages(adder, organic_lib, organic_wire, 0)

    def test_granularity_cap(self, adder, organic_lib, organic_wire):
        """Requesting absurd depth returns the deepest feasible cut."""
        res = min_period_for_stages(adder, organic_lib, organic_wire, 500)
        assert res.n_stages < 500

    def test_sweep_equals_separate_calls(self, multiplier, organic_lib,
                                         organic_wire):
        """The per-sweep budget memo changes no result."""
        counts = [1, 2, 3, 4, 6, 9, 40]
        sweep = pipeline_sweep(multiplier, organic_lib, organic_wire, counts)
        for n, res in zip(counts, sweep):
            alone = min_period_for_stages(multiplier, organic_lib,
                                          organic_wire, n)
            assert res == alone
            assert res.stage_of_gate == alone.stage_of_gate

    def test_gateless_netlist_raises_pipeline_error(self, organic_lib,
                                                    organic_wire):
        nl = Netlist("feedthrough")
        nl.add_output(nl.add_input("a"))
        with pytest.raises(PipelineError, match="feedthrough"):
            min_period_for_stages(nl, organic_lib, organic_wire, 2)

    def test_work_counters_and_profiling_stage(self, adder, organic_lib,
                                               organic_wire):
        telemetry.reset()
        telemetry.enable(True)
        try:
            with profiling.profiled():
                pipeline_sweep(adder, organic_lib, organic_wire, [1, 2, 4])
                stages = profiling.snapshot()
            counts = telemetry.counters()
        finally:
            telemetry.enable(False)
            telemetry.reset()
        # Every stage count bisects from the same bounds: the first
        # budgets repeat and hit the memo instead of leveling again.
        assert counts["pipeline.levelings"] > 0
        assert counts["pipeline.leveling_memo_hits"] >= 2
        assert stages["pipeline"]["calls"] == 1
        assert stages["sta"]["calls"] >= 1

    def test_overhead_grows_with_stages_for_silicon(self, multiplier,
                                                    silicon_lib,
                                                    silicon_wire):
        o2 = sequencing_overhead(multiplier, silicon_lib, silicon_wire, 2)
        o20 = sequencing_overhead(multiplier, silicon_lib, silicon_wire, 20)
        assert o20 > o2 * 1.2


class TestWireModel:
    def test_scaled_zero(self):
        wm = silicon_wire_model().scaled(0.0)
        assert wm.net_capacitance(3) == 0.0
        assert wm.elmore_delay(3, 1e-15) == 0.0

    def test_net_length_grows_with_fanout(self):
        wm = organic_wire_model()
        assert wm.net_length(8) > wm.net_length(1)

    def test_block_span(self):
        assert block_span(4e-6) == pytest.approx(2e-3)
        with pytest.raises(SynthesisError):
            block_span(-1.0)

    def test_invalid_parameters(self):
        with pytest.raises(SynthesisError):
            WireModel("bad", c_per_m=-1.0, r_per_m=1.0, pitch=1e-6)
