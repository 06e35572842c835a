"""Characterisation-harness unit tests (grid, stimulus, measurements)."""

import pytest

from repro.cells.library_def import organic_library_definition
from repro.characterization import harness
from repro.characterization.harness import (
    CharacterizationGrid,
    _arc_testbench,
    _non_controlling,
    average_leakage,
    default_grid,
    measure_arc,
    ramp_source,
)
from repro.errors import CharacterizationError
from repro.runtime import telemetry
from repro.spice import RampValue, VoltageSource


class TestGrid:
    def test_valid(self):
        CharacterizationGrid(slews=(1e-6, 1e-5), loads=(1e-12, 1e-11))

    def test_too_small(self):
        with pytest.raises(CharacterizationError):
            CharacterizationGrid(slews=(1e-6,), loads=(1e-12, 1e-11))

    def test_unsorted(self):
        with pytest.raises(CharacterizationError):
            CharacterizationGrid(slews=(1e-5, 1e-6), loads=(1e-12, 1e-11))

    def test_negative(self):
        with pytest.raises(CharacterizationError):
            CharacterizationGrid(slews=(-1e-6, 1e-5), loads=(1e-12, 1e-11))

    def test_default_grid_anchored_on_fo4(self):
        defn = organic_library_definition()
        grid = default_grid(defn)
        assert len(grid.slews) == 4 and len(grid.loads) == 4
        assert grid.slews[0] < grid.slews[-1]


class TestRampSource:
    def test_holds_then_ramps(self):
        src = ramp_source(0.0, 5.0, t_start=1e-5, slew=6e-6)
        assert src(0.0) == 0.0
        assert src(1e-5) == 0.0
        assert src(1.0) == 5.0
        duration = 6e-6 / 0.6
        mid = src(1e-5 + duration / 2)
        assert mid == pytest.approx(2.5, rel=1e-9)

    def test_falling_ramp(self):
        src = ramp_source(5.0, 0.0, t_start=0.0, slew=6e-6)
        assert src(1.0) == 0.0
        assert src(0.0) == 5.0


class TestSensitization:
    def test_inverter_has_no_side_inputs(self):
        defn = organic_library_definition()
        assert _non_controlling(defn.cell("inv"), "a") == {}

    def test_nand_side_inputs_high(self):
        defn = organic_library_definition()
        side = _non_controlling(defn.cell("nand3"), "a")
        assert side == {"b": 5.0, "c": 5.0}

    def test_nor_side_inputs_low(self):
        defn = organic_library_definition()
        side = _non_controlling(defn.cell("nor2"), "a")
        assert side == {"b": 0.0}


class TestArcTestbench:
    def test_sources_hold_the_side_input_levels(self):
        defn = organic_library_definition()
        for name in defn.COMBINATIONAL:
            cell = defn.cell(name)
            for pin in cell.inputs:
                side = _non_controlling(cell, pin)
                ckt = _arc_testbench(cell, pin, side, 0.0, 5.0, 1e-5,
                                     2e-6, 1e-12)
                sources = {e.name: e for e in ckt.elements
                           if isinstance(e, VoltageSource)}
                rails = {f"v_{r}": v for r, v in cell.rails.items() if v}
                assert set(sources) == (set(rails) | {f"v_{pin}"}
                                        | {f"v_{p}" for p in side})
                for src, volts in rails.items():
                    assert sources[src].value == volts
                for p, level in side.items():
                    assert sources[f"v_{p}"].nodes == (p, "0")
                    assert sources[f"v_{p}"].value == level
                ramp = sources[f"v_{pin}"].value
                assert isinstance(ramp, RampValue)
                assert (ramp.v0, ramp.v1, ramp.t_start) == (0.0, 5.0, 1e-5)

    def test_side_inputs_solved_once_per_arc(self, monkeypatch):
        defn = organic_library_definition()
        grid = default_grid(defn)
        calls = []
        real = harness._non_controlling

        def counting(design, pin):
            calls.append(pin)
            return real(design, pin)

        monkeypatch.setattr(harness, "_non_controlling", counting)
        points = [(s, c) for s in grid.slews[:2] for c in grid.loads[:2]]
        harness.measure_arc_batch(defn.cell("nand3"), "b", True, points)
        assert calls == ["b"]


class TestDffObservability:
    def test_phase_spans_and_setup_trial_count(self, monkeypatch):
        defn = organic_library_definition()
        inv = defn.cell("inv")
        t_unit = harness.estimate_gate_delay(
            inv, 4.0 * inv.input_capacitance("a"))
        base = default_grid(defn)
        grid = CharacterizationGrid(slews=base.slews[:2],
                                    loads=base.loads[:2])
        trials = []
        for name in ("_captures", "_captures_batch"):
            real = getattr(harness, name)

            def counting(*args, _real=real, _name=name):
                trials.append(len(args[-1]) if _name == "_captures_batch"
                              else 1)
                return _real(*args)

            monkeypatch.setattr(harness, name, counting)
        with telemetry.collecting():
            harness.characterize_dff(defn.dff, grid, area=1.0,
                                     t_unit=t_unit, workers=1)
            tree = telemetry.span_tree()
            counted = telemetry.counters().get("char.setup_trials")
        dff = next(node for node in tree if node["name"] == "cell:dff")
        assert [c["name"] for c in dff["children"]] == [
            "dff:clk_to_q", "dff:setup", "dff:leakage"]
        assert counted == sum(trials) > 0


class TestMeasurement:
    def test_inverter_arc(self):
        defn = organic_library_definition()
        inv = defn.cell("inv")
        grid = default_grid(defn)
        delay, out_slew = measure_arc(inv, "a", True,
                                      grid.slews[1], grid.loads[1])
        assert delay > 0 and out_slew > 0
        # Organic gate delays are tens-to-hundreds of microseconds.
        assert 1e-6 < delay < 1e-2

    def test_delay_monotone_in_load(self):
        defn = organic_library_definition()
        inv = defn.cell("inv")
        grid = default_grid(defn)
        d_small, _ = measure_arc(inv, "a", True, grid.slews[1], grid.loads[0])
        d_big, _ = measure_arc(inv, "a", True, grid.slews[1], grid.loads[-1])
        assert d_big > d_small

    def test_average_leakage_positive(self):
        defn = organic_library_definition()
        assert average_leakage(defn.cell("nand2")) > 0
