"""The validation layer itself: runner, fault primitives, CLI, and the
acceptance property that a perturbed fast path fails loudly."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.errors import ConvergenceError
from repro.runtime.cache import ResultCache
from repro.validate import run_validation
from repro.validate import faults
from repro.validate.checks import (
    CheckContext,
    CheckFailure,
    expect,
    expect_close,
    registered_checks,
    swap_attr,
    swap_env,
)

#: Checks cheap enough to run for real inside the unit suite (no SPICE
#: transients, no library characterisation).
CHEAP_CHECKS = [
    "ipc-kernel-agreement",
    "cache-warm-vs-cold",
    "waveform-crossing-order",
    "telemetry-serial-vs-parallel",
    "worker-crash-fallback",
    "corrupt-cache-recovery",
    "newton-event-trail",
    "missing-toolchain-fallback",
]


class TestRegistry:
    def test_all_three_kinds_registered_in_fast_mode(self):
        kinds = {c.kind for c in registered_checks(fast=True)}
        assert kinds == {"differential", "invariant", "fault"}

    def test_unknown_only_name_rejected(self):
        with pytest.raises(ValueError, match="unknown check"):
            registered_checks(only=["no-such-check"])

    def test_expect_helpers(self):
        expect(True, "fine")
        with pytest.raises(CheckFailure, match="boom"):
            expect(False, "boom")
        expect_close(1.0, 1.0 + 1e-12, rel=1e-9)
        with pytest.raises(CheckFailure, match="mylabel"):
            expect_close(1.0, 2.0, rel=1e-9, label="mylabel")

    def test_context_rng_streams_are_per_check(self):
        a = CheckContext(name="a", seed=0, fast=True)
        b = CheckContext(name="b", seed=0, fast=True)
        assert a.rng().random() != b.rng().random()
        assert a.rng().random() == CheckContext(
            name="a", seed=0, fast=True).rng().random()

    def test_swap_env_and_attr_restore(self, monkeypatch):
        import repro.synthesis.sta as sta
        monkeypatch.setenv("REPRO_VALIDATE_PROBE", "before")
        with swap_env(REPRO_VALIDATE_PROBE="during", REPRO_NEVER_SET=None):
            import os
            assert os.environ["REPRO_VALIDATE_PROBE"] == "during"
        import os
        assert os.environ["REPRO_VALIDATE_PROBE"] == "before"
        original = sta.VECTOR_MIN_GATES
        with swap_attr(sta, "VECTOR_MIN_GATES", 1):
            assert sta.VECTOR_MIN_GATES == 1
        assert sta.VECTOR_MIN_GATES == original


class TestRunner:
    def test_cheap_checks_pass(self):
        report = run_validation(fast=True, seed=0, only=CHEAP_CHECKS)
        assert report.ok, report.format()
        assert len(report.results) == len(CHEAP_CHECKS)
        assert {r.kind for r in report.results} == \
            {"differential", "invariant", "fault"}

    def test_report_shape_and_formatting(self):
        report = run_validation(fast=True, seed=3,
                                only=["cache-warm-vs-cold"])
        d = report.to_dict()
        assert d["seed"] == 3 and d["mode"] == "fast" and d["ok"]
        assert d["n_checks"] == 1 and d["n_failed"] == 0
        assert json.loads(json.dumps(d)) == d
        assert "cache-warm-vs-cold" in report.format()

    def test_broken_check_is_isolated(self, monkeypatch):
        # A check that *errors* (rather than failing its assertion) is
        # reported broken and does not stop the checks after it.
        from repro.validate import checks as checks_mod

        def boom(ctx):
            raise RuntimeError("exploded")

        reg = registered_checks(fast=True)
        target = next(c for c in reg if c.name == "cache-warm-vs-cold")
        # _Check is frozen; swap the registry entry and restore after.
        idx = checks_mod._REGISTRY.index(target)
        broken = checks_mod._Check(name=target.name, kind=target.kind,
                                   fn=boom, fast=target.fast)
        checks_mod._REGISTRY[idx] = broken
        try:
            report = run_validation(
                fast=True, only=["cache-warm-vs-cold",
                                 "corrupt-cache-recovery"])
        finally:
            checks_mod._REGISTRY[idx] = target
        by_name = {r.name: r for r in report.results}
        assert not report.ok
        assert not by_name["cache-warm-vs-cold"].ok
        assert "check broken" in by_name["cache-warm-vs-cold"].error
        assert by_name["corrupt-cache-recovery"].ok

    def test_empty_selection_is_not_ok(self):
        from repro.validate import ValidationReport
        assert not ValidationReport(seed=0, fast=True, results=[]).ok


class TestPerturbationFailsLoudly:
    """Acceptance: deliberately skew a fast path; validation must fail."""

    def test_skewed_ipc_kernel_detected(self, monkeypatch):
        import repro.core.superscalar as superscalar

        original = superscalar._fast_cycles

        def skewed(config, trace):
            return original(config, trace) + 1

        monkeypatch.setattr(superscalar, "_fast_cycles", skewed)
        report = run_validation(fast=True, seed=0,
                                only=["ipc-kernel-agreement"])
        assert not report.ok
        failure = report.results[0]
        assert failure.kind == "differential"
        assert "disagrees with reference" in failure.error

    def test_tie_breaking_leveler_detected(self, monkeypatch):
        # Spill a gate whose output time equals the budget (`>=` where
        # the greedy tests `>`): only the exact tie budgets expose it.
        import numpy as np

        import repro.synthesis.pipeline as pipeline

        original = pipeline.stages_needed

        def skewed(netlist, delays, budget):
            return original(netlist, delays, np.nextafter(budget, 0.0))

        monkeypatch.setattr(pipeline, "stages_needed", skewed)
        report = run_validation(fast=True, seed=0,
                                only=["pipeline-leveling"])
        assert not report.ok
        assert "the greedy" in report.results[0].error

    def test_corrupted_cache_read_detected(self, monkeypatch):
        # Serve stale cycles from the cache: the warm-vs-cold diff must
        # catch the divergence from the uncached computation.
        original = ResultCache.get

        def stale(self, category, key):
            payload = original(self, category, key)
            if payload is not None and "cycles" in payload:
                payload = dict(payload, cycles=payload["cycles"] + 5)
            return payload

        monkeypatch.setattr(ResultCache, "get", stale)
        report = run_validation(fast=True, seed=0,
                                only=["cache-warm-vs-cold"])
        assert not report.ok
        assert "diverges" in report.results[0].error


class TestFaultPrimitives:
    def test_corrupt_cache_entry_modes(self, tmp_path):
        cache = ResultCache(root=tmp_path, enabled=True)
        for mode in ("truncate", "garbage"):
            cache.put("unit", "k1", {"x": 1})
            path = faults.corrupt_cache_entry(cache, "unit", "k1", mode=mode)
            assert path.exists()
            assert cache.get("unit", "k1") is None   # detected, evicted
            assert not path.exists()

    def test_corrupt_cache_entry_validates_input(self, tmp_path):
        cache = ResultCache(root=tmp_path, enabled=True)
        with pytest.raises(FileNotFoundError):
            faults.corrupt_cache_entry(cache, "unit", "missing")
        cache.put("unit", "k2", {"x": 1})
        with pytest.raises(ValueError, match="mode"):
            faults.corrupt_cache_entry(cache, "unit", "k2", mode="nuke")

    def test_strangled_newton_surfaces_full_trail(self):
        from repro.cells.library_def import organic_library_definition
        from repro.cells.topologies import build_dc_testbench
        from repro.spice.dc import operating_point

        defn = organic_library_definition()
        circuit = build_dc_testbench(defn.cell("inv"),
                                     {"a": defn.vdd / 2.0})
        with faults.strangled_newton(max_iterations=1):
            with pytest.raises(ConvergenceError) as excinfo:
                operating_point(circuit)
        stages = [e["stage"] for e in excinfo.value.events]
        assert {"newton", "gmin", "source"} <= set(stages)
        revived = pickle.loads(pickle.dumps(excinfo.value))
        assert revived.events == excinfo.value.events
        # The patch is removed on exit: the same solve now converges.
        operating_point(circuit)

    def test_missing_toolchain_restores_state(self, tmp_path):
        from repro.core import ipc_native

        before = ipc_native.native_available()
        with faults.missing_native_toolchain(tmp_path / "empty"):
            assert not ipc_native.native_available()
        assert ipc_native.native_available() == before


class TestCli:
    def test_validate_command_writes_report(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "validation.json"
        rc = main(["validate", "--only", "cache-warm-vs-cold",
                   "--report", str(out)])
        assert rc == 0
        # --report now writes a full schema-v1 run report with the
        # validation outcome embedded, so the history index covers
        # validation runs alongside the experiments.
        payload = json.loads(out.read_text())
        assert payload["target"] == "validate"
        assert payload["status"] == "ok"
        assert "env" in payload and "span_tree" in payload
        validation = payload["validation"]
        assert validation["ok"] and validation["n_checks"] == 1
        assert "cache-warm-vs-cold" in capsys.readouterr().out

    def test_validate_command_fails_on_mismatch(self, monkeypatch,
                                                tmp_path):
        import repro.core.superscalar as superscalar
        from repro.__main__ import main

        original = superscalar._fast_cycles
        monkeypatch.setattr(superscalar, "_fast_cycles",
                            lambda config, trace: original(config,
                                                           trace) + 1)
        rc = main(["validate", "--only", "ipc-kernel-agreement"])
        assert rc == 1

    def test_validate_command_rejects_unknown_check(self, capsys):
        from repro.__main__ import main

        rc = main(["validate", "--only", "does-not-exist"])
        assert rc == 2
        assert "unknown check" in capsys.readouterr().out
