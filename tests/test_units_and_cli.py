"""Units helpers, CLI smoke tests and the README knob table."""

import ast
import math
import re
from pathlib import Path

import pytest

from repro.units import (
    EPS_R_AL2O3,
    decades,
    engineering,
    mobility_cm2_to_m2,
    mobility_m2_to_cm2,
    oxide_capacitance_per_area,
)


class TestUnits:
    def test_mobility_round_trip(self):
        assert mobility_m2_to_cm2(mobility_cm2_to_m2(0.16)) == pytest.approx(0.16)

    def test_oxide_capacitance(self):
        # 50 nm Al2O3: ~1.6 mF/m^2 (the paper's gate stack).
        ci = oxide_capacitance_per_area(EPS_R_AL2O3, 50e-9)
        assert ci == pytest.approx(1.59e-3, rel=0.01)

    def test_oxide_capacitance_validation(self):
        with pytest.raises(ValueError):
            oxide_capacitance_per_area(9.0, 0.0)

    def test_decades(self):
        assert decades(1e6) == pytest.approx(6.0)
        with pytest.raises(ValueError):
            decades(0.0)

    def test_engineering_format(self):
        assert engineering(2.2e-5, "s") == "22 us"
        assert engineering(1.5e9, "Hz") == "1.5 GHz"
        assert engineering(0, "V") == "0 V"
        assert engineering(-3e-3, "A") == "-3 mA"


class TestCli:
    def test_list(self, capsys):
        from repro.__main__ import main
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig11" in out and "liberty" in out
        assert "perf" in out and "trace" in out
        assert "serve" not in out and "submit" not in out
        with pytest.raises(SystemExit) as exc:
            main(["serve"])
        assert exc.value.code == 2
        assert "unknown experiments" in capsys.readouterr().err

    def test_fig4_runs(self, capsys):
        from repro.__main__ import main
        assert main(["fig4"]) == 0
        assert "level 61" in capsys.readouterr().out

    def test_unknown_experiment(self):
        from repro.__main__ import main
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_experiment_writes_run_report(self, tmp_path, capsys):
        import json
        from repro.__main__ import main
        out = tmp_path / "fig6-report.json"
        assert main(["fig6", "--report", str(out)]) == 0
        assert f"run report: {out}" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["target"] == "fig6"
        assert doc["status"] == "ok"
        assert doc["span_tree"][0]["name"] == "fig6"
        assert doc["metrics"]["counters"]["spice.newton_solves"] > 0

    def test_no_report_flag(self, tmp_path, monkeypatch, capsys):
        from repro.__main__ import main
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        assert main(["fig4", "--no-report"]) == 0
        assert "run report:" not in capsys.readouterr().out
        assert list(tmp_path.glob("*.json")) == []

    def test_report_subcommand(self, tmp_path, monkeypatch, capsys):
        from repro.__main__ import main
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        assert main(["report"]) == 1
        assert "no run reports" in capsys.readouterr().out
        assert main(["fig4"]) == 0
        capsys.readouterr()
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "run report: fig4 [ok]" in out
        assert "spans:" in out

    def test_cache_stats_subcommand(self, capsys):
        from repro.__main__ import main
        assert main(["cache-stats"]) == 0
        out = capsys.readouterr().out
        assert "cache root:" in out
        assert "this process:" in out


ROOT = Path(__file__).resolve().parent.parent


def test_every_env_knob_has_one_readme_row():
    """The ``REPRO_*`` names the package reads are exactly the README
    knob-table rows: a new knob needs a row, a retired one loses it."""
    read = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and re.fullmatch(r"REPRO_[A-Z0-9_]+", node.value):
                read.add(node.value)
    readme = (ROOT / "README.md").read_text()
    rows = re.findall(r"^\| `(REPRO_[A-Z0-9_]+)`", readme, re.MULTILINE)
    assert len(rows) == len(set(rows)), "duplicate knob-table rows"
    assert set(rows) == read
