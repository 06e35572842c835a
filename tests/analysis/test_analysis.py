"""Analysis-layer tests: calibration registry, tables, cheap figures."""

import numpy as np
import pytest

from repro.analysis.calibration import PAPER, paper_value
from repro.analysis.figures import (
    fig3_transfer_characteristics,
    fig4_model_fits,
    fig6_inverter_comparison,
    fig8_vss_tuning,
    fig12_alu_depth,
)
from repro.analysis.tables import format_matrix, format_series, format_table
from repro.runtime import telemetry


class TestCalibration:
    def test_registry_covers_all_figures(self):
        figures = {e.figure for e in PAPER.values()}
        for fig in ("Fig 3", "Fig 6d", "Fig 7d", "Fig 8b", "Fig 11",
                    "Fig 12b", "Fig 13a", "Fig 13b", "Fig 14", "Fig 15b"):
            assert any(fig in f for f in figures), fig

    def test_paper_value_lookup(self):
        assert paper_value("mobility") == 0.16
        with pytest.raises(KeyError):
            paper_value("nonsense")

    def test_matrix_shapes(self):
        m = paper_value("fig13_si_matrix")
        assert len(m) == 5 and all(len(row) == 6 for row in m)


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [3, 4.25]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_matrix(self):
        m = {(3, 1): 0.5, (3, 2): 1.0, (4, 1): 0.25, (4, 2): 0.75}
        text = format_matrix(m)
        assert "3" in text and "0.50" in text

    def test_format_series_bars(self):
        text = format_series([1, 2], [0.5, 1.0], title="S")
        assert text.count("#") > 3


class TestFastFigures:
    def test_fig3_matches_paper_shape(self):
        r = fig3_transfer_characteristics()
        assert r.report_vds1.mobility_cm2 == pytest.approx(0.16, rel=0.2)
        assert r.report_vds1.threshold_v < 0 < r.report_vds10.threshold_v

    def test_fig4_message(self):
        assert fig4_model_fits().level1_much_worse

    def test_fig6_runs(self):
        r = fig6_inverter_comparison()
        assert r.diode.vdd == 15.0

    def test_fig8_series_lengths(self):
        r = fig8_vss_tuning(vss_values=np.array([-18.0, -14.0, -10.0]))
        assert len(r.vss_values) == len(r.vm_values) == 3

    def test_fig12_attributes_pipeline_cutting_to_spans(self, organic_lib,
                                                        silicon_lib):
        with telemetry.collecting():
            with telemetry.span("fig12"):
                fig12_alu_depth(stage_counts=[1, 2], width=8)
            (root,) = telemetry.span_tree()
        cuts = [c["name"] for c in root["children"]
                if c["name"].startswith("pipeline:")]
        assert cuts == ["pipeline:complex_slice_mapped"] * 2  # org + sil
