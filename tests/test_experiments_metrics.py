"""Tests for comparison metrics and reporting rendering."""

from __future__ import annotations

import pytest

from repro.analysis.registry import get_spec
from repro.experiments.metrics import (
    best_improvement,
    improvement_pct,
    normalized_series,
)
from repro.experiments.reporting import (
    render_features,
    render_fig1,
    render_fig9,
    render_sweep,
    render_table1,
    render_table2,
)
from repro.experiments.figures import (
    FeatureComparison,
    Fig1Row,
    Fig9Row,
    PowerSweep,
    SweepCell,
)
from repro.experiments.runner import StrategyRunResult
from repro.experiments.tables import Table1Row, Table2Row


def result(strategy, time_s, energy_j=None):
    return StrategyRunResult(
        strategy=strategy,
        app_label="sp.B",
        machine="crill",
        cap_w=None,
        time_s=time_s,
        energy_j=energy_j,
        runs=(),
    )


class TestMetrics:
    def test_normalized_series(self):
        base = result("default", 10.0, 100.0)
        others = [result("arcs-offline", 7.0, 60.0)]
        series = normalized_series(base, others, "time")
        assert series["default"] == 1.0
        assert series["arcs-offline"] == pytest.approx(0.7)

    def test_energy_metric(self):
        base = result("default", 10.0, 100.0)
        series = normalized_series(
            base, [result("arcs-online", 9.0, 80.0)], "energy"
        )
        assert series["arcs-online"] == pytest.approx(0.8)

    def test_energy_unavailable(self):
        base = result("default", 10.0, None)
        with pytest.raises(ValueError, match="energy"):
            normalized_series(base, [], "energy")

    def test_best_improvement(self):
        base = result("default", 10.0)
        others = [result("a", 8.0), result("b", 6.0)]
        assert best_improvement(base, others) == pytest.approx(40.0)

    def test_best_improvement_empty_others(self):
        """Used to crash with a bare ``max() arg is an empty
        sequence``; must name the baseline strategy instead."""
        with pytest.raises(ValueError, match="'default'"):
            best_improvement(result("default", 10.0), [])

    def test_zero_baseline_time(self):
        """Used to divide by zero; must explain the degenerate
        baseline."""
        base = result("default", 0.0)
        with pytest.raises(ValueError, match="0.0"):
            normalized_series(base, [result("a", 1.0)], "time")

    def test_zero_baseline_energy(self):
        base = result("default", 10.0, 0.0)
        with pytest.raises(ValueError, match="energy"):
            normalized_series(base, [result("a", 1.0, 2.0)], "energy")

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            normalized_series(result("default", 1.0), [], "flops")


class TestRendering:
    def test_fig1(self):
        rows = [
            Fig1Row("55W", "16, guided, 8", 1.0, 1.5),
            Fig1Row("NO CAP", "32, static, default", 2.0, None),
        ]
        out = render_fig1(rows, "Fig 1")
        assert "55W" in out and "33.3%" in out and "NO CAP" in out

    def test_features(self):
        comparison = FeatureComparison(
            app_label="sp.B",
            regions=("x_solve",),
            offline_normalized={
                "x_solve": {
                    "OMP_BARRIER": 0.5,
                    "L1 miss": 0.9,
                    "L2 miss": 0.8,
                    "L3 miss": 0.1,
                }
            },
            offline_configs={"x_solve": "16, guided, 1"},
        )
        out = render_features(comparison, "Fig 3")
        assert "x_solve" in out and "0.500" in out

    def test_sweep(self):
        sweep = PowerSweep(
            app_label="sp.B",
            machine="crill",
            labels=("55W",),
            cells={
                ("55W", "default"): SweepCell(1.0, 1.0),
                ("55W", "arcs-offline"): SweepCell(0.7, 0.65),
            },
            results={},
        )
        out = render_sweep(sweep, "Fig 4")
        assert "0.700" in out and "0.650" in out

    def test_sweep_tdp_label(self):
        # the row is labelled by the sweep itself, whatever the
        # machine is called
        sweep = PowerSweep(
            app_label="x", machine="crill-b", labels=("TDP",),
            cells={("TDP", "default"): SweepCell(1.0, None)},
            results={},
        )
        assert "TDP" in render_sweep(sweep, "Fig 4").splitlines()[-1]

    def test_fig9(self):
        rows = [Fig9Row("EvalEOSForElems_", 1920, 1.5, 0.6, 0.8)]
        out = render_fig9(rows, "Fig 9")
        assert "EvalEOSForElems_" in out and "1920" in out

    def test_tables(self):
        out1 = render_table1(
            [Table1Row("Chunk Size", "1, 8, default")], "Table I"
        )
        assert "Chunk Size" in out1
        out2 = render_table2(
            [Table2Row("x_solve", "16, guided, 1")], "Table II"
        )
        assert "x_solve" in out2


class TestRenderingGoldens:
    """Byte-exact snapshots of every text renderer on fixed synthetic
    inputs - the refactor onto tidy records must never change a single
    character of the paper-style output.  Refresh deliberately with
    ``--update-goldens``."""

    def check(self, name, text, goldens_dir, update_goldens):
        from tests.test_golden_masters import check_golden

        check_golden(name, text + "\n", goldens_dir, update_goldens)

    def test_fig1_golden(self, goldens_dir, update_goldens):
        rows = [
            Fig1Row("55W", "16, guided, 8", 1.0, 1.5),
            Fig1Row("NO CAP", "32, static, default", 2.0, None),
        ]
        self.check(
            "render_fig1.txt",
            render_fig1(rows, get_spec("fig1_motivation").title),
            goldens_dir, update_goldens,
        )

    def test_features_golden(self, goldens_dir, update_goldens):
        comparison = FeatureComparison(
            app_label="sp.B",
            regions=("x_solve", "y_solve"),
            offline_normalized={
                "x_solve": {
                    "OMP_BARRIER": 0.5, "L1 miss": 0.9,
                    "L2 miss": 0.8, "L3 miss": 0.1,
                },
                "y_solve": {
                    "OMP_BARRIER": 1.25, "L1 miss": 1.0,
                    "L2 miss": 0.75, "L3 miss": 0.5,
                },
            },
            offline_configs={"x_solve": "16, guided, 1"},
        )
        self.check(
            "render_features.txt",
            render_features(comparison, "Fig 3 (synthetic)"),
            goldens_dir, update_goldens,
        )

    def test_sweep_golden(self, goldens_dir, update_goldens):
        sweep = PowerSweep(
            app_label="sp.B",
            machine="crill",
            labels=("TDP", "55W"),
            cells={
                ("TDP", "default"): SweepCell(1.0, 1.0),
                ("TDP", "arcs-offline"): SweepCell(0.7, 0.65),
                ("55W", "default"): SweepCell(1.0, None),
                ("55W", "arcs-online"): SweepCell(0.85, None),
            },
            results={},
        )
        self.check(
            "render_sweep.txt",
            render_sweep(sweep, "Fig 4 (synthetic)"),
            goldens_dir, update_goldens,
        )

    def test_fig9_golden(self, goldens_dir, update_goldens):
        rows = [
            Fig9Row("EvalEOSForElems_", 1920, 1.5, 0.6, 0.8),
            Fig9Row("CalcPressure_", 960, 0.25, 0.1, 0.05),
        ]
        self.check(
            "render_fig9.txt",
            render_fig9(rows, get_spec("fig9_lulesh_regions").title),
            goldens_dir, update_goldens,
        )

    def test_tables_golden(self, goldens_dir, update_goldens):
        self.check(
            "render_table1.txt",
            render_table1(
                [Table1Row("Chunk Size", "1, 8, default"),
                 Table1Row("Thread Count", "2, 4, 8")],
                get_spec("table1_search_space").title,
            ),
            goldens_dir, update_goldens,
        )
        self.check(
            "render_table2.txt",
            render_table2(
                [Table2Row("x_solve", "16, guided, 1"),
                 Table2Row("y_solve", "32, dynamic, 8")],
                get_spec("table2_sp_optimal_configs").title,
            ),
            goldens_dir, update_goldens,
        )
