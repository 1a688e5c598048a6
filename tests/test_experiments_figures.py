"""Tests for the figure/table generators (fast configurations)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.bench import sweep_metrics
from repro.analysis.records import sweep_records
from repro.core.history import HistoryStore
from repro.experiments.figures import (
    FEATURES,
    SP_MAJOR_REGIONS,
    feature_comparison,
    fig1_motivation,
    fig9_lulesh_regions,
    power_sweep,
)
from repro.experiments.reporting import render_sweep
from repro.experiments.runner import ExperimentSetup
from repro.experiments.tables import (
    table1_search_space,
    table2_sp_optimal_configs,
)
from repro.machine.spec import crill
from repro.workloads.synthetic import synthetic_application


class TestTable1:
    def test_rows(self):
        rows = table1_search_space()
        assert len(rows) == 4
        assert rows[0].parameter.startswith("Number of threads (Crill")
        assert "guided" in rows[2].values
        assert rows[3].values.endswith("default")


class TestTable2:
    def test_uses_shared_history(self):
        history = HistoryStore()
        setup = ExperimentSetup(spec=crill(), repeats=1)
        rows1 = table2_sp_optimal_configs(setup, history=history)
        rows2 = table2_sp_optimal_configs(setup, history=history)
        assert rows1 == rows2
        assert [r.region for r in rows1] == list(SP_MAJOR_REGIONS)


class TestFig1:
    def test_row_structure(self):
        rows = fig1_motivation(caps=(55.0, 115.0), calls=10)
        capped = [r for r in rows if r.default_time_s is not None]
        nocap = [r for r in rows if r.default_time_s is None]
        assert len(capped) == 2
        assert len(nocap) == 5
        for row in capped:
            assert row.time_s <= row.default_time_s
            assert row.improvement_pct >= 0


class TestFeatureComparison:
    def test_synthetic_features_normalized(self):
        app = synthetic_application(timesteps=6, include_tiny=False)
        setup = ExperimentSetup(spec=crill(), repeats=1)
        comparison = feature_comparison(
            app, ("synthetic_imbalanced",), setup
        )
        feats = comparison.offline_normalized["synthetic_imbalanced"]
        assert set(feats) == set(FEATURES)
        assert all(v > 0 for v in feats.values())
        assert "synthetic_imbalanced" in comparison.offline_configs


class TestPowerSweep:
    def test_cells_complete(self):
        app = synthetic_application(timesteps=6, include_tiny=False)
        sweep = power_sweep(app, crill(), (85.0,), repeats=1)
        for strategy in ("default", "arcs-online", "arcs-offline"):
            cell = sweep.cells[("85W", strategy)]
            assert cell.time_norm > 0
            assert cell.energy_norm is not None
        assert sweep.cells[("85W", "default")].time_norm == 1.0

    def test_tdp_label(self):
        app = synthetic_application(timesteps=4, include_tiny=False)
        sweep = power_sweep(app, crill(), (115.0,), repeats=1)
        assert ("TDP", "default") in sweep.cells

    def test_tdp_row_on_any_machine(self):
        # the TDP level is labelled from the spec's TDP, not from a
        # table of known machine names
        app = synthetic_application(timesteps=4, include_tiny=False)
        spec = dataclasses.replace(crill(), name="crill-b")
        sweep = power_sweep(app, spec, (85.0, spec.tdp_w), repeats=1)
        rows = sweep_records(sweep)
        assert [(r["power"], r["strategy"]) for r in rows] == [
            (power, strategy)
            for power in ("85W", "TDP")
            for strategy in ("default", "arcs-online", "arcs-offline")
        ]
        assert set(sweep_metrics(sweep)) >= {
            "time_norm[TDP/arcs-online]", "time_norm[TDP/arcs-offline]",
        }
        assert "TDP" in render_sweep(sweep, "t").splitlines()[-1]


class TestFig9:
    def test_tau_based_breakdown(self):
        setup = ExperimentSetup(spec=crill(), repeats=1)
        rows = fig9_lulesh_regions(setup, top=3)
        assert len(rows) == 3
        assert rows[0].implicit_task_s >= rows[1].implicit_task_s
        for row in rows:
            assert row.loop_s <= row.implicit_task_s * 1.05
            assert row.barrier_s >= 0
