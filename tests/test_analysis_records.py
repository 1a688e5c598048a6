"""Tests for the tidy record layer (:mod:`repro.analysis.records`)."""

from __future__ import annotations

import json

import pytest

from repro.analysis.records import (
    RecordError,
    RecordTable,
    feature_records,
    fig1_records,
    fig9_records,
    journal_records,
    result_record,
    sweep_records,
    table1_records,
    table2_records,
    telemetry_records,
)
from repro.experiments.figures import (
    FEATURES,
    FeatureComparison,
    Fig1Row,
    Fig9Row,
    PowerSweep,
    SweepCell,
)
from repro.experiments.journal import SweepJournal
from repro.experiments.runner import StrategyRunResult
from repro.experiments.tables import Table1Row, Table2Row


def result(strategy, time_s, energy_j=None):
    return StrategyRunResult(
        strategy=strategy,
        app_label="sp.B",
        machine="crill",
        cap_w=85.0,
        time_s=time_s,
        energy_j=energy_j,
        runs=(),
    )


class TestRecordTable:
    def test_columns_from_first_record(self):
        table = RecordTable([{"a": 1, "b": 2.5}, {"a": 3, "b": None}])
        assert table.columns == ("a", "b")
        assert len(table) == 2
        assert table.column("b") == [2.5, None]

    def test_rejects_non_scalar_cells(self):
        with pytest.raises(RecordError, match="non-scalar"):
            RecordTable([{"a": [1, 2]}])

    def test_rejects_heterogeneous_columns(self):
        with pytest.raises(RecordError, match="columns"):
            RecordTable([{"a": 1}, {"b": 2}])

    def test_unknown_column(self):
        with pytest.raises(KeyError):
            RecordTable([{"a": 1}]).column("z")

    def test_json_round_trips(self):
        records = [{"x": 0.1, "s": "a,b", "n": None}]
        table = RecordTable(records)
        assert json.loads(table.to_json()) == records

    def test_csv_quotes_and_header(self):
        table = RecordTable(
            [{"x": 1, "s": 'he said "hi", twice', "n": None}]
        )
        out = table.to_csv()
        lines = out.split("\n")
        assert lines[0] == "x,s,n"
        # RFC 4180: embedded quotes doubled, field quoted, None empty
        assert lines[1] == '1,"he said ""hi"", twice",'

    def test_empty_table(self):
        table = RecordTable([])
        assert table.columns == ()
        assert table.to_json() == "[]"
        assert table.to_csv() == "\n"


class TestConverters:
    def test_result_record_is_flat(self):
        row = result_record(result("arcs-online", 4.2, 100.0))
        assert row["strategy"] == "arcs-online"
        assert row["time_s"] == 4.2
        assert row["energy_j"] == 100.0
        RecordTable([row])  # all cells scalar

    def test_sweep_records_order_and_cells(self):
        sweep = PowerSweep(
            app_label="sp.B",
            machine="crill",
            labels=("TDP", "55W"),
            cells={
                ("TDP", "default"): SweepCell(1.0, 1.0),
                ("TDP", "arcs-offline"): SweepCell(0.7, 0.65),
                ("55W", "default"): SweepCell(1.0, 1.0),
            },
            results={},
        )
        rows = sweep_records(sweep)
        # caps outer, strategy order inner; missing cells skipped
        assert [(r["power"], r["strategy"]) for r in rows] == [
            ("TDP", "default"),
            ("TDP", "arcs-offline"),
            ("55W", "default"),
        ]
        assert rows[1]["time_norm"] == 0.7
        assert rows[0]["time_s"] is None  # no full result attached
        RecordTable(rows)

    def test_fig1_and_fig9_records(self):
        f1 = fig1_records(
            [Fig1Row("55W", "16, guided, 8", 1.0, 1.5)]
        )
        assert f1[0]["improvement_pct"] == pytest.approx(100 / 3)
        f9 = fig9_records(
            [Fig9Row("EvalEOS", 1920, 1.5, 0.6, 0.8)]
        )
        assert f9[0]["calls"] == 1920
        RecordTable(f1), RecordTable(f9)

    def test_feature_records_columns(self):
        comparison = FeatureComparison(
            app_label="sp.B",
            regions=("x_solve",),
            offline_normalized={
                "x_solve": {f: 0.5 for f in FEATURES}
            },
            offline_configs={"x_solve": "16, guided, 1"},
        )
        rows = feature_records(comparison)
        assert rows[0]["config"] == "16, guided, 1"
        for feature in FEATURES:
            assert rows[0][feature] == 0.5
        RecordTable(rows)

    def test_table_records(self):
        t1 = table1_records([Table1Row("Chunk Size", "1, 8")])
        t2 = table2_records([Table2Row("x_solve", "16, guided, 1")])
        assert t1 == [{"parameter": "Chunk Size", "values": "1, 8"}]
        assert t2 == [{"region": "x_solve", "config": "16, guided, 1"}]


class TestDiskSources:
    def test_journal_records(self, tmp_path):
        journal = SweepJournal(tmp_path / "journal.jsonl")
        journal.append("bbb", "TDP/default", result("default", 5.0))
        journal.append("aaa", "TDP/arcs-online",
                       result("arcs-online", 4.0))
        rows = journal_records(journal.path)
        # sorted by digest, result flattened alongside it
        assert [r["digest"] for r in rows] == ["aaa", "bbb"]
        assert rows[0]["strategy"] == "arcs-online"
        assert rows[1]["time_s"] == 5.0
        RecordTable(rows)

    def test_journal_records_missing_file(self, tmp_path):
        assert journal_records(tmp_path / "nope.jsonl") == []

    def test_telemetry_records_flattening(self, tmp_path):
        lines = [
            {"kind": "event", "name": "cap_change",
             "attrs": {"cap_w": 55.0, "path": [1, 2]}},
            {"kind": "metric", "name": "runs", "value": 3},
        ]
        path = tmp_path / "telemetry.jsonl"
        path.write_text(
            "".join(json.dumps(line) + "\n" for line in lines)
        )
        rows = telemetry_records(tmp_path)
        assert all(r["stream"] == "telemetry" for r in rows)
        # nested mapping flattened; non-scalar JSON-encoded
        assert rows[0]["attrs.cap_w"] == 55.0
        assert rows[0]["attrs.path"] == "[1, 2]"
        assert rows[1]["value"] == 3

    def test_telemetry_records_kind_filter(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        path.write_text(
            json.dumps({"kind": "event", "name": "a"}) + "\n"
            + json.dumps({"kind": "metric", "name": "b"}) + "\n"
        )
        rows = telemetry_records(tmp_path, kinds=("metric",))
        assert [r["name"] for r in rows] == ["b"]
