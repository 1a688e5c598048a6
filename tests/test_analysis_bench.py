"""Tests for BENCH payloads (:mod:`repro.analysis.bench`)."""

from __future__ import annotations

import json

import pytest

from repro.analysis.bench import (
    BENCH_SCHEMA_VERSION,
    BenchFormatError,
    bench_path,
    bench_payload,
    feature_metrics,
    load_bench_dir,
    load_bench_json,
    sweep_metrics,
    write_bench_json,
)
from repro.experiments.figures import (
    FEATURES,
    FeatureComparison,
    PowerSweep,
    SweepCell,
)


class TestPayload:
    def test_plain_number_defaults_to_lower(self):
        payload = bench_payload("b", {"t": 1.5})
        assert payload["schema"] == BENCH_SCHEMA_VERSION
        assert payload["kind"] == "bench"
        assert payload["metrics"]["t"] == {
            "value": 1.5, "direction": "lower",
        }

    def test_mapping_form_with_unit(self):
        payload = bench_payload(
            "b",
            {"s": {"value": 2, "direction": "higher", "unit": "x"}},
        )
        assert payload["metrics"]["s"] == {
            "value": 2.0, "direction": "higher", "unit": "x",
        }

    def test_bad_direction_rejected(self):
        with pytest.raises(BenchFormatError, match="direction"):
            bench_payload("b", {"t": {"value": 1, "direction": "up"}})

    def test_missing_value_rejected(self):
        with pytest.raises(BenchFormatError, match="value"):
            bench_payload("b", {"t": {"direction": "lower"}})

    def test_non_numeric_rejected(self):
        with pytest.raises(BenchFormatError):
            bench_payload("b", {"t": "fast"})
        with pytest.raises(BenchFormatError):
            bench_payload("b", {"t": True})

    def test_provenance(self):
        payload = bench_payload(
            "b", machine="crill", seed=3, config={"repeats": 3}
        )
        prov = payload["provenance"]
        assert prov["machines"] == ["crill"]
        assert prov["seed"] == 3
        assert prov["config"] == {"repeats": 3}
        assert prov["python"] and prov["platform"]

    def test_provenance_machine_list(self):
        prov = bench_payload(
            "b", machine=("crill", "minotaur")
        )["provenance"]
        assert prov["machines"] == ["crill", "minotaur"]


class TestMetricBuilders:
    def test_sweep_metrics(self):
        sweep = PowerSweep(
            app_label="sp.B", machine="crill", labels=("TDP",),
            cells={
                ("TDP", "default"): SweepCell(1.0, 1.0),
                ("TDP", "arcs-online"): SweepCell(0.8, None),
                ("TDP", "arcs-offline"): SweepCell(0.7, 0.6),
            },
            results={},
        )
        metrics = sweep_metrics(sweep)
        # default never gated; energy omitted when unmetered
        assert set(metrics) == {
            "time_norm[TDP/arcs-online]",
            "time_norm[TDP/arcs-offline]",
            "energy_norm[TDP/arcs-offline]",
        }
        assert all(m["direction"] == "lower" for m in metrics.values())

    def test_feature_metrics(self):
        comparison = FeatureComparison(
            app_label="sp.B",
            regions=("x_solve",),
            offline_normalized={"x_solve": {f: 0.5 for f in FEATURES}},
            offline_configs={},
        )
        metrics = feature_metrics(comparison)
        assert len(metrics) == len(FEATURES)
        assert metrics[f"x_solve[{FEATURES[0]}]"]["value"] == 0.5


class TestIO:
    def test_write_and_load_round_trip(self, tmp_path):
        payload = bench_payload("speed", {"t": 1.0}, machine="crill")
        path = write_bench_json(tmp_path, payload)
        assert path == bench_path(tmp_path, "speed")
        assert path.name == "BENCH_speed.json"
        assert load_bench_json(path) == payload

    def test_write_is_deterministic(self, tmp_path):
        payload = bench_payload("b", {"z": 1.0, "a": 2.0})
        first = write_bench_json(tmp_path, payload).read_bytes()
        second = write_bench_json(tmp_path, payload).read_bytes()
        assert first == second

    def test_write_requires_name(self, tmp_path):
        with pytest.raises(BenchFormatError, match="name"):
            write_bench_json(tmp_path, {"metrics": {}})

    def test_load_rejects_torn_and_mismatched(self, tmp_path):
        torn = tmp_path / "BENCH_torn.json"
        torn.write_text('{"schema": 1, "kind": "ben')
        assert load_bench_json(torn) is None
        wrong = tmp_path / "BENCH_wrong.json"
        wrong.write_text(json.dumps({"schema": 999, "kind": "bench",
                                     "name": "w", "metrics": {}}))
        assert load_bench_json(wrong) is None
        assert load_bench_json(tmp_path / "absent.json") is None

    def test_load_bench_dir(self, tmp_path):
        write_bench_json(tmp_path, bench_payload("a", {"t": 1.0}))
        write_bench_json(tmp_path, bench_payload("b", {"t": 2.0}))
        (tmp_path / "BENCH_bad.json").write_text("not json")
        out = load_bench_dir(tmp_path)
        assert sorted(out) == ["a", "b"]

    def test_load_bench_dir_missing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_bench_dir(tmp_path / "nope")
