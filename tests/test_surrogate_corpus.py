"""Corpus extraction: folding the journal of completed measurements
and telemetry into training records - and proving the fold never
raises on damage.

The regression this file pins down: a sweep journal written across a
schema upgrade holds lines from *both* versions, and the fold must
skip-and-count the foreign ones instead of aborting halfway through
(the original implementation raised mid-fold and lost every record
after the first mismatch).
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.experiments.cache import experiment_digest, result_to_json
from repro.experiments.journal import JOURNAL_SCHEMA_VERSION, SweepJournal
from repro.experiments.runner import ExperimentSetup, run_arcs_offline
from repro.faults.inject import make_injector
from repro.faults.plan import FaultPlan, FaultSpec
from repro.machine.spec import crill
from repro.surrogate.corpus import (
    CORPUS_SCHEMA_VERSION,
    CorpusStats,
    TrainingRecord,
    fold_cache_dir,
    fold_result,
    fold_telemetry_file,
    load_corpus,
    save_corpus,
)
from repro.util.jsonlog import encode
from repro.workloads.registry import application_by_name
from tests.test_jsonlog import legacy_head_line

APP = application_by_name("synthetic", "mixed")


def offline_setup() -> ExperimentSetup:
    return ExperimentSetup(spec=crill(), cap_w=85.0, repeats=2, seed=3)


@pytest.fixture(scope="module")
def offline_result():
    return run_arcs_offline(APP, offline_setup())


REGION_COUNT = len(list(APP.regions()))


class TestFoldResult:
    def test_offline_result_yields_one_record_per_region(
        self, offline_result
    ):
        stats = CorpusStats()
        records = fold_result(
            offline_result, source="cache", provenance="p", stats=stats
        )
        assert len(records) == REGION_COUNT
        assert stats.records == REGION_COUNT
        by_region = {r.region: r for r in records}
        for region, config in offline_result.chosen_configs.items():
            record = by_region[region]
            assert record.config() == config
            assert record.cap_w == 85.0
            assert record.time_s > 0.0
            assert record.app == APP.label
            assert record.source == "cache"

    def test_online_results_are_unusable_not_attributed(
        self, offline_result
    ):
        # online totals mix search probes from many configs; folding
        # them would attribute mixed measurements to one config
        online = dataclasses.replace(
            offline_result, strategy="arcs-online"
        )
        stats = CorpusStats()
        assert (
            fold_result(
                online, source="cache", provenance="p", stats=stats
            )
            == []
        )
        assert stats.skipped_unusable == 1
        assert stats.records == 0


class TestFoldCacheDir:
    def test_folds_entries_and_skips_damage(
        self, tmp_path, offline_result
    ):
        journal = SweepJournal.in_dir(tmp_path)
        digest = experiment_digest(APP, offline_setup(), "arcs-offline")
        journal.append(digest, "cell", offline_result)
        cell_line = journal.path.read_bytes()
        journal.append_repeat("run", 0, {"run": {}})  # not a cell
        with open(journal.path, "ab") as handle:
            handle.write(encode({"digest": "0" * 64}, journal.schema + 1))
            handle.write(cell_line[: len(cell_line) // 2])  # torn tail
        before = {p: p.read_bytes() for p in tmp_path.iterdir()}
        stats = CorpusStats()
        records = fold_cache_dir(tmp_path, stats)
        assert len(records) == REGION_COUNT
        assert all(r.provenance == digest for r in records)
        assert all(r.source == "cache" for r in records)
        assert stats.files == 1
        assert stats.skipped_damaged == 1
        assert stats.skipped_schema == 1
        assert any("torn/corrupt cache" in n for n in stats.notes)
        # read-only: the fold must never repair the store's own log
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_missing_directory_is_empty_not_an_error(self, tmp_path):
        stats = CorpusStats()
        assert fold_cache_dir(tmp_path / "nope", stats) == []


class TestFoldJournal:
    """The store's journal as written across versions: with an old
    sweep header, with lines of another schema, with a torn tail."""

    def _journal(self, tmp_path, offline_result) -> SweepJournal:
        journal = SweepJournal.in_dir(tmp_path)
        journal.append("a" * 64, "cell-a", offline_result)
        return journal

    def test_folds_cells_and_ignores_header(
        self, tmp_path, offline_result
    ):
        # an old journal's header line is damage: counted, skipped,
        # and no bar to folding the cells after it
        SweepJournal.in_dir(tmp_path).path.write_bytes(
            legacy_head_line({"sweep": "test"}, JOURNAL_SCHEMA_VERSION)
        )
        self._journal(tmp_path, offline_result)
        stats = CorpusStats()
        records = fold_cache_dir(tmp_path, stats)
        assert len(records) == REGION_COUNT
        assert all(r.provenance == "a" * 64 for r in records)
        assert stats.skipped_damaged == 1

    def test_mixed_schema_versions_skip_and_count_not_raise(
        self, tmp_path, offline_result
    ):
        # the regression: a journal spanning a schema upgrade - one
        # good line, one foreign-version line, one more good line -
        # must contribute BOTH good lines and count the foreign one
        journal = self._journal(tmp_path, offline_result)
        foreign = {
            "digest": "b" * 64,
            "task": "cell-b",
            "result": result_to_json(offline_result),
        }
        with open(journal.path, "ab") as handle:
            handle.write(encode(foreign, JOURNAL_SCHEMA_VERSION + 1))
        journal.append("c" * 64, "cell-c", offline_result)
        stats = CorpusStats()
        records = fold_cache_dir(tmp_path, stats)
        assert len(records) == 2 * REGION_COUNT
        assert stats.skipped_schema == 1
        assert stats.skipped_damaged == 0

    def test_torn_tail_is_counted_and_file_left_untouched(
        self, tmp_path, offline_result
    ):
        journal = self._journal(tmp_path, offline_result)
        with open(journal.path, "a") as handle:
            handle.write('{"schema": 1, "digest": "tor')  # no newline
        before = journal.path.read_bytes()
        stats = CorpusStats()
        records = fold_cache_dir(tmp_path, stats)
        assert len(records) == REGION_COUNT
        assert stats.skipped_damaged == 1
        assert any("torn/corrupt" in n for n in stats.notes)
        # read-only: the fold must never truncate the sweep's own
        # recovery log (unlike SweepJournal.load, which repairs it)
        assert journal.path.read_bytes() == before

    def test_missing_journal_notes_and_returns_empty(self, tmp_path):
        stats = CorpusStats()
        assert fold_cache_dir(tmp_path, stats) == []
        assert any("no journal" in n for n in stats.notes)


class TestFoldTelemetry:
    def _write(self, path, lines):
        path.write_text(
            "\n".join(json.dumps(line) for line in lines) + "\n"
        )

    def test_pairs_apply_and_report_events(self, tmp_path):
        path = tmp_path / "run.jsonl"
        self._write(
            path,
            [
                {
                    "type": "meta",
                    "attrs": {"app": "synthetic.mixed", "machine": "crill"},
                },
                {
                    "type": "event",
                    "name": "policy.apply",
                    "attrs": {
                        "region": "synthetic_tiny",
                        "config": "16, guided, 8",
                        "cap_w": 85.0,
                    },
                },
                {
                    "type": "event",
                    "name": "policy.report",
                    "attrs": {
                        "region": "synthetic_tiny",
                        "objective": 0.004,
                        "accepted": True,
                    },
                },
            ],
        )
        stats = CorpusStats()
        records = fold_telemetry_file(path, stats)
        assert len(records) == 1
        record = records[0]
        assert record.region == "synthetic_tiny"
        assert record.n_threads == 16
        assert record.schedule == "guided"
        assert record.chunk == 8
        assert record.cap_w == 85.0
        assert record.time_s == 0.004
        assert record.source == "telemetry"

    def test_rejected_and_orphan_reports_are_unusable(self, tmp_path):
        path = tmp_path / "run.jsonl"
        self._write(
            path,
            [
                {
                    "type": "meta",
                    "attrs": {"app": "synthetic.mixed", "machine": "crill"},
                },
                # a report with no preceding apply for its region
                {
                    "type": "event",
                    "name": "policy.report",
                    "attrs": {"region": "orphan", "objective": 0.1},
                },
                {
                    "type": "event",
                    "name": "policy.apply",
                    "attrs": {
                        "region": "r",
                        "config": "8, static, default",
                        "cap_w": None,
                    },
                },
                # a measurement the guard rejected
                {
                    "type": "event",
                    "name": "policy.report",
                    "attrs": {
                        "region": "r",
                        "objective": 0.1,
                        "accepted": False,
                    },
                },
            ],
        )
        stats = CorpusStats()
        assert fold_telemetry_file(path, stats) == []
        assert stats.skipped_unusable == 2


class TestCorpusFaultSite:
    @pytest.mark.parametrize("action", ["torn", "corrupt"])
    def test_damaged_records_are_skipped_never_raised(
        self, offline_result, action
    ):
        plan = FaultPlan(
            specs=(
                FaultSpec(site="surrogate.corpus", action=action),
            ),
            seed=5,
        )
        injector = make_injector(plan, salt="corpus-test")
        stats = CorpusStats()
        records = fold_result(
            offline_result,
            source="cache",
            provenance="p",
            stats=stats,
            faults=injector,
        )
        assert records == []  # every candidate drew the fault
        assert stats.skipped_damaged == REGION_COUNT
        assert any(action in n for n in stats.notes)
        assert len(injector.events) == REGION_COUNT


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path, offline_result):
        stats = CorpusStats()
        records = fold_result(
            offline_result, source="cache", provenance="p", stats=stats
        )
        path = tmp_path / "corpus.json"
        save_corpus(records, stats, path)
        loaded, loaded_stats = load_corpus(path)
        assert loaded == records
        assert loaded_stats.records == stats.records
        assert loaded_stats.notes == stats.notes

    def test_wrong_schema_refuses_to_load(self, tmp_path):
        path = tmp_path / "corpus.json"
        save_corpus([], CorpusStats(), path)
        blob = json.loads(path.read_text())
        blob["schema"] = CORPUS_SCHEMA_VERSION + 1
        path.write_text(json.dumps(blob))
        with pytest.raises(ValueError, match="unsupported schema"):
            load_corpus(path)

    def test_corrupt_file_raises_value_error(self, tmp_path):
        path = tmp_path / "corpus.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="cannot read"):
            load_corpus(path)

    def test_record_json_round_trip(self):
        record = TrainingRecord(
            app="sp.B",
            machine="crill",
            region="y_solve",
            cap_w=None,
            n_threads=32,
            schedule="dynamic",
            chunk=None,
            time_s=0.01,
            energy_j=1.5,
            source="journal",
            provenance="j:abc",
        )
        assert TrainingRecord.from_json(record.to_json()) == record
