"""Tests for run checkpointing and kill-resume.

An ARCS-Online checkpoint is a :class:`~repro.experiments.journal.
SweepJournal` holding one record per completed repeat; a run against a
log that already holds repeats ``0..k-1`` of the same run replays them
and runs from repeat ``k``.
"""

from __future__ import annotations

import pytest

from repro.core.capschedule import CapEvent, CapSchedule
from repro.experiments.cache import result_to_json
from repro.experiments.journal import JOURNAL_SCHEMA_VERSION, SweepJournal
from repro.experiments.runner import (
    ExperimentSetup,
    SimulatedKill,
    run_arcs_online,
    run_strategy,
)
from repro.faults.plan import FaultPlan, FaultSpec
from repro.machine.spec import crill
from repro.util.jsonlog import encode
from repro.workloads.synthetic import synthetic_application


# ---------------------------------------------------------------------------
# checkpoint file handling
# ---------------------------------------------------------------------------
class TestCheckpointFile:
    """What a run does with whatever it finds at ``checkpoint_path``:
    anything that is not a verified repeat record of this run is never
    replayed, and damage is quarantined, not refused."""

    @pytest.fixture(scope="class")
    def expected(self):
        return result_to_json(run_arcs_online(small_app(), small_setup()))

    def _run(self, path):
        return result_to_json(
            run_arcs_online(small_app(), small_setup(), checkpoint_path=path)
        )

    def test_missing_file_is_friendly(self, tmp_path, expected):
        path = tmp_path / "nope.json"
        assert self._run(path) == expected
        records = SweepJournal(path).scan().records
        assert [r["repeat"] for r in records] == [0, 1]

    def test_empty_file_is_friendly(self, tmp_path, expected):
        path = tmp_path / "ck.json"
        path.write_bytes(b"")
        assert self._run(path) == expected
        assert len(SweepJournal(path).scan().records) == 2

    def test_unreadable_path_is_friendly(self, tmp_path):
        path = tmp_path / "ck.d"
        path.mkdir()
        with pytest.raises(OSError, match="ck.d"):
            self._run(path)

    def test_invalid_json_is_friendly(self, tmp_path, expected):
        path = tmp_path / "ck.json"
        path.write_text("{torn")
        assert self._run(path) == expected
        quarantined = tmp_path / "quarantine" / "ck.json.0"
        assert quarantined.read_text() == "{torn"

    def test_torn_file_is_refused_untouched(self, tmp_path, expected):
        # a torn last repeat record is never replayed: the file is
        # quarantined whole (untouched, for post-mortem) and the torn
        # repeat re-runs
        path = tmp_path / "ck.json"
        self._run(path)
        torn = path.read_bytes()[:-5]
        path.write_bytes(torn)
        assert self._run(path) == expected
        assert (tmp_path / "quarantine" / "ck.json.0").read_bytes() == torn
        scan = SweepJournal(path).scan()
        assert scan.damaged == 0
        assert [r["repeat"] for r in scan.records] == [0, 1]

    def test_schema_mismatch_is_friendly(self, tmp_path, expected):
        path = tmp_path / "ck.json"
        self._run(path)
        records = SweepJournal(path).scan().records
        path.write_bytes(
            b"".join(encode(r, JOURNAL_SCHEMA_VERSION + 1) for r in records)
        )
        assert self._run(path) == expected
        assert SweepJournal(path).scan().foreign == 0

    def test_non_finite_snapshot_fails_the_write(self, tmp_path):
        path = tmp_path / "ck.json"
        with pytest.raises(ValueError):
            SweepJournal(path).append_repeat("d", 0, {"x": float("inf")})
        assert not path.exists()

    def test_roundtrip(self, tmp_path):
        journal = SweepJournal(tmp_path / "ck.json")
        journal.append_repeat("d", 0, {"run": 1})
        journal.append_repeat("other", 0, {"run": 2})
        journal.append_repeat("d", 1, {"run": 3})
        assert journal.repeats("d") == [
            {"digest": "d", "repeat": 0, "run": 1},
            {"digest": "d", "repeat": 1, "run": 3},
        ]
        # only the contiguous prefix 0..k-1 is replayed
        assert journal.repeats("nothing") == []
        gap = SweepJournal(tmp_path / "gap.json")
        gap.append_repeat("d", 1, {"run": 3})
        assert gap.repeats("d") == []
        # repeat records are not cells
        assert journal.load() == {}


# ---------------------------------------------------------------------------
# kill / resume equivalence
# ---------------------------------------------------------------------------
def small_setup(**kw):
    kw.setdefault("spec", crill())
    kw.setdefault("cap_w", 85.0)
    kw.setdefault("repeats", 2)
    kw.setdefault("online_max_evals", 10)
    return ExperimentSetup(**kw)


def small_app():
    return synthetic_application(timesteps=4, include_tiny=False)


class TestKillResume:
    def test_resume_is_byte_identical(self, tmp_path):
        app, setup = small_app(), small_setup()
        expected = result_to_json(run_arcs_online(app, setup))
        calls = [r["total_region_calls"] for r in expected["runs"]]
        total = sum(calls)
        # the last invocation of repeat 0 (killed before its boundary
        # write) and the first of repeat 1 (killed right after it)
        boundary = calls[0]
        # distinct points: a second run against one log resumes it
        for kill in sorted({1, boundary, boundary + 1, total // 2, total - 1}):
            ck = tmp_path / f"ck{kill}.json"
            with pytest.raises(SimulatedKill):
                run_arcs_online(
                    app, setup, checkpoint_path=ck, kill_after=kill
                )
            resumed = run_arcs_online(app, setup, checkpoint_path=ck)
            assert result_to_json(resumed) == expected

    def test_resume_with_faults_is_byte_identical(self, tmp_path):
        app = small_app()
        setup = small_setup(
            fault_plan=FaultPlan(
                specs=(
                    FaultSpec(
                        site="region.exec",
                        action="crash",
                        probability=0.1,
                        max_fires=3,
                    ),
                ),
                seed=3,
            )
        )
        expected = result_to_json(run_arcs_online(app, setup))
        ck = tmp_path / "ck.json"
        with pytest.raises(SimulatedKill):
            run_arcs_online(
                app, setup, checkpoint_path=ck, kill_after=7
            )
        resumed = run_arcs_online(app, setup, checkpoint_path=ck)
        assert result_to_json(resumed) == expected

    def test_resume_folds_timer_dropouts(self, tmp_path):
        # dropouts are summed over the replayed repeats and the re-run
        # ones; the note that reports them must come out the same
        app = small_app()
        setup = small_setup(
            fault_plan=FaultPlan(
                specs=(
                    FaultSpec(
                        site="ompt.timer_stop",
                        action="drop",
                        probability=0.5,
                    ),
                ),
                seed=5,
            )
        )
        expected = result_to_json(run_arcs_online(app, setup))
        assert any("dropped" in note for note in expected["degradations"])
        boundary = expected["runs"][0]["total_region_calls"]
        ck = tmp_path / "ck.json"
        with pytest.raises(SimulatedKill):
            run_arcs_online(
                app, setup, checkpoint_path=ck, kill_after=boundary + 1
            )
        (record,) = SweepJournal(ck).scan().records
        assert record["dropouts"] > 0
        resumed = run_arcs_online(app, setup, checkpoint_path=ck)
        assert result_to_json(resumed) == expected

    def test_resume_with_cap_schedule_is_byte_identical(self, tmp_path):
        app = small_app()
        setup = small_setup(
            cap_schedule=CapSchedule(
                events=(CapEvent(5, 70.0), CapEvent(12, 55.0)),
            )
        )
        expected = result_to_json(run_arcs_online(app, setup))
        assert expected["cap_changes"]
        boundary = expected["runs"][0]["total_region_calls"]
        for kill in (boundary, boundary + 6):
            ck = tmp_path / f"ck{kill}.json"
            with pytest.raises(SimulatedKill):
                run_arcs_online(
                    app, setup, checkpoint_path=ck, kill_after=kill
                )
            resumed = run_arcs_online(app, setup, checkpoint_path=ck)
            assert result_to_json(resumed) == expected

    def test_resume_finished_checkpoint_returns_same_result(
        self, tmp_path
    ):
        app, setup = small_app(), small_setup(repeats=1)
        ck = tmp_path / "ck.json"
        full = run_arcs_online(app, setup, checkpoint_path=ck)
        resumed = run_arcs_online(app, setup, checkpoint_path=ck)
        assert result_to_json(resumed) == result_to_json(full)

    def test_changed_seed_misses_by_construction(self, tmp_path):
        # a changed setup digests differently: none of the log's
        # repeats is replayed, and the output is byte-equal to a run
        # against a fresh log
        app = small_app()
        ck = tmp_path / "ck.json"
        run_arcs_online(app, small_setup(seed=0), checkpoint_path=ck)
        before = SweepJournal(ck).scan().records
        other = result_to_json(
            run_arcs_online(app, small_setup(seed=1), checkpoint_path=ck)
        )
        fresh = result_to_json(
            run_arcs_online(
                app, small_setup(seed=1), checkpoint_path=tmp_path / "f"
            )
        )
        assert other == fresh
        after = SweepJournal(ck).scan().records
        assert after[: len(before)] == before
        assert len(after) == 2 * len(before)
        assert {r["digest"] for r in after[len(before):]}.isdisjoint(
            {r["digest"] for r in before}
        )

    def test_kill_after_requires_checkpoint_path(self):
        with pytest.raises(ValueError, match="checkpoint_path"):
            run_arcs_online(
                small_app(), small_setup(), kill_after=5
            )

    def test_checkpoint_rejected_for_other_strategies(self, tmp_path):
        with pytest.raises(ValueError, match="arcs-online"):
            run_strategy(
                "default",
                small_app(),
                small_setup(),
                checkpoint_path=tmp_path / "ck.json",
            )

    def test_kill_mid_repeat_leaves_boundary_checkpoint(self, tmp_path):
        app, setup = small_app(), small_setup(repeats=2)
        per_run = app.timesteps * app.calls_per_step()
        ck = tmp_path / "ck.json"
        with pytest.raises(SimulatedKill):
            run_arcs_online(
                app, setup, checkpoint_path=ck,
                kill_after=per_run + per_run // 2,
            )
        (record,) = SweepJournal(ck).scan().records
        assert record["repeat"] == 0
        assert set(record) == {
            "digest", "repeat", "run", "configs", "overhead",
            "cap_changes", "fallbacks", "dropouts",
        }
