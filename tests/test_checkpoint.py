"""Tests for run checkpointing and kill-resume."""

from __future__ import annotations

import pytest

from repro.core.capschedule import CapEvent, CapSchedule
from repro.experiments.cache import result_to_json
from repro.experiments.resumable import (
    RUN_CHECKPOINT_SCHEMA,
    CheckpointError,
    RunCheckpoint,
    SimulatedKill,
    load_run_checkpoint,
    write_run_checkpoint,
)
from repro.experiments.runner import (
    ExperimentSetup,
    run_arcs_online,
    run_strategy,
)
from repro.faults.plan import FaultPlan, FaultSpec
from repro.machine.spec import crill
from repro.util.jsonlog import LogMismatchError, encode
from repro.workloads.synthetic import synthetic_application


# ---------------------------------------------------------------------------
# checkpoint file handling
# ---------------------------------------------------------------------------
class TestCheckpointFile:
    meta = {"strategy": "arcs-online", "seed": 0}

    def test_missing_file_is_friendly(self, tmp_path):
        with pytest.raises(CheckpointError, match="nope.json"):
            load_run_checkpoint(tmp_path / "nope.json")

    def test_empty_file_is_friendly(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_bytes(b"")
        with pytest.raises(CheckpointError, match="missing or empty"):
            load_run_checkpoint(path)

    def test_unreadable_path_is_friendly(self, tmp_path):
        path = tmp_path / "ck.d"
        path.mkdir()
        with pytest.raises(CheckpointError, match="cannot read .*ck.d"):
            load_run_checkpoint(path)

    def test_invalid_json_is_friendly(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("{torn")
        with pytest.raises(CheckpointError, match="ck.json is damaged"):
            load_run_checkpoint(path)

    def test_torn_file_is_refused_untouched(self, tmp_path):
        path = tmp_path / "ck.json"
        write_run_checkpoint(path, self.meta, {"next_run": 2})
        path.write_bytes(path.read_bytes()[:-5])
        before = path.read_bytes()
        with pytest.raises(CheckpointError, match="1 damaged"):
            load_run_checkpoint(path)
        assert path.read_bytes() == before

    def test_schema_mismatch_is_friendly(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_bytes(
            encode(self.meta, RUN_CHECKPOINT_SCHEMA + 1, kind="head")
            + encode({"next_run": 2}, RUN_CHECKPOINT_SCHEMA + 1)
        )
        with pytest.raises(CheckpointError, match="2 foreign"):
            load_run_checkpoint(path)

    def test_non_finite_snapshot_fails_the_write(self, tmp_path):
        path = tmp_path / "ck.json"
        with pytest.raises(ValueError):
            write_run_checkpoint(path, self.meta, {"x": float("inf")})
        assert not path.exists()

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "ck.json"
        blob = {"next_run": 2}
        write_run_checkpoint(path, self.meta, blob)
        assert load_run_checkpoint(path) == blob
        assert RunCheckpoint(path).read_header() == self.meta


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
        for kill in (1, boundary, boundary + 1, total // 2, total - 1):
            ck = tmp_path / f"ck{kill}.json"
            with pytest.raises(SimulatedKill):
                run_arcs_online(
                    app, setup, checkpoint_path=ck, kill_after=kill
                )
            resumed = run_arcs_online(app, setup, resume_from=ck)
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
        resumed = run_arcs_online(app, setup, resume_from=ck)
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
            resumed = run_arcs_online(app, setup, resume_from=ck)
            assert result_to_json(resumed) == expected

    def test_resume_finished_checkpoint_returns_same_result(
        self, tmp_path
    ):
        app, setup = small_app(), small_setup(repeats=1)
        ck = tmp_path / "ck.json"
        full = run_arcs_online(app, setup, checkpoint_path=ck)
        resumed = run_arcs_online(app, setup, resume_from=ck)
        assert result_to_json(resumed) == result_to_json(full)

    def test_mismatched_checkpoint_refused(self, tmp_path):
        app = small_app()
        ck = tmp_path / "ck.json"
        with pytest.raises(SimulatedKill):
            run_arcs_online(
                app,
                small_setup(seed=0),
                checkpoint_path=ck,
                kill_after=3,
            )
        with pytest.raises(LogMismatchError, match="seed"):
            run_arcs_online(
                app, small_setup(seed=1), resume_from=ck
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
        blob = load_run_checkpoint(ck)
        assert blob["next_run"] == 1
        assert len(blob["runs"]) == 1
        assert "active" not in blob
        assert RunCheckpoint(ck).read_header()["strategy"] == "arcs-online"
