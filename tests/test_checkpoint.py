"""Tests for session/controller/run checkpointing and kill-resume."""

from __future__ import annotations

import json

import pytest

from repro.core.checkpoint import CheckpointError
from repro.experiments.cache import result_to_json
from repro.experiments.resumable import (
    RUN_CHECKPOINT_SCHEMA,
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
from repro.harmony.engine import make_strategy
from repro.harmony.session import (
    MeasurementGuard,
    SessionReplayError,
    TuningSession,
)
from repro.harmony.space import Parameter, SearchSpace
from repro.machine.spec import crill
from repro.util.jsonlog import LogMismatchError, encode
from repro.workloads.synthetic import synthetic_application


# ---------------------------------------------------------------------------
# session snapshot / replay
# ---------------------------------------------------------------------------
def space3():
    return SearchSpace(
        parameters=(
            Parameter("a", (0, 1, 2, 3)),
            Parameter("b", (0, 1, 2)),
        )
    )


def nm_session(space, seed=11):
    return TuningSession(
        space,
        make_strategy("nelder-mead", space, max_evals=30, seed=seed),
        guard=MeasurementGuard(),
        strategy_factory=lambda: make_strategy(
            "nelder-mead", space, max_evals=30, seed=seed + 1
        ),
    )


def objective(point):
    return 1.0 + 0.3 * point["a"] + 0.7 * point["b"]


def suggested(session):
    """The session's next suggestion, decoded."""
    return session.space.decode(session.suggest())


class TestSessionSnapshot:
    def test_midsearch_roundtrip_continues_identically(self):
        space = space3()
        original = nm_session(space)
        for _ in range(6):
            original.report(objective(suggested(original)))

        restored = nm_session(space)
        restored.restore(
            json.loads(json.dumps(original.snapshot()))
        )
        for _ in range(30):
            if original.converged or original.failed:
                break
            original.report(objective(suggested(original)))
            restored.report(objective(suggested(restored)))
        assert restored.best_point() == original.best_point()
        assert restored.best_value() == original.best_value()
        assert restored.search_values == original.search_values
        assert restored.stats == original.stats

    def test_outstanding_candidate_survives(self):
        space = space3()
        original = nm_session(space)
        original.report(objective(suggested(original)))
        outstanding = original.suggest()   # asked, not yet reported
        restored = nm_session(space)
        restored.restore(original.snapshot())
        assert restored.suggest() == outstanding

    def test_tampered_tell_sequence_raises_replay_error(self):
        space = space3()
        original = nm_session(space, seed=11)
        for _ in range(4):
            original.report(objective(suggested(original)))
        blob = original.snapshot()
        # rewrite the first tell to a point the strategy never asked
        first = blob["events"][0][1]
        blob["events"][0][1] = [
            (i + 1) % len(p.values)
            for i, p in zip(first, space.parameters)
        ]
        fresh = nm_session(space, seed=11)
        with pytest.raises(SessionReplayError, match="diverged"):
            fresh.restore(blob)

    def test_tampered_best_raises_replay_error(self):
        space = space3()
        original = nm_session(space)
        for _ in range(4):
            original.report(objective(suggested(original)))
        blob = original.snapshot()
        blob["best"][1] = blob["best"][1] / 2
        fresh = nm_session(space)
        with pytest.raises(SessionReplayError, match="best"):
            fresh.restore(blob)


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
        total = sum(r["total_region_calls"] for r in expected["runs"])
        for kill in (1, total // 2, total - 1):
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

    def test_checkpoint_written_every_invocation(self, tmp_path):
        app, setup = small_app(), small_setup(repeats=1)
        ck = tmp_path / "ck.json"
        with pytest.raises(SimulatedKill):
            run_arcs_online(
                app, setup, checkpoint_path=ck, kill_after=5
            )
        blob = load_run_checkpoint(ck)
        assert blob["next_run"] == 0
        assert blob["active"]["progress"]["invocations"] == 5
        assert RunCheckpoint(ck).read_header()["strategy"] == "arcs-online"
