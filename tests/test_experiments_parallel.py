"""Tests for the process-pool sweep executor and its failure modes,
plus regression tests for the runner/history bugs that parallel
execution would amplify."""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

import repro.experiments.runner as runner_mod
from repro.core.controller import ARCS
from repro.core.history import (
    CorruptHistoryError,
    HistoryStore,
    experiment_key,
)
from repro.core.policy import MissingRegionConfigError
from repro.experiments.cache import result_to_json
from repro.experiments.figures import power_sweep
from repro.experiments.journal import SweepJournal
from repro.experiments.parallel import (
    ParallelSweepExecutor,
    SweepTask,
    SweepTaskError,
    run_sweep_task,
)
from repro.experiments.runner import (
    ExperimentSetup,
    TuningDidNotConverge,
    fresh_runtime,
    run_arcs_offline,
    run_application,
)
from repro.machine.spec import crill, minotaur
from repro.openmp.types import OMPConfig
from repro.workloads.synthetic import synthetic_application


def _app():
    return synthetic_application(timesteps=2, include_tiny=False)


def _task(strategy="default", cap_w=85.0, seed=0, **kwargs) -> SweepTask:
    return SweepTask(
        app=_app(),
        setup=ExperimentSetup(
            spec=crill(), cap_w=cap_w, repeats=1, seed=seed
        ),
        strategy=strategy,
        **kwargs,
    )


def _encode_sweep(sweep) -> str:
    return json.dumps(
        {
            f"{label}/{strategy}": result_to_json(result)
            for (label, strategy), result in sorted(
                sweep.results.items()
            )
        },
        sort_keys=True,
    )


# --- injectable task functions (module-level: must pickle) -----------------
# Scratch paths ride in ``history_path``, which run_sweep_task ignores
# for non-offline strategies.
def _marking_task(task: SweepTask):
    """Record each invocation as a file under the scratch dir."""
    scratch = Path(task.history_path)
    scratch.mkdir(parents=True, exist_ok=True)
    (scratch / f"call-{task.label.replace('/', '_')}-{time.time_ns()}"
     ).touch()
    return run_sweep_task(task)


def _flaky_task(task: SweepTask):
    """Fail the first attempt per task, succeed afterwards."""
    marker = Path(task.history_path)
    marker.parent.mkdir(parents=True, exist_ok=True)
    if not marker.exists():
        marker.touch()
        raise RuntimeError("injected first-attempt failure")
    return run_sweep_task(task)


def _always_failing_task(task: SweepTask):
    raise RuntimeError("injected permanent failure")


def _slow_task(task: SweepTask):
    time.sleep(8.0)
    return run_sweep_task(task)


# ---------------------------------------------------------------------------
class TestExecutorBasics:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ParallelSweepExecutor(max_workers=0)
        with pytest.raises(ValueError):
            ParallelSweepExecutor(retries=-1)

    def test_serial_executes_in_order(self):
        tasks = [
            _task("default", cap_w=85.0),
            _task("default", cap_w=70.0),
            _task("default", cap_w=None),
        ]
        results = ParallelSweepExecutor(max_workers=1).run(tasks)
        assert [r.cap_w for r in results] == [85.0, 70.0, None]

    def test_pool_results_align_with_input_order(self):
        tasks = [
            _task("default", cap_w=cap) for cap in (55.0, 70.0, 85.0)
        ]
        results = ParallelSweepExecutor(max_workers=2).run(tasks)
        assert [r.cap_w for r in results] == [55.0, 70.0, 85.0]

    def test_parallel_equals_serial_bit_for_bit(self):
        """The acceptance property: a pooled sweep at a fixed seed is
        byte-identical to the strictly-serial path."""
        app = _app()
        caps = (85.0, 115.0)
        serial = power_sweep(app, crill(), caps, repeats=1, seed=3)
        parallel = power_sweep(
            app, crill(), caps, repeats=1, seed=3,
            executor=ParallelSweepExecutor(max_workers=2),
        )
        assert _encode_sweep(parallel) == _encode_sweep(serial)


class TestCacheIntegration:
    def test_second_run_executes_nothing(self, tmp_path):
        cache = SweepJournal.in_dir(tmp_path / "cache")
        scratch = str(tmp_path / "calls")
        tasks = [
            _task("default", cap_w=85.0, history_path=scratch),
            _task("default", cap_w=70.0, history_path=scratch),
        ]
        first = ParallelSweepExecutor(
            max_workers=1, journal=cache, task_fn=_marking_task
        ).run(tasks)
        calls_after_first = len(list(Path(scratch).iterdir()))
        assert calls_after_first == 2

        second = ParallelSweepExecutor(
            max_workers=1, journal=cache, task_fn=_marking_task
        ).run(tasks)
        assert len(list(Path(scratch).iterdir())) == calls_after_first
        assert second == first

    def test_offline_cells_share_tuned_history(self, tmp_path):
        """Exhaustive tuning happens once per (app, machine, cap):
        clearing cached *results* but keeping the tuned history must
        yield a re-measured sweep with zero tuning runs."""
        cache = SweepJournal.in_dir(tmp_path / "cache")
        app = _app()
        first = power_sweep(
            app, crill(), (85.0,), repeats=1,
            executor=ParallelSweepExecutor(journal=cache),
        )
        assert first.results[("85W", "arcs-offline")].tuning_runs >= 1

        cache.path.unlink()   # results only
        rerun = power_sweep(
            app, crill(), (85.0,), repeats=1,
            executor=ParallelSweepExecutor(journal=cache),
        )
        offline = rerun.results[("85W", "arcs-offline")]
        assert offline.tuning_runs == 0
        assert offline.time_s == (
            first.results[("85W", "arcs-offline")].time_s
        )


class TestFailureHandling:
    def test_retry_recovers_from_transient_failure(self, tmp_path):
        tasks = [
            _task(
                "default", cap_w=cap,
                history_path=str(tmp_path / f"marker-{cap:g}"),
            )
            for cap in (85.0, 70.0)
        ]
        results = ParallelSweepExecutor(
            max_workers=2, retries=1, task_fn=_flaky_task
        ).run(tasks)
        assert [r.cap_w for r in results] == [85.0, 70.0]

    def test_retry_recovers_inline_too(self, tmp_path):
        task = _task(
            "default", history_path=str(tmp_path / "marker")
        )
        results = ParallelSweepExecutor(
            max_workers=1, retries=1, task_fn=_flaky_task
        ).run([task])
        assert results[0].strategy == "default"

    def test_exhausted_retries_raise_with_context(self):
        tasks = [_task("default", cap_w=85.0),
                 _task("default", cap_w=70.0)]
        with pytest.raises(SweepTaskError) as err:
            ParallelSweepExecutor(
                max_workers=2, retries=1, task_fn=_always_failing_task
            ).run(tasks)
        assert err.value.attempts == 2
        assert "injected permanent failure" in str(err.value)

    def test_timeout_raises_sweep_task_error(self):
        tasks = [_task("default", cap_w=85.0),
                 _task("default", cap_w=70.0)]
        t0 = time.monotonic()
        with pytest.raises(SweepTaskError) as err:
            ParallelSweepExecutor(
                max_workers=2, timeout_s=0.5, retries=0,
                task_fn=_slow_task,
            ).run(tasks)
        assert "timed out" in str(err.value)
        # must not have blocked for the task's full 8 s sleep
        assert time.monotonic() - t0 < 6.0


# ---------------------------------------------------------------------------
class TestBugfixRegressions:
    """One regression test per bug this PR fixes in the layers the
    parallel harness leans on."""

    def test_offline_nonconvergence_is_a_clear_error(self, monkeypatch):
        """(1) run_arcs_offline used to raise an opaque KeyError from
        history.load when tuning never converged."""
        monkeypatch.setattr(runner_mod, "MAX_TUNING_RUNS", 0)
        setup = ExperimentSetup(spec=crill(), repeats=1)
        with pytest.raises(TuningDidNotConverge) as err:
            run_arcs_offline(_app(), setup)
        assert err.value.runs_used == 0
        assert "did not converge" in str(err.value)
        assert experiment_key(
            "synthetic", "crill", None, "mixed"
        ) == err.value.key

    def test_replay_missing_region_fails_loudly(self):
        """(1b) replay mode silently skipped regions with no saved
        configuration."""
        app = _app()
        history = HistoryStore()
        history.save("k", {"not_a_region": OMPConfig(4)})
        runtime = fresh_runtime(
            ExperimentSetup(spec=crill(), repeats=1)
        )
        arcs = ARCS(
            runtime, history=history, history_key="k", replay=True
        )
        arcs.attach()
        with pytest.raises(MissingRegionConfigError) as err:
            run_application(app, runtime)
        assert "no configuration" in str(err.value)

    def test_cap_on_noncapping_machine_rejected(self):
        """(2) a cap on Minotaur was silently ignored and the result
        reported as capped."""
        with pytest.raises(ValueError, match="power-capping"):
            ExperimentSetup(spec=minotaur(), cap_w=85.0)

    def test_zero_repeats_rejected(self):
        """(4) repeats=0 used to crash later with IndexError in
        _summarize."""
        with pytest.raises(ValueError, match="repeats"):
            ExperimentSetup(spec=crill(), repeats=0)

    def test_corrupt_history_file_names_the_path(self, tmp_path):
        """(3) a half-written history file used to surface as a raw
        JSONDecodeError with no path."""
        path = tmp_path / "history.jsonl"
        HistoryStore(path).save("k", {"r": OMPConfig(4)})
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(CorruptHistoryError) as err:
            HistoryStore(path)
        assert str(path) in str(err.value)

    def test_history_persist_is_atomic(self, tmp_path, monkeypatch):
        """(3) a crash mid-write must leave the previous file intact."""
        path = tmp_path / "history.json"
        store = HistoryStore(path)
        store.save("k", {"r": OMPConfig(4)})
        before = path.read_text()

        import repro.util.atomicio as atomicio_mod

        def exploding_replace(src, dst):
            raise OSError("injected crash before replace")

        monkeypatch.setattr(
            atomicio_mod.os, "replace", exploding_replace
        )
        with pytest.raises(OSError):
            store.save("k2", {"r": OMPConfig(8)})
        assert path.read_text() == before
        assert list(tmp_path.glob("*.tmp")) == []


def _never(task):
    raise AssertionError(f"{task.label} re-ran instead of being reused")


class TestJournalHeader:
    """The sweep journal has no header: its records are
    content-addressed, so a changed setup misses by construction and
    running again against the same journal is the resume."""

    def _journal(self, tmp_path):
        return SweepJournal(tmp_path / "journal.jsonl")

    def test_roundtrip(self, tmp_path):
        journal = self._journal(tmp_path)
        task = _task()
        result = run_sweep_task(task)
        digest = ParallelSweepExecutor._digest(task)
        journal.append(digest, task.label, result)
        assert journal.load() == {digest: result}
        assert journal.read_header() is None

    def test_missing_and_empty_journals_have_no_header(self, tmp_path):
        journal = self._journal(tmp_path)
        assert journal.read_header() is None
        assert journal.load() == {}
        journal.clear()
        assert journal.read_header() is None
        assert journal.load() == {}

    def test_header_is_not_a_cell(self, tmp_path):
        # a journal written before records were content-addressed
        # starts with a sweep header: it is neither a cell nor a bar
        # to reusing the cells after it
        journal = self._journal(tmp_path)
        journal.write_header({"sweep": "abc123"})
        task = _task()
        digest = ParallelSweepExecutor._digest(task)
        journal.append(digest, task.label, run_sweep_task(task))
        assert list(journal.load()) == [digest]
        executor = ParallelSweepExecutor(journal=journal, task_fn=_never)
        executor.run([task])
        assert executor.hits == 1
        assert journal.read_header() == {"sweep": "abc123"}

    def test_changed_seed_misses_by_construction(self, tmp_path):
        journal = self._journal(tmp_path)
        ParallelSweepExecutor(journal=journal).run([_task(seed=0)])
        other = [_task(strategy="default", seed=1)]
        executor = ParallelSweepExecutor(journal=journal)
        reused = executor.run(other)
        assert (executor.hits, executor.misses) == (0, 1)
        fresh = ParallelSweepExecutor(
            journal=self._journal(tmp_path / "fresh")
        ).run(other)
        assert result_to_json(reused[0]) == result_to_json(fresh[0])
        assert len(journal.load()) == 2

    def test_executor_resumes_matching_journal(self, tmp_path):
        journal = self._journal(tmp_path)
        tasks = [_task(strategy="default", seed=0)]
        first = ParallelSweepExecutor(journal=journal).run(tasks)
        resumed = ParallelSweepExecutor(
            journal=journal, task_fn=_never
        ).run([_task(strategy="default", seed=0)])
        assert result_to_json(resumed[0]) == result_to_json(first[0])
