"""Tests for the process-pool sweep executor and its failure modes,
plus regression tests for the runner/history bugs that parallel
execution would amplify."""

from __future__ import annotations

import functools
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
from tests.test_jsonlog import legacy_head_line


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
# Scratch directories are bound with functools.partial, which pickles
# as long as the function it wraps is module-level.
def _marking_task(scratch: str, task: SweepTask):
    """Record each invocation as a file under ``scratch``."""
    scratch = Path(scratch)
    scratch.mkdir(parents=True, exist_ok=True)
    (scratch / f"call-{task.label.replace('/', '_')}-{time.time_ns()}"
     ).touch()
    return run_sweep_task(task)


def _flaky_task(scratch: str, task: SweepTask):
    """Fail the first attempt per task, succeed afterwards."""
    marker = Path(scratch) / f"marker-{task.label.replace('/', '_')}"
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
        marking = functools.partial(_marking_task, scratch)
        tasks = [
            _task("default", cap_w=85.0),
            _task("default", cap_w=70.0),
        ]
        first = ParallelSweepExecutor(
            max_workers=1, journal=cache, task_fn=marking
        ).run(tasks)
        calls_after_first = len(list(Path(scratch).iterdir()))
        assert calls_after_first == 2

        second = ParallelSweepExecutor(
            max_workers=1, journal=cache, task_fn=marking
        ).run(tasks)
        assert len(list(Path(scratch).iterdir())) == calls_after_first
        assert second == first

    def test_killed_offline_cell_recomputes_cold(self, tmp_path):
        """A sweep killed after its offline cell computed, but before
        the cell reached the journal, recomputes that cell on the
        second run exactly as a cold run does."""

        def killed_after_offline(task):
            result = run_sweep_task(task)
            if task.strategy == "arcs-offline":
                raise _Killed(task.label)
            return result

        journal = SweepJournal.in_dir(tmp_path / "cache")
        with pytest.raises(_Killed):
            _offline_cell(1, ParallelSweepExecutor(
                journal=journal, task_fn=killed_after_offline
            ))
        executor = ParallelSweepExecutor(journal=journal)
        resumed = _offline_cell(1, executor)
        assert (executor.hits, executor.misses) == (2, 1)
        assert resumed == _offline_cell(1, ParallelSweepExecutor())

    def test_changed_repeats_recomputes_offline_cell_cold(self, tmp_path):
        """A store that holds the repeats=1 sweep gives the repeats=2
        sweep the offline cell a cold repeats=2 run reports."""
        journal = SweepJournal.in_dir(tmp_path / "cache")
        _offline_cell(1, ParallelSweepExecutor(journal=journal))
        warm = _offline_cell(2, ParallelSweepExecutor(journal=journal))
        assert warm == _offline_cell(2, ParallelSweepExecutor())


class _Killed(Exception):
    """Stands in for a kill: outside every class the executor retries
    or wraps, so it propagates raw."""


def _offline_cell(repeats: int, executor: ParallelSweepExecutor) -> dict:
    """The JSON of the 85 W arcs-offline cell of a synthetic-app sweep
    on Crill."""
    sweep = power_sweep(
        synthetic_application(timesteps=10), crill(), (85.0,),
        repeats=repeats, executor=executor,
    )
    return result_to_json(sweep.results[("85W", "arcs-offline")])


class TestFailureHandling:
    def test_retry_recovers_from_transient_failure(self, tmp_path):
        tasks = [_task("default", cap_w=cap) for cap in (85.0, 70.0)]
        results = ParallelSweepExecutor(
            max_workers=2, retries=1,
            task_fn=functools.partial(_flaky_task, str(tmp_path)),
        ).run(tasks)
        assert [r.cap_w for r in results] == [85.0, 70.0]

    def test_retry_recovers_inline_too(self, tmp_path):
        results = ParallelSweepExecutor(
            max_workers=1, retries=1,
            task_fn=functools.partial(_flaky_task, str(tmp_path)),
        ).run([_task("default")])
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

    def test_missing_and_empty_journals_have_no_header(self, tmp_path):
        journal = self._journal(tmp_path)
        assert journal.load() == {}
        journal.clear()
        assert journal.load() == {}

    def test_header_is_not_a_cell(self, tmp_path):
        # a journal written while logs began with a header line: the
        # header is damage, quarantined on load, and the cells after
        # it still replay
        journal = self._journal(tmp_path)
        head = legacy_head_line({"sweep": "abc123"}, journal.schema)
        journal.path.write_bytes(head)
        task = _task()
        digest = ParallelSweepExecutor._digest(task)
        journal.append(digest, task.label, run_sweep_task(task))
        executor = ParallelSweepExecutor(journal=journal, task_fn=_never)
        executor.run([task])
        assert executor.hits == 1
        quarantined = tmp_path / "quarantine" / "journal.jsonl.0"
        assert quarantined.read_bytes().startswith(head)
        assert head not in journal.path.read_bytes()
        assert list(journal.load()) == [digest]

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
