"""Integration tests: ARCS under injected faults.

The contract the tentpole promises: under any single-fault plan the
control loop completes without crashing, never publishes NaN, records
what degraded, and stays within a bounded distance of the clean run;
and an interrupted journaled sweep resumes byte-identically.
"""

from __future__ import annotations

import math

import pytest

from repro.experiments.cache import result_to_json
from repro.experiments.journal import SweepJournal
from repro.experiments.parallel import (
    ParallelSweepExecutor,
    SweepTask,
    SweepTaskError,
    _is_fatal,
)
from repro.experiments.runner import (
    ExperimentSetup,
    run_arcs_offline,
    run_arcs_online,
    run_default,
)
from repro.faults import FaultPlan, FaultSpec, make_injector
from repro.machine.spec import crill
from repro.openmp.runtime import OpenMPRuntime
from repro.machine.node import SimulatedNode
from repro.workloads.base import run_application
from repro.workloads.synthetic import synthetic_application


def _app(timesteps: int = 2):
    return synthetic_application(
        timesteps=timesteps, include_tiny=False
    )


def _setup(plan: FaultPlan | None = None, **kwargs) -> ExperimentSetup:
    kwargs.setdefault("cap_w", 85.0)
    kwargs.setdefault("repeats", 1)
    return ExperimentSetup(spec=crill(), fault_plan=plan, **kwargs)


def _single(site: str, action: str, **kwargs) -> FaultPlan:
    return FaultPlan(
        specs=(FaultSpec(site=site, action=action, **kwargs),), seed=5
    )


#: every single-fault plan ARCS-Online must survive; the flag says
#: whether the plan is persistent enough that a degradation note is
#: guaranteed in the result.
SINGLE_FAULT_PLANS = [
    pytest.param(
        _single("rapl.read", "error"), True, id="rapl-read-error"
    ),
    pytest.param(
        _single("rapl.read", "stale", probability=0.2),
        False,
        id="rapl-read-stale",
    ),
    pytest.param(
        _single("rapl.read", "wraparound", start=2, max_fires=1),
        True,
        id="rapl-read-wraparound",
    ),
    pytest.param(
        _single("rapl.cap_write", "reject"), True, id="cap-write-reject"
    ),
    pytest.param(
        _single("ompt.timer_start", "drop", probability=0.3),
        True,
        id="timer-start-drop",
    ),
    pytest.param(
        _single("ompt.timer_stop", "drop", probability=0.3),
        True,
        id="timer-stop-drop",
    ),
    pytest.param(
        _single("measure.noise", "spike", probability=0.2),
        False,
        id="noise-spike",
    ),
]


class TestArcsOnlineUnderFaults:
    @pytest.mark.parametrize(
        "plan, expect_degradation", SINGLE_FAULT_PLANS
    )
    def test_completes_with_recorded_degradation(
        self, plan, expect_degradation
    ):
        clean = run_arcs_online(_app(), _setup())
        faulty = run_arcs_online(_app(), _setup(plan))

        assert math.isfinite(faulty.time_s) and faulty.time_s > 0
        if faulty.energy_j is not None:
            assert math.isfinite(faulty.energy_j)
            assert faulty.energy_j >= 0
        for run in faulty.runs:
            assert math.isfinite(run.time_s)
            assert run.energy_j is None or (
                math.isfinite(run.energy_j) and run.energy_j >= 0
            )
        # bounded regression: a measurement fault may cost retries and
        # degraded configs, but not a runaway
        assert faulty.time_s <= 3.0 * clean.time_s
        if expect_degradation:
            assert faulty.degradations, (
                f"expected a degradation note under {plan}"
            )

    def test_fault_runs_are_deterministic(self):
        plan = _single("measure.noise", "spike", probability=0.3)
        a = run_arcs_online(_app(), _setup(plan))
        b = run_arcs_online(_app(), _setup(plan))
        assert result_to_json(a) == result_to_json(b)

    def test_clean_plan_matches_no_plan(self):
        """An empty plan must not perturb the clean path at all."""
        none = run_arcs_online(_app(), _setup(None))
        empty = run_arcs_online(_app(), _setup(FaultPlan()))
        assert result_to_json(none) == result_to_json(empty)

    def test_persistent_read_errors_degrade_to_time_only(self):
        result = run_default(_app(), _setup(_single("rapl.read", "error")))
        assert result.energy_j is None
        assert math.isfinite(result.time_s)
        assert any(
            "energy read" in note for note in result.degradations
        )

    def test_offline_survives_noise_spikes(self):
        plan = _single("measure.noise", "spike", probability=0.1)
        result = run_arcs_offline(_app(), _setup(plan))
        assert math.isfinite(result.time_s)
        assert result.chosen_configs


class TestCounterWraparoundDuringTuning:
    """Satellite: 32-bit energy-counter wraparound inside an active
    tuning window must never produce negative or non-finite power."""

    def test_preset_counter_near_wrap(self):
        from repro.core.controller import ARCS

        node = SimulatedNode(crill())
        # park every package counter just shy of the 32-bit wrap so the
        # run's deposits roll it over mid-tuning
        for socket in range(node.spec.sockets):
            node.msr.bump_energy_counter(socket, (1 << 32) - (1 << 18))
        runtime = OpenMPRuntime(node, noise_sigma=0.0)
        arcs = ARCS(runtime, strategy="nelder-mead", max_evals=8)
        arcs.attach()
        result = run_application(_app(timesteps=3), runtime)
        arcs.finalize()

        assert result.energy_j is not None
        assert math.isfinite(result.energy_j)
        assert result.energy_j >= 0
        assert math.isfinite(result.time_s) and result.time_s > 0
        derived_power = result.energy_j / result.time_s
        assert math.isfinite(derived_power) and derived_power >= 0

    def test_wraparound_read_fault_is_corrected(self):
        """A read racing the wrap (value one span behind) at the run's
        end read is corrected by whole spans, with a note."""
        plan = _single("rapl.read", "wraparound", start=2, max_fires=1)
        node = SimulatedNode(crill(), faults=make_injector(plan))
        runtime = OpenMPRuntime(node, noise_sigma=0.0)
        result = run_application(_app(), runtime)
        assert result.energy_j is not None
        assert math.isfinite(result.energy_j)
        assert result.energy_j >= 0
        assert any("wrapped" in note for note in result.degraded)


# ---------------------------------------------------------------------------
def _tasks(plan: FaultPlan | None = None) -> list[SweepTask]:
    return [
        SweepTask(
            app=_app(),
            setup=ExperimentSetup(
                spec=crill(), cap_w=85.0, repeats=1, fault_plan=plan
            ),
            strategy=strategy,
        )
        for strategy in ("default", "arcs-online")
    ]


class TestJournaledResume:
    def test_killed_mid_sweep_resume_is_byte_identical(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        tasks = _tasks()
        full = ParallelSweepExecutor(journal=SweepJournal(path)).run(
            tasks
        )
        lines = path.read_text().splitlines(keepends=True)
        # one line per cell
        assert len(lines) == len(tasks)

        # simulate a kill -9 mid-append: first cell intact, second
        # cell torn
        path.write_text(lines[0] + lines[1][: len(lines[1]) // 2])
        resumed = ParallelSweepExecutor(journal=SweepJournal(path)).run(
            tasks
        )

        assert [result_to_json(r) for r in resumed] == [
            result_to_json(r) for r in full
        ]
        # and the journal is whole again
        assert len(SweepJournal(path).load()) == len(tasks)

    def test_resume_skips_completed_cells(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        tasks = _tasks()
        ParallelSweepExecutor(journal=SweepJournal(path)).run(tasks)

        calls = []

        def counting_task(task):
            calls.append(task.label)
            raise AssertionError("resume should not re-run cells")

        resumed = ParallelSweepExecutor(
            journal=SweepJournal(path),
            task_fn=counting_task,
        ).run(tasks)
        assert calls == []
        assert len(resumed) == len(tasks)

    def test_rerun_appends_nothing(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        tasks = _tasks()
        ParallelSweepExecutor(journal=SweepJournal(path)).run(tasks)
        before = path.read_bytes()
        ParallelSweepExecutor(journal=SweepJournal(path)).run(tasks)
        # every cell was a hit: nothing recorded twice
        assert path.read_bytes() == before


# ---------------------------------------------------------------------------
def _fatal_task(task: SweepTask):
    raise ValueError("deterministic bad input")


def _retryable_task(task: SweepTask):
    raise RuntimeError("transient glitch")


class TestErrorClassification:
    def test_classifier(self):
        from concurrent.futures import TimeoutError as FutureTimeout

        from repro.core.history import CorruptHistoryError
        from repro.experiments.runner import TuningDidNotConverge

        assert _is_fatal(ValueError("x"))
        assert _is_fatal(KeyError("x"))
        assert _is_fatal(TuningDidNotConverge("k", 1))
        assert _is_fatal(CorruptHistoryError(__import__("pathlib").Path("p"), "r"))
        assert not _is_fatal(RuntimeError("x"))
        assert not _is_fatal(OSError("x"))
        assert not _is_fatal(FutureTimeout())

    def test_fatal_error_is_not_retried(self):
        calls = []

        def fatal(task):
            calls.append(1)
            raise ValueError("deterministic bad input")

        executor = ParallelSweepExecutor(retries=5, task_fn=fatal)
        with pytest.raises(SweepTaskError) as err:
            executor.run(_tasks()[:1])
        assert len(calls) == 1
        assert err.value.retryable is False
        assert "not retryable" in str(err.value)

    def test_worker_traceback_preserved(self):
        executor = ParallelSweepExecutor(retries=0, task_fn=_fatal_task)
        with pytest.raises(SweepTaskError) as err:
            executor.run(_tasks()[:1])
        assert "_fatal_task" in err.value.worker_traceback
        assert "deterministic bad input" in err.value.worker_traceback
        assert "_fatal_task" in str(err.value)

    def test_retryable_error_still_retried_then_raises(self):
        calls = []

        def flaky(task):
            calls.append(1)
            raise RuntimeError("transient glitch")

        executor = ParallelSweepExecutor(retries=2, task_fn=flaky)
        with pytest.raises(SweepTaskError) as err:
            executor.run(_tasks()[:1])
        assert len(calls) == 3
        assert err.value.retryable is True


class TestWorkerFaults:
    def test_injected_crash_is_retried_to_success(self, tmp_path):
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="sweep.worker", action="crash", max_fires=1
                ),
            ),
            seed=2,
        )
        tasks = _tasks()[:1]
        clean = ParallelSweepExecutor().run(tasks)
        faulty = ParallelSweepExecutor(
            retries=1, faults=make_injector(plan)
        ).run(tasks)
        assert [result_to_json(r) for r in faulty] == [
            result_to_json(r) for r in clean
        ]

    def test_injected_crash_without_retries_raises(self):
        plan = FaultPlan(
            specs=(FaultSpec(site="sweep.worker", action="crash"),),
            seed=2,
        )
        executor = ParallelSweepExecutor(
            retries=0, faults=make_injector(plan)
        )
        with pytest.raises(SweepTaskError, match="injected worker crash"):
            executor.run(_tasks()[:1])

    def test_injected_hang_completes_inline(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="sweep.worker",
                    action="hang",
                    max_fires=1,
                    magnitude=0.05,
                ),
            ),
            seed=2,
        )
        tasks = _tasks()[:1]
        clean = ParallelSweepExecutor().run(tasks)
        hung = ParallelSweepExecutor(
            faults=make_injector(plan)
        ).run(tasks)
        assert [result_to_json(r) for r in hung] == [
            result_to_json(r) for r in clean
        ]
