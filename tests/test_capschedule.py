"""Tests for dynamic power-cap schedules (core/capschedule.py)."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.capschedule import (
    CapEvent,
    CapSchedule,
    CapScheduleApplier,
    CapScheduleError,
    cap_label,
    load_cap_schedule,
)
from repro.experiments.runner import ExperimentSetup, run_arcs_online
from repro.faults.plan import FaultPlan, FaultSpec
from repro.machine.node import SimulatedNode
from repro.machine.spec import crill, minotaur
from repro.faults.inject import make_injector
from repro.openmp.runtime import OpenMPRuntime
from repro.workloads.synthetic import synthetic_application


def sched(*events, hysteresis=0):
    return CapSchedule(
        events=tuple(CapEvent(n, cap) for n, cap in events),
        hysteresis_invocations=hysteresis,
    )


class TestCapScheduleValidation:
    def test_events_must_increase(self):
        with pytest.raises(CapScheduleError, match="increasing"):
            sched((5, 70.0), (5, 55.0))

    def test_invocation_must_be_positive(self):
        with pytest.raises(CapScheduleError, match=">= 1"):
            CapEvent(0, 70.0)

    def test_cap_must_be_positive_or_null(self):
        with pytest.raises(CapScheduleError, match="> 0 or null"):
            CapEvent(5, -1.0)
        CapEvent(5, None)  # uncapped is fine

    def test_negative_hysteresis_rejected(self):
        with pytest.raises(CapScheduleError, match="hysteresis"):
            sched((5, 70.0), hysteresis=-1)

    def test_empty_schedule_is_falsy(self):
        assert not CapSchedule()
        assert sched((5, 70.0))

    def test_unknown_fields_rejected(self):
        with pytest.raises(CapScheduleError, match="unknown"):
            CapSchedule.from_json({"events": [], "typo": 1})
        with pytest.raises(CapScheduleError, match="unknown"):
            CapSchedule.from_json(
                {"events": [{"after_region_invocations": 1, "w": 9}]}
            )


class TestCapScheduleJson:
    def test_roundtrip(self):
        schedule = sched((5, 70.0), (9, None), hysteresis=3)
        assert CapSchedule.from_json(schedule.to_json()) == schedule

    def test_fingerprint_distinguishes_schedules(self):
        a = sched((5, 70.0))
        b = sched((5, 55.0))
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() == sched((5, 70.0)).fingerprint()

    def test_load_missing_file_names_path(self, tmp_path):
        with pytest.raises(CapScheduleError, match="missing.json"):
            load_cap_schedule(tmp_path / "missing.json")

    def test_load_invalid_json_names_path(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(CapScheduleError, match="bad.json"):
            load_cap_schedule(path)

    def test_load_example_file(self):
        example = (
            Path(__file__).resolve().parent.parent
            / "examples"
            / "capschedule.json"
        )
        schedule = load_cap_schedule(example)
        assert schedule.events[0].cap_w == 70.0
        assert schedule.events[-1].cap_w is None

    def test_cap_label(self):
        assert cap_label(None) == "tdp"
        assert cap_label(55.0) == "55W"


def capped_runtime(cap_w=85.0, plan=None):
    node = SimulatedNode(crill(), faults=make_injector(plan))
    runtime = OpenMPRuntime(node, noise_sigma=0.0)
    if cap_w is not None:
        node.set_power_cap(cap_w)
        node.settle_after_cap()
    return runtime


class TestCapScheduleApplier:
    def test_applies_due_event(self):
        runtime = capped_runtime(85.0)
        applier = CapScheduleApplier(sched((5, 55.0)))
        applier.on_invocation(4, runtime)
        assert runtime.node.effective_cap_w(0) == 85.0
        applier.on_invocation(5, runtime)
        assert runtime.node.effective_cap_w(0) == 55.0
        assert applier.log == [
            "invocation 5: power cap 85W -> 55W"
        ]

    def test_thrash_coalesces_to_latest_target(self):
        # both events fall due between two consecutive observations:
        # only the latest is applied, the intermediate flip vanishes
        runtime = capped_runtime(85.0)
        applier = CapScheduleApplier(sched((5, 70.0), (6, 55.0)))
        applier.on_invocation(7, runtime)
        assert runtime.node.effective_cap_w(0) == 55.0
        assert len(applier.log) == 1

    def test_hysteresis_defers_then_applies(self):
        runtime = capped_runtime(85.0)
        applier = CapScheduleApplier(
            sched((2, 70.0), (4, 55.0), hysteresis=5)
        )
        for n in range(1, 10):
            applier.on_invocation(n, runtime)
        assert applier.log == [
            "invocation 2: power cap 85W -> 70W",
            # n=4..6 deferred (within 5 invocations of the change at 2)
            "invocation 7: power cap 70W -> 55W",
        ]

    def test_flip_back_to_current_cap_is_noop(self):
        runtime = capped_runtime(85.0)
        applier = CapScheduleApplier(sched((3, 85.0)))
        applier.on_invocation(3, runtime)
        assert applier.log == []
        assert runtime.node.effective_cap_w(0) == 85.0

    def test_rejected_write_degrades_and_moves_on(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="rapl.cap_write",
                    action="reject",
                    probability=1.0,
                ),
            ),
            seed=0,
        )
        node = SimulatedNode(crill(), faults=make_injector(plan))
        runtime = OpenMPRuntime(node, noise_sigma=0.0)
        applier = CapScheduleApplier(sched((2, 55.0)))
        applier.on_invocation(2, runtime)
        assert applier.log == []
        assert any(
            "cap schedule" in note and "rejected 3 times" in note
            for note in runtime.degradations
        )
        # the event is spent: no retry storm on later invocations
        notes = len(runtime.degradations)
        applier.on_invocation(3, runtime)
        assert len(runtime.degradations) == notes


class TestScheduleInSetup:
    def test_requires_capping_privilege(self):
        with pytest.raises(ValueError, match="capping"):
            ExperimentSetup(
                spec=minotaur(), cap_schedule=sched((5, 70.0))
            )

    def test_one_retune_per_new_cap_level(self):
        """Acceptance criterion: a mid-run cap change opens exactly one
        warm-started tuning session per (region, new level), and the
        change itself appears exactly once in ``cap_changes``."""
        app = synthetic_application(timesteps=6, include_tiny=False)
        setup = ExperimentSetup(
            spec=crill(),
            cap_w=85.0,
            repeats=1,
            online_max_evals=10,
            cap_schedule=sched((4, 55.0), hysteresis=3),
        )
        result = run_arcs_online(app, setup)
        assert result.cap_changes == (
            "invocation 4: power cap 85W -> 55W",
        )
        for region in app.region_names():
            levels = [
                key
                for key in result.chosen_configs
                if key.startswith(f"{region}@")
            ]
            assert sorted(levels) == [
                f"{region}@55W", f"{region}@85W"
            ]
