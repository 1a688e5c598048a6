"""Tests for the watchdog supervision layer (repro/supervise.py)."""

from __future__ import annotations

import pytest

from repro.faults.inject import make_injector
from repro.faults.plan import FaultPlan, FaultSpec
from repro.machine.node import SimulatedNode
from repro.machine.spec import crill
from repro.openmp.runtime import OpenMPRuntime
from repro.supervise import (
    RegionSupervisor,
    RunAbortedError,
    SuperviseConfig,
)
from tests.test_openmp_engine import make_region


def faulty_runtime(*specs, seed=0):
    plan = FaultPlan(specs=tuple(specs), seed=seed) if specs else None
    node = SimulatedNode(crill(), faults=make_injector(plan))
    return OpenMPRuntime(node, noise_sigma=0.0)


def crash_spec(**kw):
    kw.setdefault("probability", 1.0)
    return FaultSpec(site="region.exec", action="crash", **kw)


class TestConfigValidation:
    def test_bad_deadline_rejected(self):
        with pytest.raises(ValueError, match="deadline"):
            SuperviseConfig(deadline_s=0.0)

    def test_bad_retries_rejected(self):
        with pytest.raises(ValueError, match="max_retries"):
            SuperviseConfig(max_retries=0)


class TestCleanPassThrough:
    def test_supervised_clean_run_is_identical(self):
        """No faults, no deadline: supervision must add zero simulated
        time and zero RNG draws, so records match bit for bit."""
        plain = faulty_runtime()
        supervised = faulty_runtime()
        sup = RegionSupervisor(supervised)
        for _ in range(4):
            a = plain.parallel_for(make_region(name="r"))
            b = sup.execute(make_region(name="r"))
            assert a.time_s == b.time_s
            assert a.energy_j == b.energy_j
        assert plain.node.now_s == supervised.node.now_s
        assert supervised.degradations == []


class TestEscalationLadder:
    def test_crash_retried_with_recovery_note(self):
        runtime = faulty_runtime(crash_spec(max_fires=1))
        sup = RegionSupervisor(runtime)
        record = sup.execute(make_region(name="r"))
        assert record is not None
        assert runtime.degradations == [
            "region r: recovered after 1 failed attempt(s)"
        ]

    def test_persistent_crash_pins_region(self):
        # max_retries=2 tolerates 2 retries; the 3rd consecutive crash
        # escalates to the pin rung, then the next attempt succeeds
        runtime = faulty_runtime(crash_spec(max_fires=3))
        pinned = []
        sup = RegionSupervisor(
            runtime, pin=lambda name, reason: pinned.append(name)
        )
        record = sup.execute(make_region(name="r"))
        assert record is not None
        assert pinned == ["r"]
        assert any(
            "pinned to the default configuration" in note
            for note in runtime.degradations
        )

    def test_failure_past_pin_aborts_run(self):
        runtime = faulty_runtime(crash_spec(max_fires=None))
        sup = RegionSupervisor(runtime)
        with pytest.raises(RunAbortedError, match="'r'"):
            sup.execute(make_region(name="r"))

    def test_abort_message_mentions_resume(self):
        runtime = faulty_runtime(crash_spec(max_fires=None))
        sup = RegionSupervisor(runtime)
        with pytest.raises(RunAbortedError, match="same --checkpoint"):
            sup.execute(make_region(name="r"))

    def test_success_resets_consecutive_failures(self):
        # 2 crashes, recovery, then 2 more: never 3 consecutive, so
        # the region is never pinned
        runtime = faulty_runtime(
            crash_spec(max_fires=2),
            crash_spec(start=3, max_fires=2),
        )
        pinned = []
        sup = RegionSupervisor(
            runtime, pin=lambda name, reason: pinned.append(name)
        )
        for _ in range(4):
            sup.execute(make_region(name="r"))
        assert pinned == []

    def test_health_tracked_per_region(self):
        runtime = faulty_runtime(crash_spec(max_fires=1))
        sup = RegionSupervisor(runtime)
        sup.execute(make_region(name="a"))   # eats the only crash
        sup.execute(make_region(name="b"))
        assert sup._health["a"].consecutive_failures == 0
        assert "region a: recovered" in runtime.degradations[0]


class TestHangsAndDeadlines:
    def test_hang_advances_clock_and_keeps_measurement(self):
        hang = FaultSpec(
            site="region.exec",
            action="hang",
            probability=1.0,
            max_fires=1,
            magnitude=2.5,
        )
        runtime = faulty_runtime(hang)
        clean = faulty_runtime()
        sup = RegionSupervisor(runtime)
        record = sup.execute(make_region(name="r"))
        reference = clean.parallel_for(make_region(name="r"))
        # the measurement itself is untouched; only wall time grows
        assert record.time_s == reference.time_s
        assert runtime.node.now_s == pytest.approx(
            clean.node.now_s + 2.5
        )

    def test_sustained_stall_escalates(self):
        # an impossible deadline makes every execution a stall; stalls
        # return their (usable) record but escalate on the 3rd
        runtime = faulty_runtime()
        pinned = []
        sup = RegionSupervisor(
            runtime,
            SuperviseConfig(deadline_s=1e-12),
            pin=lambda name, reason: pinned.append((name, reason)),
        )
        for _ in range(3):
            record = sup.execute(make_region(name="r"))
            assert record is not None
        assert len(pinned) == 1
        assert "stalled" in pinned[0][1]
