"""Tests for APEX profile statistics and the TAU-style OMPT profiler."""

from __future__ import annotations

import json

import pytest

from repro.apex.instrument import ApexOmptBridge
from repro.apex.profile import ApexProfile, TimerStats
from repro.apex.tau import TauProfiler, TauRegionProfile
from repro.machine.node import SimulatedNode
from repro.machine.spec import crill
from repro.openmp.ompt import DurationPayload, OmptEvent, OmptInterface
from repro.openmp.runtime import OpenMPRuntime
from repro.telemetry.bus import telemetry_session
from tests.test_openmp_engine import make_region


# ---------------------------------------------------------------------------
# TimerStats
# ---------------------------------------------------------------------------
class TestTimerStats:
    def test_streaming_statistics(self):
        s = TimerStats(name="t")
        for v in (0.3, 0.1, 0.2):
            s.observe(v)
        assert s.calls == 3
        assert s.total_s == pytest.approx(0.6)
        assert s.min_s == pytest.approx(0.1)
        assert s.max_s == pytest.approx(0.3)
        assert s.last_s == pytest.approx(0.2)
        assert s.mean_s == pytest.approx(0.2)

    def test_negative_elapsed_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            TimerStats(name="t").observe(-1e-9)

    def test_zero_calls_mean_is_zero(self):
        assert TimerStats(name="t").mean_s == 0.0

    def test_zero_elapsed_counts(self):
        s = TimerStats(name="t")
        s.observe(0.0)
        assert s.calls == 1
        assert s.min_s == 0.0
        assert s.max_s == 0.0

    # -- the min_s Infinity regression ---------------------------------
    def test_min_s_json_none_for_never_fired_timer(self):
        assert TimerStats(name="t").min_s_json() is None

    def test_min_s_json_passes_through_finite_minimum(self):
        s = TimerStats(name="t")
        s.observe(0.25)
        assert s.min_s_json() == pytest.approx(0.25)

    def test_never_fired_timer_roundtrips_as_strict_json(self):
        """Serializing a zero-call timer the way controller checkpoints
        do must produce strict JSON (``Infinity`` is rejected by
        ``allow_nan=False`` and by any compliant parser) and restore
        back to the ``inf`` sentinel."""
        s = TimerStats(name="t")
        blob = [s.calls, s.total_s, s.min_s_json(), s.max_s, s.last_s]
        text = json.dumps(blob, allow_nan=False)  # raised pre-fix
        calls, total_s, min_s, max_s, last_s = json.loads(text)
        restored = TimerStats(
            name="t",
            calls=int(calls),
            total_s=float(total_s),
            min_s=float("inf") if min_s is None else float(min_s),
            max_s=float(max_s),
            last_s=float(last_s),
        )
        assert restored == s


class TestApexProfile:
    def test_observe_accumulates_per_name(self):
        p = ApexProfile()
        p.observe("a", 0.1)
        p.observe("b", 0.2)
        p.observe("a", 0.3)
        assert p.stats("a").calls == 2
        assert p.stats("b").calls == 1
        assert p.names() == ["a", "b"]

    def test_unknown_timer_raises_keyerror_with_name(self):
        with pytest.raises(KeyError, match="nope"):
            ApexProfile().stats("nope")

    def test_top_by_total_orders_and_truncates(self):
        p = ApexProfile()
        p.observe("small", 0.1)
        p.observe("large", 1.0)
        p.observe("mid", 0.5)
        top2 = p.top_by_total(2)
        assert [s.name for s in top2] == ["large", "mid"]


# ---------------------------------------------------------------------------
# TauRegionProfile fraction math
# ---------------------------------------------------------------------------
class TestTauRegionProfile:
    def test_fractions(self):
        r = TauRegionProfile(
            region_name="r",
            calls=4,
            implicit_task_s=2.0,
            loop_s=1.5,
            barrier_s=0.4,
        )
        assert r.time_per_call_s == pytest.approx(0.5)
        assert r.loop_fraction == pytest.approx(0.75)
        assert r.barrier_fraction == pytest.approx(0.2)

    def test_zero_call_edges(self):
        r = TauRegionProfile(region_name="r")
        assert r.time_per_call_s == 0.0
        assert r.barrier_fraction == 0.0
        assert r.loop_fraction == 0.0

    def test_zero_inclusive_time_guards_division(self):
        # barrier events observed but no implicit-task time yet: the
        # fraction must stay defined (0), not divide by zero
        r = TauRegionProfile(region_name="r", calls=1, barrier_s=0.1)
        assert r.barrier_fraction == 0.0
        assert r.loop_fraction == 0.0


# ---------------------------------------------------------------------------
# TauProfiler event consumption
# ---------------------------------------------------------------------------
class _FakeRuntime:
    """Just enough of OpenMPRuntime for attach/detach: an ``ompt``
    interface the profiler registers against."""

    def __init__(self):
        self.ompt = OmptInterface()


def _duration(region: str, seconds: float) -> DurationPayload:
    return DurationPayload(
        region_name=region, parallel_id=1, duration_s=seconds
    )


class TestTauProfiler:
    def test_accumulates_ompt_events_per_region(self):
        runtime = _FakeRuntime()
        tau = TauProfiler()
        tau.attach(runtime)
        for _ in range(3):
            runtime.ompt.dispatch(
                OmptEvent.IMPLICIT_TASK, _duration("r1", 0.2)
            )
            runtime.ompt.dispatch(
                OmptEvent.WORK_LOOP, _duration("r1", 0.15)
            )
            runtime.ompt.dispatch(
                OmptEvent.SYNC_REGION_BARRIER, _duration("r1", 0.05)
            )
        runtime.ompt.dispatch(
            OmptEvent.IMPLICIT_TASK, _duration("r2", 1.0)
        )
        r1 = tau.regions["r1"]
        assert r1.calls == 3
        assert r1.implicit_task_s == pytest.approx(0.6)
        assert r1.loop_s == pytest.approx(0.45)
        assert r1.barrier_s == pytest.approx(0.15)
        assert r1.barrier_fraction == pytest.approx(0.25)
        assert tau.total_profiled_s() == pytest.approx(1.6)
        assert [r.region_name for r in tau.top_by_inclusive_time(1)] == [
            "r2"
        ]

    def test_detach_stops_accumulation(self):
        runtime = _FakeRuntime()
        tau = TauProfiler()
        tau.attach(runtime)
        runtime.ompt.dispatch(
            OmptEvent.IMPLICIT_TASK, _duration("r", 0.1)
        )
        tau.detach()
        runtime.ompt.dispatch(
            OmptEvent.IMPLICIT_TASK, _duration("r", 0.1)
        )
        assert tau.regions["r"].calls == 1

    def test_double_attach_rejected(self):
        runtime = _FakeRuntime()
        tau = TauProfiler()
        tau.attach(runtime)
        with pytest.raises(RuntimeError, match="already attached"):
            tau.attach(runtime)

    def test_detach_without_attach_rejected(self):
        with pytest.raises(RuntimeError, match="not attached"):
            TauProfiler().detach()


# ---------------------------------------------------------------------------
# aggregate events reach a subscriber that registers mid-run
# ---------------------------------------------------------------------------
_AGGREGATES = (
    OmptEvent.IMPLICIT_TASK,
    OmptEvent.WORK_LOOP,
    OmptEvent.SYNC_REGION_BARRIER,
)


def _apex_runtime() -> OpenMPRuntime:
    runtime = OpenMPRuntime(
        SimulatedNode(crill()), seed=3, noise_sigma=0.02
    )
    ApexOmptBridge(runtime).attach()
    return runtime


class TestLateAggregateSubscriber:
    def test_late_subscriber_gets_one_of_each_per_invocation(self):
        runtime = _apex_runtime()
        region = make_region(name="late")
        for _ in range(4):
            runtime.parallel_for(region)
        seen: list[tuple[OmptEvent, int]] = []
        for event in _AGGREGATES:
            runtime.ompt.register(
                event,
                lambda payload, event=event: seen.append(
                    (event, payload.parallel_id)
                ),
            )
        tau = TauProfiler()
        tau.attach(runtime)
        first_id = runtime.ompt._next_parallel_id
        records = [runtime.parallel_for(region) for _ in range(6)]
        assert seen == [
            (event, parallel_id)
            for parallel_id in range(first_id, first_id + 6)
            for event in _AGGREGATES
        ]
        assert tau.regions["late"].calls == 6
        assert tau.regions["late"].implicit_task_s == pytest.approx(
            sum(r.time_s for r in records)
        )

    def test_dispatch_counters_with_the_bus_on(self):
        with telemetry_session() as tb:
            runtime = _apex_runtime()
            for _ in range(4):
                runtime.parallel_for(make_region())
            TauProfiler().attach(runtime)
            for _ in range(3):
                runtime.parallel_for(make_region())
        counters = tb.metrics.counters
        assert counters["ompt.dispatch"] == 5 * 7
        for event in OmptEvent:
            assert counters[f"ompt.dispatch.{event.name.lower()}"] == 7
