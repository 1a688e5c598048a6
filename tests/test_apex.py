"""Tests for the APEX layer: timers, profiles, introspection, policy
engine and the OMPT bridge."""

from __future__ import annotations

import pytest

from repro.apex.instrument import APEX_EVENT_OVERHEAD_S, ApexOmptBridge
from repro.apex.introspection import Introspection
from repro.apex.policy import Policy, PolicyEngine, TimerEventContext
from repro.apex.profile import ApexProfile
from repro.apex.timers import TimerRegistry
from tests.test_openmp_engine import make_region


class TestTimerRegistry:
    def test_start_stop_elapsed(self):
        reg = TimerRegistry()
        reg.start("t", now_s=1.0)
        assert reg.stop("t", now_s=3.5) == pytest.approx(2.5)

    def test_first_encounter_flag(self):
        reg = TimerRegistry()
        assert reg.start("t", 0.0) is True
        reg.stop("t", 1.0)
        assert reg.start("t", 2.0) is False

    def test_double_start_rejected(self):
        reg = TimerRegistry()
        reg.start("t", 0.0)
        with pytest.raises(RuntimeError):
            reg.start("t", 1.0)

    def test_stop_without_start_rejected(self):
        with pytest.raises(RuntimeError):
            TimerRegistry().stop("t", 1.0)

    def test_seen_and_counts(self):
        reg = TimerRegistry()
        reg.start("a", 0.0)
        reg.stop("a", 1.0)
        reg.start("b", 1.0)
        assert reg.seen() == {"a", "b"}
        assert reg.total_starts == 2
        assert reg.is_running("b") and not reg.is_running("a")


class TestApexProfile:
    def test_streaming_stats(self):
        prof = ApexProfile()
        for v in (1.0, 3.0, 2.0):
            prof.observe("t", v)
        stats = prof.stats("t")
        assert stats.calls == 3
        assert stats.total_s == 6.0
        assert stats.min_s == 1.0
        assert stats.max_s == 3.0
        assert stats.last_s == 2.0
        assert stats.mean_s == pytest.approx(2.0)

    def test_unknown_timer(self):
        with pytest.raises(KeyError):
            ApexProfile().stats("missing")

    def test_top_by_total(self):
        prof = ApexProfile()
        prof.observe("small", 1.0)
        prof.observe("big", 10.0)
        prof.observe("mid", 5.0)
        tops = prof.top_by_total(2)
        assert [t.name for t in tops] == ["big", "mid"]

    def test_negative_rejected(self):
        prof = ApexProfile()
        with pytest.raises(ValueError):
            prof.observe("t", -1.0)


class TestIntrospection:
    def test_energy_readback(self, crill_node):
        intro = Introspection(crill_node)
        crill_node.advance(0.01)
        crill_node.deposit_energy(0, 2.0)
        assert intro.package_energy_j() == pytest.approx(2.0, abs=0.01)

    def test_current_power_sampling(self, crill_node):
        intro = Introspection(crill_node)
        intro.current_power_w()           # establish the baseline
        crill_node.advance(0.5)
        crill_node.deposit_energy(0, 50.0)
        assert intro.current_power_w() == pytest.approx(100.0, rel=0.01)

    def test_power_caps_visible(self, crill_node):
        intro = Introspection(crill_node)
        crill_node.set_power_cap(70.0)
        crill_node.settle_after_cap()
        assert intro.power_caps_w() == (70.0, 70.0)


class _RecordingPolicy(Policy):
    name = "recording"

    def __init__(self):
        self.events = []

    def on_startup(self, engine):
        self.events.append("startup")

    def on_timer_start(self, context):
        self.events.append(("start", context.timer_name))

    def on_timer_stop(self, context):
        self.events.append(("stop", context.timer_name))

    def on_periodic(self, now_s):
        self.events.append(("tick", now_s))

    def on_shutdown(self):
        self.events.append("shutdown")


class TestPolicyEngine:
    def make_engine(self, node):
        return PolicyEngine(introspection=Introspection(node))

    def test_startup_on_register(self, crill_node):
        engine = self.make_engine(crill_node)
        policy = _RecordingPolicy()
        engine.register(policy)
        assert policy.events == ["startup"]

    def test_double_register_rejected(self, crill_node):
        engine = self.make_engine(crill_node)
        policy = _RecordingPolicy()
        engine.register(policy)
        with pytest.raises(ValueError):
            engine.register(policy)

    def test_timer_events_dispatched(self, crill_node):
        engine = self.make_engine(crill_node)
        policy = _RecordingPolicy()
        engine.register(policy)
        engine.timer_started(
            TimerEventContext("r", now_s=0.0, first_encounter=True)
        )
        engine.timer_stopped(
            TimerEventContext(
                "r", now_s=1.0, first_encounter=True, elapsed_s=1.0
            )
        )
        assert ("start", "r") in policy.events
        assert ("stop", "r") in policy.events

    def test_stop_updates_profile(self, crill_node):
        engine = self.make_engine(crill_node)
        engine.timer_stopped(
            TimerEventContext(
                "r", now_s=1.0, first_encounter=True, elapsed_s=0.4
            )
        )
        assert engine.profile.stats("r").total_s == pytest.approx(0.4)

    def test_stop_requires_elapsed(self, crill_node):
        engine = self.make_engine(crill_node)
        with pytest.raises(ValueError):
            engine.timer_stopped(
                TimerEventContext("r", now_s=1.0, first_encounter=True)
            )

    def test_periodic_fires_when_time_passes(self, crill_node):
        engine = self.make_engine(crill_node)
        policy = _RecordingPolicy()
        engine.register(policy, period_s=1.0)
        crill_node.advance(2.5)
        engine.timer_started(
            TimerEventContext("r", now_s=2.5, first_encounter=True)
        )
        ticks = [e for e in policy.events if e[0] == "tick"]
        assert len(ticks) == 2

    def test_deregister(self, crill_node):
        engine = self.make_engine(crill_node)
        policy = _RecordingPolicy()
        engine.register(policy)
        engine.deregister(policy)
        engine.timer_started(
            TimerEventContext("r", now_s=0.0, first_encounter=True)
        )
        assert ("start", "r") not in policy.events

    def test_shutdown_notifies(self, crill_node):
        engine = self.make_engine(crill_node)
        policy = _RecordingPolicy()
        engine.register(policy)
        engine.shutdown()
        assert "shutdown" in policy.events


class TestApexOmptBridge:
    def test_timers_driven_by_region_execution(self, runtime):
        bridge = ApexOmptBridge(runtime)
        bridge.attach()
        rec = runtime.parallel_for(make_region(name="br"))
        stats = bridge.policy_engine.profile.stats("br")
        assert stats.calls == 1
        # elapsed covers the region plus the stop-side instrumentation
        assert stats.total_s >= rec.time_s

    def test_instrumentation_overhead_charged(self, runtime):
        bridge = ApexOmptBridge(runtime)
        bridge.attach()
        runtime.parallel_for(make_region())
        assert bridge.instrumentation_time_s == pytest.approx(
            2 * APEX_EVENT_OVERHEAD_S
        )

    def test_policy_sees_first_encounter(self, runtime):
        bridge = ApexOmptBridge(runtime)
        bridge.attach()
        policy = _RecordingPolicy()
        bridge.policy_engine.register(policy)
        runtime.parallel_for(make_region(name="x"))
        runtime.parallel_for(make_region(name="x"))
        starts = [e for e in policy.events if e[0] == "start"]
        assert len(starts) == 2

    def test_double_attach_rejected(self, runtime):
        bridge = ApexOmptBridge(runtime)
        bridge.attach()
        with pytest.raises(RuntimeError):
            bridge.attach()

    def test_detach_stops_instrumentation(self, runtime):
        bridge = ApexOmptBridge(runtime)
        bridge.attach()
        bridge.detach()
        runtime.parallel_for(make_region())
        assert bridge.instrumentation_time_s == 0.0

    def test_shutdown_idempotent_detach(self, runtime):
        bridge = ApexOmptBridge(runtime)
        bridge.attach()
        bridge.shutdown()
        with pytest.raises(RuntimeError):
            bridge.detach()
