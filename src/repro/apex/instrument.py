"""The APEX <-> OMPT bridge.

"The OMPT interface starts a timer upon entry to an OpenMP parallel
region and stops that timer upon exit" (Section III-B).  The bridge
registers OMPT callbacks on a runtime, drives the timer registry and
the policy engine, and charges the *APEX instrumentation overhead*
(Section III-C) to the simulated clock for every instrumented event.

The bridge is also a fault boundary: OMPT callbacks on real runtimes
get lost (tool and runtime race during team formation), and timer
reads glitch.  When the node carries a fault injector, the
``ompt.timer_start``/``ompt.timer_stop`` sites drop whole events and
``measure.noise`` spikes the measured elapsed time; the bridge must
survive the resulting asymmetric start/stop sequences - a lost stop
leaves a timer running into the region's next start, a lost start
leaves a stop with nothing to match - without crashing or feeding
garbage intervals to the policy.
"""

from __future__ import annotations

from repro.apex.introspection import Introspection
from repro.faults.plan import DEFAULT_SPIKE_FACTOR, FaultSpec
from repro.apex.policy import PolicyEngine, TimerEventContext
from repro.apex.timers import TimerRegistry
from repro.openmp.ompt import (
    OmptEvent,
    ParallelBeginPayload,
    ParallelEndPayload,
)
from repro.openmp.runtime import OpenMPRuntime
from repro.telemetry.bus import bus

#: time charged per instrumented OMPT event (timer start or stop):
#: measurement glue, map lookups, policy dispatch.
APEX_EVENT_OVERHEAD_S = 12.0e-6


class ApexOmptBridge:
    """Connects one APEX instance to one OpenMP runtime via OMPT."""

    def __init__(self, runtime: OpenMPRuntime) -> None:
        self.runtime = runtime
        self.introspection = Introspection(runtime.node)
        self.timers = TimerRegistry()
        self.policy_engine = PolicyEngine(introspection=self.introspection)
        self._first_by_name: dict[str, bool] = {}
        self._attached = False
        self.instrumentation_time_s = 0.0
        self.faults = runtime.node.faults
        #: OMPT events lost to injected dropouts.
        self.timer_dropouts = 0
        #: asymmetric start/stop sequences repaired (stale running
        #: timer discarded, or a stop with no matching start skipped).
        self.timer_repairs = 0
        #: measured intervals corrupted by an injected noise spike.
        self.noise_spikes = 0
        #: energy of one instrumented event by socket-0 package cap: a
        #: pure function of the cap, needed twice per region invocation
        self._event_energy_j: dict[float | None, float] = {}

    # ------------------------------------------------------------------
    def attach(self) -> None:
        """Register the OMPT callbacks (idempotent errors on re-attach)."""
        if self._attached:
            raise RuntimeError("APEX bridge is already attached")
        self.runtime.ompt.register(
            OmptEvent.PARALLEL_BEGIN, self._on_parallel_begin
        )
        self.runtime.ompt.register(
            OmptEvent.PARALLEL_END, self._on_parallel_end
        )
        self._attached = True

    def detach(self) -> None:
        if not self._attached:
            raise RuntimeError("APEX bridge is not attached")
        self.runtime.ompt.unregister(
            OmptEvent.PARALLEL_BEGIN, self._on_parallel_begin
        )
        self.runtime.ompt.unregister(
            OmptEvent.PARALLEL_END, self._on_parallel_end
        )
        self._attached = False

    def shutdown(self) -> None:
        """Paper: "When the program completes, the policy saves the best
        parameters found during the search" - policies do that in their
        ``on_shutdown``."""
        self.policy_engine.shutdown()
        if self._attached:
            self.detach()

    # ------------------------------------------------------------------
    def _charge_overhead(self) -> None:
        node = self.runtime.node
        node.advance(APEX_EVENT_OVERHEAD_S)
        self.instrumentation_time_s += APEX_EVENT_OVERHEAD_S
        cap = node.rapl.effective_cap_w(0, node.now_s)
        joules = self._event_energy_j.get(cap)
        if joules is None:
            f = node.frequency.frequency_for_cap(cap, n_active=1)
            joules = (
                node.power.core_dynamic_w(f) + node.power.uncore_w(f)
            ) * APEX_EVENT_OVERHEAD_S
            self._event_energy_j[cap] = joules
        node.deposit_energy(0, joules)

    def _draw(self, site: str) -> FaultSpec | None:
        if self.faults is None:
            return None
        return self.faults.draw(site)

    def _on_parallel_begin(self, payload: ParallelBeginPayload) -> None:
        if self._draw("ompt.timer_start") is not None:
            # the begin callback was lost: no timer, no policy event -
            # this execution runs with whatever config is current.
            self.timer_dropouts += 1
            bus().emit(
                "apex.timer_dropout",
                region=payload.region_name,
                edge="start",
            )
            return
        self._charge_overhead()
        name = payload.region_name
        node = self.runtime.node
        if self.timers.is_running(name):
            # the previous stop event for this region was lost; the
            # stale interval spans an unknown number of executions, so
            # discard it rather than report a garbage measurement.
            self.timers.stop(name, node.now_s)
            self.timer_repairs += 1
            bus().emit(
                "apex.timer_repair", region=name, edge="start"
            )
        first = self.timers.start(name, node.now_s)
        self._first_by_name[name] = first
        self.policy_engine.timer_started(
            TimerEventContext(name, node.now_s, first)
        )

    def _on_parallel_end(self, payload: ParallelEndPayload) -> None:
        if self._draw("ompt.timer_stop") is not None:
            # the end callback was lost; the running timer is left for
            # the next begin of this region to discard.
            self.timer_dropouts += 1
            bus().emit(
                "apex.timer_dropout",
                region=payload.region_name,
                edge="stop",
            )
            return
        self._charge_overhead()
        name = payload.region_name
        if not self.timers.is_running(name):
            # the matching start was lost: nothing to measure.
            self.timer_repairs += 1
            bus().emit("apex.timer_repair", region=name, edge="stop")
            return
        now_s = self.runtime.node.now_s
        elapsed = self.timers.stop(name, now_s)
        spike = self._draw("measure.noise")
        if spike is not None:
            # a timer glitch: the measurement is corrupted, the actual
            # execution (clock, energy) is not.
            elapsed *= spike.magnitude or DEFAULT_SPIKE_FACTOR
            self.noise_spikes += 1
            bus().emit("apex.noise_spike", region=name)
        self.policy_engine.timer_stopped(
            TimerEventContext(
                name,
                now_s,
                self._first_by_name.get(name, False),
                elapsed,
                payload.record,
            )
        )
