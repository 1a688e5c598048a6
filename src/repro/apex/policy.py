"""The APEX policy engine.

"The most distinguishing component in APEX is the policy engine ...
Policies are rules that decide on outcomes based on the observed state
captured by APEX.  The rules are encoded as callback functions that
are periodic or triggered by events."  (Section III-B)

Policies here receive *timer events* (start/stop, carrying the region
name and — on stop — the full execution record) and optional *periodic*
ticks driven by simulated time.
"""

from __future__ import annotations

from abc import ABC
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.apex.introspection import Introspection
from repro.apex.profile import ApexProfile
from repro.openmp.records import RegionExecutionRecord
from repro.util.validation import require_positive


class TimerEventContext(NamedTuple):
    """What a policy sees on a timer event (a named tuple: two are
    built per region invocation)."""

    timer_name: str
    now_s: float
    first_encounter: bool
    elapsed_s: float | None = None            # stop events only
    record: RegionExecutionRecord | None = None  # stop events only


class Policy(ABC):
    """Base class for APEX policies."""

    name: str = "policy"

    def on_startup(self, engine: "PolicyEngine") -> None:
        """Called when the policy registers."""

    def on_timer_start(self, context: TimerEventContext) -> None:
        """Triggered when any APEX timer starts."""

    def on_timer_stop(self, context: TimerEventContext) -> None:
        """Triggered when any APEX timer stops."""

    def on_periodic(self, now_s: float) -> None:
        """Periodic trigger (only if registered with a period)."""

    def on_shutdown(self) -> None:
        """Called when the owning APEX instance shuts down."""


@dataclass
class _PeriodicEntry:
    policy: Policy
    period_s: float
    next_due_s: float


@dataclass
class PolicyEngine:
    """Dispatches APEX events to registered policies."""

    introspection: Introspection
    profile: ApexProfile = field(default_factory=ApexProfile)
    _policies: list[Policy] = field(default_factory=list)
    _periodic: list[_PeriodicEntry] = field(default_factory=list)

    def register(self, policy: Policy, period_s: float | None = None) -> None:
        """Register a policy; ``period_s`` additionally subscribes it to
        periodic ticks."""
        if policy in self._policies:
            raise ValueError(f"policy {policy.name!r} already registered")
        self._policies.append(policy)
        if period_s is not None:
            require_positive("period_s", period_s)
            self._periodic.append(
                _PeriodicEntry(
                    policy=policy,
                    period_s=period_s,
                    next_due_s=self.introspection.now_s() + period_s,
                )
            )
        policy.on_startup(self)

    def deregister(self, policy: Policy) -> None:
        try:
            self._policies.remove(policy)
        except ValueError:
            raise ValueError(
                f"policy {policy.name!r} is not registered"
            ) from None
        self._periodic = [
            e for e in self._periodic if e.policy is not policy
        ]

    # ------------------------------------------------------------------
    def timer_started(self, context: TimerEventContext) -> None:
        for policy in list(self._policies):
            policy.on_timer_start(context)
        if self._periodic:
            self._fire_periodic(context.now_s)

    def timer_stopped(self, context: TimerEventContext) -> None:
        if context.elapsed_s is None:
            raise ValueError("stop events must carry elapsed_s")
        self.profile.observe(context.timer_name, context.elapsed_s)
        for policy in list(self._policies):
            policy.on_timer_stop(context)
        if self._periodic:
            self._fire_periodic(context.now_s)

    def shutdown(self) -> None:
        for policy in list(self._policies):
            policy.on_shutdown()

    def _fire_periodic(self, now_s: float) -> None:
        """Periodic policies run whenever simulated time passes their
        deadline (the simulator has no asynchronous threads, so ticks
        piggyback on event dispatch — 'Periodic / Asynchronous' in the
        paper's Figure 2 collapses to this in simulation)."""
        for entry in self._periodic:
            while now_s >= entry.next_due_s:
                entry.policy.on_periodic(entry.next_due_s)
                entry.next_due_s += entry.period_s
