"""OMPT-style tools interface.

Mirrors the OMPT Technical Report surface ARCS relies on (Section
III-A): a tool registers callbacks; the runtime dispatches events with
parallel-region identifiers, team sizes and timing payloads.  APEX
starts a timer on ``PARALLEL_BEGIN`` and stops it on ``PARALLEL_END``;
the TAU-style profiling of Figure 9 additionally consumes the
``IMPLICIT_TASK`` / ``WORK_LOOP`` / ``SYNC_REGION_BARRIER`` aggregate
events.  Payloads are named tuples: two are built per region
invocation, and a tuple costs a fraction of a frozen dataclass.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from repro.openmp.records import RegionExecutionRecord
from repro.telemetry.bus import bus


class OmptEvent(Enum):
    """Event kinds dispatched by the simulated runtime."""

    PARALLEL_BEGIN = "ompt_event_parallel_begin"
    PARALLEL_END = "ompt_event_parallel_end"
    IMPLICIT_TASK = "ompt_event_implicit_task"
    WORK_LOOP = "ompt_event_work_loop"
    SYNC_REGION_BARRIER = "ompt_event_sync_region_barrier"

    # members compare by identity, so the identity hash is consistent;
    # Enum's own hashes the name in Python code, and every dispatch
    # looks an event up in the callback registry
    __hash__ = object.__hash__


#: per-event dispatch counter names, precomputed because dispatch runs
#: five times per region invocation - formatting them inline shows up
#: in the telemetry overhead budget.
_DISPATCH_COUNTERS = {
    event: f"ompt.dispatch.{event.name.lower()}" for event in OmptEvent
}


class ParallelBeginPayload(NamedTuple):
    """Fired on entry to a parallel region, before execution."""

    region_name: str
    parallel_id: int
    requested_team_size: int
    timestamp_s: float


class ParallelEndPayload(NamedTuple):
    """Fired on region exit with the full execution record."""

    region_name: str
    parallel_id: int
    timestamp_s: float
    record: RegionExecutionRecord


class DurationPayload(NamedTuple):
    """Aggregate duration events (implicit task / loop / barrier)."""

    region_name: str
    parallel_id: int
    duration_s: float


Callback = Callable[[object], None]


@dataclass
class OmptInterface:
    """Callback registry with monotonically increasing parallel ids."""

    _callbacks: dict[OmptEvent, list[Callback]] = field(
        default_factory=lambda: defaultdict(list)
    )
    _next_parallel_id: int = 1
    #: events with a callback: the runtime asks every region invocation
    _subscribed: frozenset[OmptEvent] = field(default=frozenset(), init=False)

    def register(self, event: OmptEvent, callback: Callback) -> None:
        """Register ``callback`` for ``event`` (multiple tools may
        coexist, as OMPT allows)."""
        if not callable(callback):
            raise TypeError("callback must be callable")
        self._callbacks[event].append(callback)
        self._subscribed = self._subscribed | {event}

    def unregister(self, event: OmptEvent, callback: Callback) -> None:
        try:
            self._callbacks[event].remove(callback)
        except ValueError:
            raise ValueError(
                f"callback not registered for {event}"
            ) from None
        if not self._callbacks[event]:
            self._subscribed = self._subscribed - {event}

    def has_tool(self) -> bool:
        """True if any callback is registered - the runtime skips event
        construction entirely otherwise (OMPT's 'minimal overhead when
        not in use' design objective)."""
        return bool(self._subscribed)

    def has_callbacks(self, events: tuple[OmptEvent, ...]) -> bool:
        """True if a callback is registered for any of ``events``."""
        return not self._subscribed.isdisjoint(events)

    def new_parallel_id(self) -> int:
        pid = self._next_parallel_id
        self._next_parallel_id += 1
        return pid

    def count_dispatches(self, events: tuple[OmptEvent, ...]) -> None:
        """Bump the bus counters :meth:`dispatch` would bump for
        ``events``, for events no tool subscribes to."""
        tb = bus()
        tb.count("ompt.dispatch", len(events))
        for event in events:
            tb.count(_DISPATCH_COUNTERS[event])

    def dispatch(self, event: OmptEvent, payload: object) -> None:
        tb = bus()
        if tb.enabled:
            tb.count("ompt.dispatch")
            tb.count(_DISPATCH_COUNTERS[event])
        for callback in self._callbacks.get(event, ()):
            callback(payload)
