"""The process-wide telemetry bus.

One :class:`TelemetryBus` instance is installed per process (per
*worker* process in a parallel sweep) and every instrumented layer
reports to it through the module-level :func:`bus` accessor.  The
default bus is **disabled**: every public call starts with an
``enabled`` check and returns immediately, so instrumentation costs an
attribute load plus a branch when telemetry is off.

Determinism contract
--------------------
Timestamps come from a *bound clock* - normally the simulated node's
``now_s`` - never from wall-clock.  Because each repeat builds a fresh
node whose clock restarts at zero, the bus keeps a monotone offset:
rebinding the clock pins the offset at the largest timestamp emitted so
far, so a run's event log forms one monotonically non-decreasing
timeline across repeats.  Records carry a sequence number that breaks
ties between events at the same simulated instant.  Nothing in a
record depends on wall-clock, PIDs or absolute paths, so two runs at
the same seed produce byte-identical logs.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator

from repro.telemetry.flight import DEFAULT_FLIGHT_SIZE, FlightRecorder
from repro.telemetry.metrics import MetricsRegistry


class TelemetryBus:
    """Spans, point events and metrics over one virtual timeline."""

    def __init__(
        self,
        *,
        enabled: bool = False,
        flight_size: int = DEFAULT_FLIGHT_SIZE,
    ) -> None:
        self.enabled = enabled
        self.flight = FlightRecorder(flight_size)
        self.metrics = MetricsRegistry()
        #: ambient trace context (:class:`repro.obs.trace.TraceContext`
        #: or ``None``).  When set, every record emitted is stamped
        #: with the (trace_id, span_id) it belongs to, and
        #: :func:`repro.obs.trace.traced_span` derives child contexts
        #: from it.  Purely observational: nothing in the control loop
        #: reads it back.
        self.trace = None
        self._sinks: list = []
        self._clock: Callable[[], float] | None = None
        self._clock_offset = 0.0
        self._max_ts = 0.0
        self._seq = 0
        self._trace_children = 0
        self._closed = False

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    def add_sink(self, sink) -> None:
        """Attach a sink (anything with ``write(record)`` / ``close()``)."""
        self._sinks.append(sink)

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Use ``clock()`` (a simulated-time callable) for timestamps.

        Rebinding - e.g. when a repeat builds a fresh node whose clock
        restarts at zero - pins the monotone offset at the largest
        timestamp seen so far, so the run-wide timeline never goes
        backwards.
        """
        if not self.enabled:
            return
        self._clock_offset = self._max_ts
        self._clock = clock

    def now(self) -> float:
        """Current virtual timestamp (monotone across clock rebinds)."""
        raw = self._clock() if self._clock is not None else 0.0
        ts = self._clock_offset + raw
        if ts > self._max_ts:
            self._max_ts = ts
        return ts

    # ------------------------------------------------------------------
    # records
    # ------------------------------------------------------------------
    def emit(self, name: str, **attrs: object) -> None:
        """Record a point event at the current virtual time."""
        if not self.enabled:
            return
        self._record(
            {
                "type": "event",
                "ts": self.now(),
                "seq": self._next_seq(),
                "name": name,
                "attrs": attrs,
            }
        )

    def span_begin(self) -> tuple[float, int]:
        """Open a span: its begin timestamp and sequence number.  Pair
        with :meth:`span_finish`; callers must check ``enabled`` first
        (hot paths hand-roll the pair rather than pay a contextmanager's
        generator machinery per region invocation)."""
        return self.now(), self._next_seq()

    def span_finish(
        self,
        name: str,
        begin: float,
        seq: int,
        *,
        trace: dict | None = None,
        **attrs: object,
    ) -> None:
        """Close a span opened by :meth:`span_begin`.  ``trace`` (used
        by :func:`repro.obs.trace.traced_span`) attaches an explicit
        trace dict, overriding the ambient stamp."""
        if not self.enabled:
            return
        record = {
            "type": "span",
            "ts": begin,
            "seq": seq,
            "name": name,
            "dur": self.now() - begin,
            "attrs": attrs,
        }
        if trace is not None:
            record["trace"] = trace
        self._record(record)

    # ------------------------------------------------------------------
    # metrics (aggregated in memory, flushed at close)
    # ------------------------------------------------------------------
    def count(self, name: str, delta: float = 1.0) -> None:
        if not self.enabled:
            return
        # inlined MetricsRegistry.count: this is the hottest telemetry
        # call (once per OMPT dispatch / MSR read) and the extra method
        # hop is measurable
        self.metrics.counters[name] += delta

    def gauge(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        self.metrics.gauge(name, value)

    def observe(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        self.metrics.observe(name, value)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def meta(self, **attrs: object) -> None:
        """Record the run-identity header (run_id, strategy, seed...)."""
        if not self.enabled:
            return
        self._record(
            {
                "type": "meta",
                "ts": self.now(),
                "seq": self._next_seq(),
                "name": "run.meta",
                "attrs": attrs,
            }
        )

    def flush(self) -> None:
        for sink in self._sinks:
            sink.flush()

    def close(self) -> None:
        """Flush aggregated metrics as ``metric`` records, then close
        every sink.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        # metric-flush records summarize the whole run; stamping them
        # with whatever span happened to be ambient would be a lie
        self.trace = None
        if self.enabled:
            final_ts = self._max_ts
            for record in self.metrics.snapshot():
                record["ts"] = final_ts
                record["seq"] = self._next_seq()
                self._record(record)
        for sink in self._sinks:
            sink.close()
        self._sinks.clear()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def next_trace_index(self) -> int:
        """Per-bus counter feeding deterministic child span-id
        derivation (see :func:`repro.obs.trace.child_context`)."""
        self._trace_children += 1
        return self._trace_children

    def _record(self, record: dict) -> None:
        ctx = self.trace
        if ctx is not None and "trace" not in record:
            record["trace"] = {
                "trace_id": ctx.trace_id,
                "span_id": ctx.span_id,
            }
        self.flight.record(record)
        for sink in self._sinks:
            sink.write(record)


#: The process-wide bus.  Disabled by default; :func:`telemetry_session`
#: installs an enabled one.
_BUS = TelemetryBus(enabled=False)


def bus() -> TelemetryBus:
    """The currently installed process-wide bus."""
    return _BUS


def install(new_bus: TelemetryBus) -> TelemetryBus:
    """Install ``new_bus`` as the process-wide bus; returns the old one."""
    global _BUS
    old = _BUS
    _BUS = new_bus
    return old


@contextmanager
def telemetry_session(
    sink=None, *, trace=None, **meta: object
) -> Iterator[TelemetryBus]:
    """Install an enabled bus for the span of the ``with`` body.

    Attaches ``sink`` (when given), sets the ambient ``trace`` context,
    then writes the ``meta`` header (when given) - in that order, so
    the meta record is trace-stamped and can label the trace root.  On
    exit the previous bus is always restored and the session bus
    closed (flushing aggregated metrics and closing ``sink``).
    """
    session = TelemetryBus(enabled=True)
    if sink is not None:
        session.add_sink(sink)
    session.trace = trace
    if meta:
        session.meta(**meta)
    previous = install(session)
    try:
        yield session
    finally:
        install(previous)
        session.close()
