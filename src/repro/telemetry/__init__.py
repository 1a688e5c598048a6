"""Unified telemetry: one event bus across the whole ARCS control loop.

Every layer of the reproduction - OMPT dispatch, APEX timers, the ARCS
policy, Harmony search, RAPL/MSR accesses, fault injection, cap
schedules, checkpoints, supervision and the sweep harness - reports to
a single process-wide :class:`~repro.telemetry.bus.TelemetryBus`.  The
bus records spans (begin/end with the *simulated* clock), point events,
and counter/gauge/histogram metrics, keeps a bounded in-memory flight
recorder for post-mortems, and streams records to fsync-batched JSONL
sinks that a Chrome-trace exporter turns into a Perfetto-loadable
``trace.json``.

The default bus is disabled: every call is an attribute check plus an
early return, so instrumented code pays ~nothing unless a run opts in
(``repro run --telemetry DIR``).  Timestamps always come from the
simulated node's clock (never wall-clock), so two runs at the same seed
produce byte-identical event logs.
"""

from __future__ import annotations

from repro.telemetry.bus import (
    TelemetryBus,
    bus,
    install,
    telemetry_session,
)
from repro.telemetry.flight import FlightRecorder
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.sinks import (
    JsonlSink,
    export_chrome_trace,
    load_telemetry_dir,
    read_jsonl,
)
from repro.telemetry.timeline import (
    merged_records,
    render_decision_timeline,
    render_metrics_summary,
)

__all__ = [
    "TelemetryBus",
    "bus",
    "install",
    "telemetry_session",
    "FlightRecorder",
    "MetricsRegistry",
    "JsonlSink",
    "export_chrome_trace",
    "load_telemetry_dir",
    "merged_records",
    "read_jsonl",
    "render_decision_timeline",
    "render_metrics_summary",
]
