"""Telemetry overhead characterization.

The instrumented control loop must cost ~nothing when the bus is
disabled (the default: every hook is one attribute load plus a branch)
and stay cheap when enabled.  Three configurations of the same
ARCS-Online run are measured:

* **disabled** - the shipped default (no-op recorder);
* **enabled, no sink** - flight recorder + in-memory metrics only,
  what a run pays for post-mortem dumps on ``RunAbortedError``;
* **enabled + JSONL** - full event log streaming to disk, what
  ``repro run --telemetry`` pays.

``test_telemetry_overhead`` asserts best-of-5 ratios against the
disabled run: ``no_sink / disabled < 1.30`` and
``jsonl / disabled < 1.60``.  CI deselects that test, because its
wall-clock ratios fail on shared hosts; ``tools/smoke_sweep.py
--telemetry-dir`` gates a different ratio (an SP-B sweep at 1.5x) and
does not stand in for it.  ``test_disabled_hooks_are_noops`` gates the
disabled hooks at under 1 microsecond per operation, and CI runs it.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro.experiments.runner import ExperimentSetup, run_arcs_online
from repro.machine.spec import crill
from repro.telemetry import JsonlSink, TelemetryBus, telemetry_session
from repro.util.tables import format_table
from repro.workloads.synthetic import synthetic_application

ROUNDS = 5


def _setup():
    return ExperimentSetup(spec=crill(), repeats=2, seed=0)


def _app():
    return synthetic_application(timesteps=30)


def _best_of(fn, rounds=ROUNDS) -> float:
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _run_disabled():
    run_arcs_online(_app(), _setup())


def _run_enabled_no_sink():
    with telemetry_session():
        run_arcs_online(_app(), _setup())


def _run_enabled_jsonl():
    with tempfile.TemporaryDirectory() as tmp:
        with telemetry_session(JsonlSink(Path(tmp) / "telemetry.jsonl")):
            run_arcs_online(_app(), _setup())


def test_telemetry_overhead(save_result):
    _run_disabled()  # warm imports and allocator before timing
    baseline = _best_of(_run_disabled)
    no_sink = _best_of(_run_enabled_no_sink)
    jsonl = _best_of(_run_enabled_jsonl)

    def row(label, t):
        return (
            label, f"{t * 1e3:.1f}", f"{t / baseline:.3f}x",
            f"{(t / baseline - 1.0) * 100:+.1f}%",
        )

    table = format_table(
        ("mode", "best-of-5 (ms)", "vs disabled", "overhead"),
        [
            row("disabled (default)", baseline),
            row("enabled, no sink", no_sink),
            row("enabled + JSONL sink", jsonl),
        ],
    )
    # all wall-clock: machine- and load-dependent, so info-only
    save_result(
        "telemetry_overhead",
        table,
        metrics={
            "disabled_s": {"value": baseline, "direction": "info",
                           "unit": "s"},
            "no_sink_s": {"value": no_sink, "direction": "info",
                          "unit": "s"},
            "jsonl_s": {"value": jsonl, "direction": "info",
                        "unit": "s"},
            "no_sink_ratio": {"value": no_sink / baseline,
                              "direction": "info", "unit": "x"},
            "jsonl_ratio": {"value": jsonl / baseline,
                            "direction": "info", "unit": "x"},
        },
        machine="crill",
        seed=0,
        config={"rounds": ROUNDS},
    )

    assert baseline > 0
    # enabled with only the flight recorder + metrics stays light
    assert no_sink / baseline < 1.30
    # the full JSONL stream stays under the CI gate
    assert jsonl / baseline < 1.60


def test_disabled_hooks_are_noops(save_result):
    """Every disabled-bus operation is an attribute load plus a
    branch; even a very generous 1 microsecond/op ceiling is ~10x the
    expected cost, so regressions (e.g. building attrs before the
    enabled check) fail loudly without being timer-noise flaky."""
    tb = TelemetryBus(enabled=False)
    n = 200_000

    def spin_ops():
        for _ in range(n):
            tb.count("c")
            tb.emit("e", a=1)
            tb.observe("h", 1.0)

    spin_ops()  # warm
    t0 = time.perf_counter()
    spin_ops()
    per_op_ns = (time.perf_counter() - t0) / (3 * n) * 1e9
    save_result(
        "telemetry_disabled_noop",
        f"disabled telemetry hook cost: {per_op_ns:.0f} ns/op "
        f"(ceiling 1000 ns)",
        metrics={
            "per_op_ns": {"value": per_op_ns, "direction": "info",
                          "unit": "ns"},
        },
        config={"ops": 3 * n},
    )
    assert per_op_ns < 1000
