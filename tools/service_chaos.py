"""CI chaos target for the tuning service's degradation chain.

Boots a REAL ``repro serve`` daemon (background thread, ephemeral
port) with a hostile network plan armed on BOTH sides - refused
connects, hung/slow responses, torn and corrupt payloads, mid-write
server crashes (``examples/netfaults.json``) - then runs the same
short sweep three ways:

1. **service-less baseline** - the reference results;
2. **cold service under faults** - must be byte-identical to the
   baseline once the ``config source ...`` degradation notes are
   stripped: every network failure degrades to a correct local
   answer, and nothing else about the run changes;
3. **warm service rerun** - a second pass against the now-populated
   daemon; offline cells may skip tuning via service hits, but
   everything except ``tuning_runs`` must still match.

The run fails (exit 1) on any divergence or on any unhandled error
out of a sweep cell.  With ``--telemetry-dir`` the faulted passes run
under the telemetry bus, so the JSONL timeline of every fallback /
breaker / retry decision ships as a CI artifact.

Usage::

    PYTHONPATH=src python tools/service_chaos.py \
        --faults examples/netfaults.json --telemetry-dir out/
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from pathlib import Path

from repro.experiments.cache import result_to_json
from repro.experiments.figures import power_sweep
from repro.faults.plan import load_fault_plan
from repro.machine.spec import machine_by_name
from repro.service.daemon import ThreadedDaemon
from repro.telemetry import JsonlSink, telemetry_session
from repro.util.log import configure, get_logger
from repro.workloads.registry import application_by_name

log = get_logger("service_chaos")

_NOTE_PREFIX = "config source "


def _canonical(sweep, *, drop_tuning_runs: bool = False) -> str:
    """The sweep's full-fidelity JSON with service-chain degradation
    notes stripped (they are the *record* of surviving faults, not a
    measurement difference)."""
    blobs = {}
    for (label, strategy), result in sorted(sweep.results.items()):
        blob = result_to_json(result)
        blob["degradations"] = [
            d
            for d in blob["degradations"]
            if not d.startswith(_NOTE_PREFIX)
        ]
        if drop_tuning_runs:
            blob.pop("tuning_runs")
        blobs[f"{label}/{strategy}"] = blob
    return json.dumps(blobs, sort_keys=True)


def _service_notes(sweep) -> int:
    return sum(
        1
        for result in sweep.results.values()
        for d in result.degradations
        if d.startswith(_NOTE_PREFIX)
    )


def _run_sweep(app, spec, caps, args, *, service=None, telemetry=None):
    """One sweep pass (optionally against a service, optionally under
    telemetry); returns the PowerSweep."""
    plan = load_fault_plan(args.faults)
    kwargs = dict(
        repeats=args.repeats,
        seed=args.seed,
        fault_plan=plan,
        service=service,
    )
    if telemetry is None:
        return power_sweep(app, spec, caps, **kwargs)
    telemetry.mkdir(parents=True, exist_ok=True)
    with telemetry_session(
        JsonlSink(telemetry / "service_chaos.jsonl"),
        tool="service_chaos",
        app=app.label,
        machine=spec.name,
        service=service or "",
    ):
        return power_sweep(
            app,
            spec,
            caps,
            telemetry_dir=str(telemetry),
            **kwargs,
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0]
    )
    parser.add_argument("--app", default="synthetic")
    parser.add_argument("--workload", default=None)
    parser.add_argument("--machine", default="crill")
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--caps", type=float, nargs="+", default=[85.0],
        help="power caps (W) swept in each pass",
    )
    parser.add_argument(
        "--faults", default="examples/netfaults.json",
        help="fault plan armed on both the clients and the daemon",
    )
    parser.add_argument(
        "--telemetry-dir", default=None,
        help="write the faulted passes' telemetry JSONL here",
    )
    parser.add_argument(
        "--log-level", default=None,
        choices=("debug", "info", "warning", "error"),
    )
    args = parser.parse_args(argv)
    if args.log_level:
        configure(level=args.log_level)

    spec = machine_by_name(args.machine)
    app = application_by_name(args.app, args.workload)
    plan = load_fault_plan(args.faults)
    caps = tuple(args.caps)
    telemetry = (
        Path(args.telemetry_dir) if args.telemetry_dir else None
    )

    t0 = time.perf_counter()
    log.info(
        "service-less baseline pass",
        app=app.label,
        caps=list(caps),
        faults=args.faults,
    )
    baseline = _run_sweep(app, spec, caps, args)
    expected = _canonical(baseline)

    try:
        with tempfile.TemporaryDirectory() as tmp:
            with ThreadedDaemon(
                Path(tmp) / "store", fault_plan=plan
            ) as td:
                host, port = td.address
                address = f"{host}:{port}"
                log.info(
                    "cold faulted service pass", service=address
                )
                cold = _run_sweep(
                    app,
                    spec,
                    caps,
                    args,
                    service=address,
                    telemetry=telemetry,
                )
                if _canonical(cold) != expected:
                    raise AssertionError(
                        "cold service pass diverged from the "
                        "service-less baseline (beyond config-source "
                        "degradation notes)"
                    )

                log.info("warm faulted service pass", service=address)
                warm = _run_sweep(
                    app,
                    spec,
                    caps,
                    args,
                    service=address,
                    telemetry=telemetry,
                )
                if _canonical(
                    warm, drop_tuning_runs=True
                ) != _canonical(baseline, drop_tuning_runs=True):
                    raise AssertionError(
                        "warm service pass diverged from the "
                        "service-less baseline (beyond tuning_runs "
                        "and degradation notes)"
                    )

                # same process: read the daemon directly rather than
                # risking one last faulted network round-trip
                requests = td.daemon.requests
                store_stats = td.daemon.store.stats_json()
    except AssertionError as exc:
        log.error("service chaos FAIL", reason=str(exc))
        return 1

    log.info(
        "service chaos OK",
        cells=len(baseline.results),
        cold_fallback_notes=_service_notes(cold),
        warm_fallback_notes=_service_notes(warm),
        daemon_requests=requests,
        daemon_entries=store_stats["entries"],
        daemon_hits=store_stats["hits"],
        elapsed_s=round(time.perf_counter() - t0, 2),
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
