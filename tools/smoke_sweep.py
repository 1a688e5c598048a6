"""CI smoke target for the parallel cached sweep harness.

Runs the same sweep twice through a fresh cache: the first (cold) pass
populates it, the second (warm) pass must serve every cell from disk,
produce byte-identical results, and finish within a strict time
budget.  With ``--telemetry-dir`` a third, uncached pass runs with
telemetry enabled: it must produce the same results as the cold pass,
emit the JSONL logs and a Perfetto-loadable ``trace.json``, and stay
within ``--telemetry-overhead-factor`` of the disabled baseline.
Exit code 0 = pass, 1 = fail.

Usage::

    PYTHONPATH=src python tools/smoke_sweep.py
    PYTHONPATH=src python tools/smoke_sweep.py --app sp --workload B \
        --workers 4 --warm-budget-s 5 --telemetry-dir out/telemetry

Intended to run in CI alongside the tier-1 tests::

    PYTHONPATH=src python -m pytest -x -q && \
    PYTHONPATH=src python tools/smoke_sweep.py
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from pathlib import Path

from repro.experiments.cache import result_to_json
from repro.experiments.figures import power_sweep
from repro.experiments.journal import SweepJournal
from repro.experiments.parallel import ParallelSweepExecutor
from repro.experiments.runner import CRILL_POWER_LEVELS
from repro.machine.spec import machine_by_name
from repro.telemetry import (
    JsonlSink,
    export_chrome_trace,
    telemetry_session,
)
from repro.util.log import configure, get_logger
from repro.workloads.registry import application_by_name

log = get_logger("smoke")


def _encode(sweep) -> str:
    return json.dumps(
        {
            f"{label}/{strategy}": result_to_json(result)
            for (label, strategy), result in sorted(sweep.results.items())
        },
        sort_keys=True,
    )


def _telemetry_pass(app, spec, caps, args, telemetry_dir: Path):
    """One uncached sweep with the bus enabled; returns
    ``(sweep, elapsed_s)``.  The parent bus collects harness lifecycle
    events in ``sweep.jsonl``; each cell writes its own
    ``task-<runid>.jsonl``."""
    with telemetry_session(
        JsonlSink(telemetry_dir / "sweep.jsonl"),
        tool="smoke_sweep",
        app=app.label,
        machine=spec.name,
        repeats=args.repeats,
        workers=args.workers,
    ):
        t0 = time.perf_counter()
        sweep = power_sweep(
            app, spec, caps, repeats=args.repeats,
            executor=ParallelSweepExecutor(max_workers=args.workers),
            telemetry_dir=str(telemetry_dir),
        )
    return sweep, time.perf_counter() - t0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--app", default="sp")
    parser.add_argument("--workload", default="B")
    parser.add_argument("--machine", default="crill")
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument(
        "--cache-dir", default=None,
        help="cache directory (default: a fresh temp dir)",
    )
    parser.add_argument(
        "--warm-budget-s", type=float, default=5.0,
        help="max wall time allowed for the warm-cache rerun",
    )
    parser.add_argument(
        "--telemetry-dir", default=None,
        help="also run an uncached telemetry-enabled pass, writing "
        "JSONL logs and trace.json here",
    )
    parser.add_argument(
        "--telemetry-overhead-factor", type=float, default=1.5,
        help="fail if the telemetry-enabled pass takes more than this "
        "multiple of the disabled baseline (plus a small absolute "
        "grace for timer noise)",
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
    caps = (
        CRILL_POWER_LEVELS if spec.supports_power_cap else (spec.tdp_w,)
    )

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(args.cache_dir) if args.cache_dir else Path(tmp)
        t0 = time.perf_counter()
        cold = power_sweep(
            app, spec, caps, repeats=args.repeats,
            executor=ParallelSweepExecutor(
                max_workers=args.workers, journal=SweepJournal.in_dir(root)
            ),
        )
        t_cold = time.perf_counter() - t0

        warm_executor = ParallelSweepExecutor(
            max_workers=args.workers, journal=SweepJournal.in_dir(root)
        )
        t0 = time.perf_counter()
        warm = power_sweep(
            app, spec, caps, repeats=args.repeats, executor=warm_executor
        )
        t_warm = time.perf_counter() - t0

    cells = len(cold.results)
    log.info(
        "sweep smoke",
        app=app.label, machine=spec.name, cells=cells,
        cold_s=t_cold, warm_s=t_warm,
    )

    failures = []
    if _encode(warm) != _encode(cold):
        failures.append("warm-cache rerun differs from the cold sweep")
    if warm_executor.hits != cells or warm_executor.misses:
        failures.append(
            f"warm rerun was not fully cached "
            f"({warm_executor.hits}/{cells} hits, "
            f"{warm_executor.misses} misses)"
        )
    if t_warm > args.warm_budget_s:
        failures.append(
            f"warm rerun took {t_warm:.2f} s "
            f"(budget {args.warm_budget_s:.2f} s)"
        )

    if args.telemetry_dir:
        telemetry_dir = Path(args.telemetry_dir)
        telemetry_dir.mkdir(parents=True, exist_ok=True)
        traced, t_tel = _telemetry_pass(
            app, spec, caps, args, telemetry_dir
        )
        trace_path = export_chrome_trace(telemetry_dir)
        jsonl_files = sorted(telemetry_dir.glob("*.jsonl"))
        log.info(
            "telemetry pass",
            telemetry_s=t_tel, baseline_s=t_cold,
            files=len(jsonl_files), trace=str(trace_path),
        )
        if _encode(traced) != _encode(cold):
            failures.append(
                "telemetry-enabled sweep changed the measured results"
            )
        if not any(p.name.startswith("task-") for p in jsonl_files):
            failures.append(
                "telemetry pass produced no per-cell task-*.jsonl logs"
            )
        # 0.25 s absolute grace: sub-second CI baselines make a pure
        # ratio gate flaky on shared runners.
        budget = args.telemetry_overhead_factor * t_cold + 0.25
        if t_tel > budget:
            failures.append(
                f"telemetry-enabled sweep took {t_tel:.2f} s; budget "
                f"{budget:.2f} s "
                f"({args.telemetry_overhead_factor:.2f}x disabled "
                f"baseline {t_cold:.2f} s)"
            )

    for failure in failures:
        log.error("smoke FAIL", reason=failure)
    if not failures:
        log.info("smoke OK")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
