"""Host-time benchmark of the ARCS reproduction.

Run from the root of a repository checkout::

    python3 perfbench/run.py --workload sweep-sp --seed 0 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with no layer wrapped:
each iteration only marks a timeline at points every iteration passes
in the same order (see ``scenarios.Timeline``), and the times reported
sum each segment's fastest time over the run's iterations.
``--trace 1`` first runs untraced iterations for a third of the time,
then wraps every layer's public functions (see ``layers.py``) and
reports the per-layer metrics plus ``trace_overhead``.  The last line
of standard output is the result object; the line before it is the
run record (host facts, digests, per-iteration times), which is also
written under ``.perfbench/out/``.  See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("sweep-sp", "fleet-16", "service-mix")

#: seed whose result digests are recorded in reference.json.
REFERENCE_SEED = 0

#: fresh-interpreter set-up measurements per run, besides the run's own.
SETUP_PROBES = 4


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--small", action="store_true",
        help="reduced inputs for the self-test (no reference digests)",
    )
    parser.add_argument(
        "--update-reference", action="store_true",
        help=f"record this run's digests as the seed-{REFERENCE_SEED} "
             "reference instead of checking them",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def set_up(args: argparse.Namespace, scratch: Path):
    """Import the program, build the workload's inputs and do the first
    iteration's untimed set-up.  Returns the workload and the seconds
    that took."""
    start = time.perf_counter()
    import scenarios

    workload = scenarios.WORKLOADS[args.workload](args.seed, args.small, scratch)
    workload.prepare()
    return workload, time.perf_counter() - start


def probe_setup(args: argparse.Namespace) -> float:
    """Set-up time measured in a fresh interpreter, where imports are cold."""
    argv = [
        sys.executable, str(HERE / "run.py"), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--trace", "0",
    ]
    if args.small:
        argv.append("--small")
    done = subprocess.run(
        argv, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
    )
    return float(json.loads(done.stdout.splitlines()[-1])["setup_s"])


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a host-speed attribute
    recorded beside the metrics, never used to scale them."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    return time.perf_counter() - start


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def unit_of(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("ratio", "share", "overhead")):
        return "ratio"
    if metric.endswith("bytes"):
        return "bytes"
    return "count"


def fastest(timelines: list) -> list[float]:
    """Fastest time from the first mark to each mark: the sum of each
    segment's minimum over ``timelines``, which all passed the same
    marks.  Contention from other tenants of the host slows some
    segments of some iterations; the minimum keeps the runs in which it
    did not, and the sum still covers all of an iteration's work."""
    cumulative = [0.0]
    for k in range(1, len(timelines[0].times)):
        cumulative.append(cumulative[-1] + min(
            t.times[k] - t.times[k - 1] for t in timelines
        ))
    return cumulative


class Runner:
    """Times iterations of one workload and checks their results."""

    def __init__(self, workload, reference: dict | None) -> None:
        self.workload = workload
        self.reference = reference
        self.prepared = True  # set_up prepared the first iteration
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.records: list[dict] = []
        #: timelines of the untraced iterations that passed the same
        #: marks as the first one.
        self.timelines: list = []

    def iteration(self, tracer=None) -> None:
        import layers
        import scenarios

        workload = self.workload
        if not self.prepared:
            workload.prepare()
        self.prepared = False
        before = tracer.snapshot() if tracer else None
        timeline = scenarios.Timeline()
        timeline.mark()
        result = workload.iterate(timeline)
        timeline.mark()
        spans = layers.diff(tracer.snapshot(), before) if tracer else None
        workload.finish()
        failed = result.failed + self._mismatches(result)
        if tracer is None:
            if self.timelines and (
                len(timeline.times) != len(self.timelines[0].times)
                or timeline.ops != self.timelines[0].ops
            ):
                failed += 1  # it did other work than the first iteration
            else:
                self.timelines.append(timeline)
        self.attempted += result.attempted
        self.failed += failed
        latencies = timeline.latencies()
        record = {
            "traced": tracer is not None,
            "wall_s": timeline.times[-1] - timeline.times[0],
            "marks": len(timeline.times),
            "attempted": result.attempted,
            "failed": failed,
            "digest": result.digest,
            "p50_s": percentile(latencies, 50),
            "p99_s": percentile(latencies, 99),
        }
        if tracer is not None:
            record["layers"] = layers.layer_metrics(spans, result.extra)
            record["spans"] = spans
        self.records.append(record)

    def _mismatches(self, result) -> int:
        """Ops whose result differs from the reference digests (for the
        reference seed) or from this run's first iteration."""
        if result.digest is None:
            return 0
        if self.first is None:
            self.first = result
        expected = self.reference or {
            "digest": self.first.digest, "cells": self.first.op_digests,
        }
        if result.op_digests:
            return sum(
                expected["cells"].get(op) != digest
                for op, digest in result.op_digests.items()
            )
        return int(result.digest != expected["digest"])

    def run_until(
        self, seconds: float, started: float, at_least: int, tracer=None
    ) -> None:
        """Run ``at_least`` iterations, then more while one as long as
        the last would end within ``seconds`` of ``started``."""
        for done in itertools.count(1):
            self.iteration(tracer)
            elapsed = time.perf_counter() - started
            if done >= at_least and elapsed + self.records[-1]["wall_s"] > seconds:
                return


def measure(args: argparse.Namespace, scratch: Path) -> int:
    calibration_s = calibrate()
    setup_samples = [probe_setup(args) for _ in range(SETUP_PROBES)]
    workload, own_setup_s = set_up(args, scratch)
    setup_samples.append(own_setup_s)
    import layers

    reference = None
    if (
        args.seed == REFERENCE_SEED
        and not args.small
        and not args.update_reference
    ):
        reference = json.loads(REFERENCE.read_text()).get(args.workload)
    runner = Runner(workload, reference)
    started = time.perf_counter()
    if args.trace:
        runner.run_until(args.seconds / 3, started, 1)
        tracer = layers.Tracer()
        tracer.install()
        try:
            runner.run_until(args.seconds, started, 1, tracer)
        finally:
            tracer.uninstall()
    else:
        # the fastest-segment sum needs at least two iterations
        runner.run_until(args.seconds, started, 2)

    untraced = [r for r in runner.records if not r["traced"]]
    traced = [r for r in runner.records if r["traced"]]
    if args.trace:
        values = {
            name: statistics.median_low(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        values["trace_overhead"] = (
            statistics.median(r["wall_s"] for r in traced)
            / statistics.median(r["wall_s"] for r in untraced)
        )
    else:
        best = fastest(runner.timelines)
        op_s = [best[b] - best[a] for a, b in runner.timelines[0].ops]
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": best[-1],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "req_p50_ms": 1e3 * statistics.median(op_s),
        }

    if args.update_reference:
        if runner.failed or runner.first is None:
            raise SystemExit("error: a run with failed ops cannot be a reference")
        blob = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        blob[args.workload] = {
            "seed": REFERENCE_SEED, "digest": runner.first.digest,
            "cells": runner.first.op_digests,
        }
        REFERENCE.write_text(json.dumps(blob, indent=2, sort_keys=True) + "\n")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "small": args.small,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "calibration_s": calibration_s,
        "setup_samples_s": setup_samples,
        "digest": runner.first.digest if runner.first else None,
        "reference_checked": reference is not None,
        "iterations": runner.records,
    }
    out = WORK / "out"
    out.mkdir(parents=True, exist_ok=True)
    suffix = "-small" if args.small else ""
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    brief = {k: v for k, v in record.items() if k != "iterations"}
    brief["walls_s"] = [r["wall_s"] for r in runner.records]
    print(json.dumps({"record": brief}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in values.items()
        },
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK / "tmp"))
    try:
        if args.setup_probe:
            workload, seconds = set_up(args, scratch)
            workload.finish()
            print(json.dumps({"setup_s": seconds}))
            return 0
        return measure(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
