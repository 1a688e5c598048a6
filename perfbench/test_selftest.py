"""Self-test of the benchmark on reduced inputs.

Run from the repository root (it is outside the tier-1 ``tests/``
tree, so the default pytest run does not collect it)::

    python3 -m pytest perfbench -q

Each workload runs traced twice with ``--small``.  The test shows that
every per-layer metric is nonzero on the workload marked heavy for it,
that call counts repeat exactly between the two runs, and that the
summed self time of an iteration never exceeds its wall time.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: per-layer metric -> the workloads it must be nonzero on.
HEAVY = {
    "openmp.execute.calls": ("sweep-sp",),
    "openmp.execute.self_s": ("sweep-sp",),
    "openmp.schedule.self_s": ("sweep-sp",),
    "openmp.prefetch.calls": ("sweep-sp",),
    "openmp.prefetch.self_s": ("sweep-sp",),
    "openmp.memo.hit_ratio": ("fleet-16",),
    "openmp.parallel_for.calls": ("fleet-16",),
    "openmp.parallel_for.self_s": ("fleet-16",),
    "openmp.ompt.dispatch.calls": ("fleet-16",),
    "openmp.ompt.dispatch.self_s": ("fleet-16",),
    "machine.calls": ("fleet-16", "sweep-sp"),
    "machine.self_s": ("fleet-16", "sweep-sp"),
    "apex.timer.calls": ("fleet-16",),
    "apex.self_s": ("fleet-16",),
    "core.policy.calls": ("fleet-16", "sweep-sp"),
    "core.policy.self_s": ("fleet-16", "sweep-sp"),
    "harmony.suggest.calls": ("sweep-sp",),
    "harmony.report.calls": ("sweep-sp",),
    "harmony.self_s": ("sweep-sp",),
    "harmony.evals_per_region": ("sweep-sp",),
    "workloads.run_application.calls": ("sweep-sp", "fleet-16"),
    "workloads.run_application.self_s": ("sweep-sp", "fleet-16"),
    "experiments.task.calls": ("sweep-sp",),
    "experiments.task.total_s": ("sweep-sp",),
    "experiments.journal.append.calls": ("sweep-sp",),
    "experiments.journal.append.self_s": ("sweep-sp",),
    "experiments.journal.bytes": ("sweep-sp",),
    "fleet.steps": ("fleet-16",),
    "fleet.tune.calls": ("fleet-16",),
    "fleet.tune.total_s": ("fleet-16",),
    "fleet.allocator.self_s": ("fleet-16",),
    "fleet.membership.self_s": ("fleet-16",),
    "fleet.journal.append.self_s": ("fleet-16",),
    "fleet.journal.bytes": ("fleet-16",),
    "faults.draw.calls": ("fleet-16",),
    "obs.traced_span.calls": ("fleet-16",),
    "service.request.calls": ("service-mix",),
    "service.request.total_s": ("service-mix",),
    "service.wire_share": ("service-mix",),
    "service.store.get.self_s": ("service-mix",),
    "service.store.put.self_s": ("service-mix",),
    "service.store.flush.calls": ("service-mix",),
    "service.store.flush.self_s": ("service-mix",),
    "service.store.hit_ratio": ("service-mix",),
    "trace_overhead": ("sweep-sp", "fleet-16", "service-mix"),
}

#: per-layer metrics whose value is zero by design on this workload
#: mix: no fault plan is armed against the service client.
ALWAYS_ZERO = {"service.retries"}

WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])


def reduced_run(workload: str, trace: int) -> tuple[dict, dict]:
    """One run on reduced inputs: (result object, run record)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "2", "--trace", str(trace), "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    record = ROOT / ".perfbench" / "out" / f"{workload}-seed0-trace{trace}-small.json"
    return result, json.loads(record.read_text())


@pytest.fixture(scope="module", params=WORKLOADS)
def two_runs(request):
    return request.param, reduced_run(request.param, 1), reduced_run(request.param, 1)


def test_results_are_correct(two_runs):
    _, (first, _), (second, _) = two_runs
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1


def test_every_layer_metric_is_reported(two_runs):
    _, (first, _), _ = two_runs
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert set(declared) == set(HEAVY) | ALWAYS_ZERO
    assert {n: m["unit"] for n, m in first["metrics"].items()} == declared


def test_end_to_end_metrics_are_reported():
    result, _ = reduced_run("service-mix", 0)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_heavy_layers_are_nonzero(two_runs):
    workload, (first, _), _ = two_runs
    zero = [
        name for name, heavy in HEAVY.items()
        if workload in heavy and not first["metrics"][name]["value"] > 0
    ]
    assert not zero


def test_counts_repeat_exactly(two_runs):
    _, (first, _), (second, _) = two_runs
    differ = {
        name: (metric["value"], second["metrics"][name]["value"])
        for name, metric in first["metrics"].items()
        if metric["unit"] in ("count", "bytes")
        and metric["value"] != second["metrics"][name]["value"]
    }
    assert not differ


def test_self_time_within_wall_time(two_runs):
    _, (_, first), (_, second) = two_runs
    for record in (first, second):
        traced = [it for it in record["iterations"] if it["traced"]]
        assert traced
        for it in traced:
            self_s = sum(span[1] for span in it["spans"].values())
            assert 0 < self_s <= it["wall_s"]


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits nonzero
    without printing a result."""
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-sp",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
