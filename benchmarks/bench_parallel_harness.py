"""The parallel cached experiment harness on the Figure 4 workload:
SP-B on Crill across all five power levels.

Three configurations of the same sweep are timed and must produce
byte-identical results:

* **serial**   - ``workers=1``, no cache (the original code path);
* **parallel** - ``workers=4``, cold cache;
* **warm**     - ``workers=4``, warm cache (every cell replayed from
  ``results/.cache``-style storage, zero tuning runs executed).

The parallel speedup target (>= 3x at 4 workers) is only asserted on
machines with at least 4 CPUs - pool fan-out cannot beat serial on a
single core - while the warm-cache rerun must always be >= 3x faster
than the cold serial sweep (in practice it is orders of magnitude
faster).  Override the parallel target with
``REPRO_BENCH_MIN_SPEEDUP=<float>``.
"""

from __future__ import annotations

import json
import os
import time

from repro.experiments.cache import result_to_json
from repro.experiments.figures import power_sweep
from repro.experiments.journal import SweepJournal
from repro.experiments.parallel import ParallelSweepExecutor
from repro.experiments.runner import CRILL_POWER_LEVELS
from repro.machine.spec import crill
from repro.workloads.sp import sp_application

REPEATS = 3
WORKERS = 4


def _encode(sweep) -> str:
    """Canonical byte representation of every cell's summary."""
    return json.dumps(
        {
            f"{label}/{strategy}": result_to_json(result)
            for (label, strategy), result in sorted(sweep.results.items())
        },
        sort_keys=True,
    )


def _run_comparison(cache_root) -> dict:
    app = sp_application("B")
    spec = crill()

    t0 = time.perf_counter()
    serial = power_sweep(
        app, spec, CRILL_POWER_LEVELS, repeats=REPEATS
    )
    t_serial = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = power_sweep(
        app, spec, CRILL_POWER_LEVELS, repeats=REPEATS,
        executor=ParallelSweepExecutor(
            max_workers=WORKERS, journal=SweepJournal.in_dir(cache_root)
        ),
    )
    t_parallel = time.perf_counter() - t0

    warm_executor = ParallelSweepExecutor(
        max_workers=WORKERS, journal=SweepJournal.in_dir(cache_root)
    )
    t0 = time.perf_counter()
    warm = power_sweep(
        app, spec, CRILL_POWER_LEVELS, repeats=REPEATS,
        executor=warm_executor,
    )
    t_warm = time.perf_counter() - t0

    return {
        "t_serial": t_serial,
        "t_parallel": t_parallel,
        "t_warm": t_warm,
        "serial_blob": _encode(serial),
        "parallel_blob": _encode(parallel),
        "warm_blob": _encode(warm),
        "warm_hits": warm_executor.hits,
        "warm_misses": warm_executor.misses,
        "cells": len(serial.results),
    }


def test_parallel_harness(benchmark, save_result, tmp_path):
    stats = benchmark.pedantic(
        _run_comparison, args=(tmp_path / "cache",),
        rounds=1, iterations=1,
    )

    # correctness: all three paths are byte-identical
    assert stats["parallel_blob"] == stats["serial_blob"]
    assert stats["warm_blob"] == stats["serial_blob"]
    # the warm rerun served every cell from the cache: no tuning runs,
    # no measurements executed
    assert stats["warm_hits"] == stats["cells"]
    assert stats["warm_misses"] == 0

    parallel_speedup = stats["t_serial"] / stats["t_parallel"]
    warm_speedup = stats["t_serial"] / stats["t_warm"]
    assert warm_speedup >= 3.0

    min_speedup = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "3.0"))
    cpus = os.cpu_count() or 1
    if cpus >= WORKERS:
        assert parallel_speedup >= min_speedup

    # wall-clock timings are machine-dependent: recorded as info, gated
    # by the asserts above
    save_result(
        "bench_parallel_harness",
        "\n".join(
            [
                "Parallel cached harness: SP-B on Crill, "
                f"{len(CRILL_POWER_LEVELS)} power levels x 3 strategies "
                f"({stats['cells']} cells, repeats={REPEATS})",
                f"  serial (1 worker, no cache) : "
                f"{stats['t_serial']:8.2f} s",
                f"  parallel ({WORKERS} workers, cold)  : "
                f"{stats['t_parallel']:8.2f} s  "
                f"({parallel_speedup:.2f}x, {cpus} CPU(s) available)",
                f"  warm cache rerun            : "
                f"{stats['t_warm']:8.2f} s  ({warm_speedup:.1f}x, "
                f"{stats['warm_hits']}/{stats['cells']} cells cached)",
            ]
        ),
        metrics={
            "t_serial_s": {"value": stats["t_serial"],
                           "direction": "info", "unit": "s"},
            "t_parallel_s": {"value": stats["t_parallel"],
                             "direction": "info", "unit": "s"},
            "t_warm_s": {"value": stats["t_warm"],
                         "direction": "info", "unit": "s"},
            "parallel_speedup": {"value": parallel_speedup,
                                 "direction": "info", "unit": "x"},
            "warm_speedup": {"value": warm_speedup,
                             "direction": "info", "unit": "x"},
            "warm_hits": {"value": float(stats["warm_hits"]),
                          "direction": "higher"},
            "warm_misses": {"value": float(stats["warm_misses"]),
                            "direction": "lower"},
        },
        machine="crill",
        config={"repeats": REPEATS, "workers": WORKERS,
                "cells": stats["cells"]},
    )
