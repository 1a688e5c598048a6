"""The benchmark's three workloads, driven through repro's public API.

Each workload builds its inputs from the benchmark seed, then runs
iterations that all start from the same state: evaluation memo
cleared, a fresh garbage-collector generation, fresh temporary
directories for journals and the store, no result cache and the
telemetry bus off.  An iteration marks a :class:`Timeline` as it goes
and returns the ops it attempted, how many failed and a digest of its
results.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import random
import shutil
import tempfile
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.config import config_from_point, search_space_for
from repro.experiments import parallel
from repro.experiments.cache import result_to_json
from repro.experiments.figures import power_sweep
from repro.experiments.journal import SweepJournal
from repro.experiments.runner import ExperimentSetup
from repro.faults.plan import load_fault_plan
from repro.fleet import (
    FleetJournal,
    FleetSimulation,
    fleet_result_to_json,
    synthesize_fleet,
)
from repro.machine.spec import crill
from repro.openmp import batch
from repro.openmp.runtime import OpenMPRuntime
from repro.service.client import ServiceClient, ServiceError
from repro.service.daemon import ThreadedDaemon
from repro.service.source import config_key, entry_to_payload
from repro.telemetry.bus import bus
from repro.workloads.registry import application_by_name

HERE = Path(__file__).resolve().parent


def digest_of(blob: object) -> str:
    text = json.dumps(blob, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Timeline:
    """Timestamps taken at points every iteration of a workload passes
    in the same order, and the ops among them as (first, last) mark.

    The iterations of a run repeat the same work, so segment ``k`` (mark
    ``k`` to mark ``k + 1``) of one iteration does what segment ``k`` of
    any other does; run.py takes each segment's fastest time over the
    iterations.  Marks are a list append each, so a run can take tens of
    thousands of them.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.ops: list[tuple[int, int]] = []

    def mark(self) -> int:
        self.times.append(time.perf_counter())
        return len(self.times) - 1

    def op(self, start: int) -> None:
        """End the op that began at mark ``start``."""
        self.ops.append((start, self.mark()))

    def latencies(self) -> list[float]:
        return [self.times[b] - self.times[a] for a, b in self.ops]


@contextmanager
def marking_regions(timeline: Timeline):
    """Mark the start of every region invocation
    (``OpenMPRuntime.parallel_for``), the finest point a single-threaded
    simulation passes in a fixed order."""
    original = OpenMPRuntime.__dict__["parallel_for"]
    mark = timeline.mark

    @functools.wraps(original)
    def parallel_for(self, region):
        mark()
        return original(self, region)

    OpenMPRuntime.parallel_for = parallel_for
    try:
        yield
    finally:
        OpenMPRuntime.parallel_for = original


@dataclass
class Iteration:
    """What one timed iteration did."""

    attempted: int
    failed: int
    digest: str | None
    #: per-op digests (sweep cells), compared one by one.
    op_digests: dict[str, str] = field(default_factory=dict)
    #: program-side counters read after the iteration, for the trace.
    extra: dict[str, float] = field(default_factory=dict)


class Workload:
    """One workload: ``prepare`` (untimed), ``iterate`` (timed, marking
    the timeline it is given), ``finish`` (untimed) per iteration."""

    name = ""

    def __init__(self, seed: int, small: bool, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self.tmp: Path | None = None

    def prepare(self) -> None:
        if bus().enabled:
            raise RuntimeError("telemetry bus must be off while measuring")
        batch.clear_memo()
        # collector generations start empty, so collections fall at the
        # same points of every iteration
        gc.collect()
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.scratch))

    def iterate(self, timeline: Timeline) -> Iteration:
        raise NotImplementedError

    def finish(self) -> None:
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None

    def _memo_extra(self) -> dict[str, float]:
        stats = batch.memo_stats()
        return {"memo_hits": stats["hits"], "memo_misses": stats["misses"]}


class SweepSp(Workload):
    """Serial journaled power sweep of SP-B on Crill (9 cells)."""

    name = "sweep-sp"

    def __init__(self, seed, small, scratch):
        super().__init__(seed, small, scratch)
        if small:
            self.app, self.caps = application_by_name("synthetic"), (85.0,)
        else:
            self.app, self.caps = application_by_name("sp", "B"), (55.0, 85.0, 115.0)
        self.spec = crill()

    def iterate(self, timeline):
        # looked up now, so the traced run gets the wrapped function
        run_task = parallel.run_sweep_task

        def timed_task(task):
            start = timeline.mark()
            try:
                return run_task(task)
            finally:
                timeline.op(start)

        journal_path = self.tmp / "sweep.jsonl"
        executor = parallel.ParallelSweepExecutor(
            max_workers=1,
            journal=SweepJournal(journal_path),
            task_fn=timed_task,
        )
        cells = len(self.caps) * 3
        try:
            with marking_regions(timeline):
                sweep = power_sweep(
                    self.app, self.spec, self.caps, repeats=1, seed=self.seed,
                    executor=executor,
                )
        except Exception:  # every error is a failed op, not a crash
            traceback.print_exc()
            return Iteration(cells, cells, None)
        op_digests = {
            f"{cap}/{strategy}": digest_of(result_to_json(result))
            for (cap, strategy), result in sorted(sweep.results.items())
        }
        extra = self._memo_extra()
        extra["journal_bytes"] = journal_path.stat().st_size
        return Iteration(cells, 0, digest_of(op_digests), op_digests, extra)


class Fleet16(Workload):
    """16-node synthesized fleet with the fleet fault plan armed, tuning
    one node at a time so that its region invocations come in a fixed
    order and can be marked."""

    name = "fleet-16"

    def __init__(self, seed, small, scratch):
        super().__init__(seed, small, scratch)
        self.plan = synthesize_fleet(4 if small else 16, seed=seed)
        self.faults = load_fault_plan(HERE / "inputs" / "fleetfaults.json")

    def iterate(self, timeline):
        journal_path = self.tmp / "fleet.jsonl"
        sim = FleetSimulation(
            self.plan, self.faults, journal=FleetJournal(journal_path),
            concurrency=1,
        )
        start = timeline.mark()
        try:
            with marking_regions(timeline):
                result = sim.run()
        except Exception:  # every error is a failed op, not a crash
            traceback.print_exc()
            return Iteration(1, 1, None)
        finally:
            timeline.op(start)
        extra = self._memo_extra()
        extra["fleet_steps"] = result.steps
        extra["fleet_journal_bytes"] = journal_path.stat().st_size
        return Iteration(
            1, 0, digest_of(fleet_result_to_json(result)), extra=extra
        )


#: applications whose region names the service payloads carry.
_SERVICE_APPS = (("sp", "B"), ("bt", "B"), ("lulesh", "45"))
_SERVICE_CAPS = (55.0, 70.0, 85.0, 100.0, None)


class ServiceMix(Workload):
    """One closed-loop client: ~80% get / ~20% put of tuned-config
    payloads over a fixed key population, against a fresh daemon."""

    name = "service-mix"

    def __init__(self, seed, small, scratch):
        super().__init__(seed, small, scratch)
        rng = random.Random(seed)
        n_keys, n_requests = (128, 600) if small else (256, 2000)
        spec = crill()
        space = search_space_for(spec)
        points = list(space.iter_indices())
        apps = [application_by_name(*a) for a in _SERVICE_APPS]
        contexts = []
        for _ in range(n_keys):
            app = rng.choice(apps)
            setup = ExperimentSetup(
                spec=spec, cap_w=rng.choice(_SERVICE_CAPS), repeats=1,
                seed=rng.randrange(1 << 30),
            )
            contexts.append((config_key(app, setup), app.region_names()))
        self.ops: list[tuple[str, str, dict | None]] = []
        for _ in range(n_requests):
            key, regions = rng.choice(contexts)
            if rng.random() < 0.2:
                configs = {
                    r: config_from_point(space.decode(rng.choice(points)))
                    for r in regions
                }
                values = {r: rng.uniform(1e-4, 0.5) for r in regions}
                payload = entry_to_payload(key, (configs, values))
                self.ops.append(("put", key.digest, payload))
            else:
                self.ops.append(("get", key.digest, None))
        self.daemon: ThreadedDaemon | None = None
        self.retries = 0

    def prepare(self):
        super().prepare()
        self.daemon = ThreadedDaemon(self.tmp / "store").start()

    def _sleep(self, seconds: float) -> None:
        # the client sleeps only to back off before a retry
        self.retries += 1
        time.sleep(seconds)

    def iterate(self, timeline):
        client = ServiceClient(self.daemon.address, sleep=self._sleep)
        model: dict[str, dict] = {}
        failed = 0
        self.retries = 0
        for op, key, payload in self.ops:
            start = timeline.mark()
            try:
                if op == "put":
                    client.put(key, payload)
                    got = None
                else:
                    got = client.get(key)
            except ServiceError:
                timeline.op(start)
                failed += 1
                continue
            timeline.op(start)
            if op == "put":
                model[key] = payload
            elif got != model.get(key):
                failed += 1
        stats = self.daemon.daemon.store.stats
        extra = {
            "store_hits": stats.hits,
            "store_misses": stats.misses,
            "retries": self.retries,
        }
        return Iteration(len(self.ops), failed, None, extra=extra)

    def finish(self):
        if self.daemon is not None:
            # stop() joins with a timeout and then forgets the thread;
            # keep it to check that the daemon really ended
            thread = self.daemon._thread
            self.daemon.stop()
            if thread is not None and thread.is_alive():
                raise RuntimeError("service daemon thread did not stop")
            self.daemon = None
        super().finish()


WORKLOADS = {
    cls.name: cls for cls in (SweepSp, Fleet16, ServiceMix)
}
