"""Per-layer host-time attribution, installed from outside the program.

The benchmark never edits ``repro``: it replaces the public functions
of each layer with timing wrappers, at every name a caller looks up
(the class attribute for methods; every ``repro.*`` module attribute
bound to the original for module functions, because modules such as
``repro.openmp.engine`` bind ``chunks_for`` at import time).

Each thread keeps its own span stack, since the service daemon runs
on its own thread (and the fleet's tunes do under its threaded
fan-out).  A span's self time is the CPU time its thread spent inside
it (``time.thread_time``: user plus system) minus that of the wrapped
spans it directly encloses.  CPU time, not wall time, because a thread
blocked on the GIL or on a reply (a service client waiting for the
daemon) would otherwise be charged for work another thread did, and
self times would add up to more than the wall time.  The price: time
a span spends blocked in the kernel, such as an fsync, is not in its
self time.  A span's total time is wall-clock and inclusive, counted
only for the outermost span of that name on the stack.  Spans are
folded into per-thread tallies in memory as they close and read out
between iterations, when no other thread is inside a span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
from time import perf_counter, thread_time

#: (span name, module, class or None, attribute names or None).
#: ``None`` attributes mean every public plain function of the class.
TIMED = (
    ("machine", "repro.machine.node", "SimulatedNode", None),
    ("machine", "repro.machine.rapl", "Rapl", None),
    ("machine", "repro.machine.msr", "MsrFile", None),
    ("openmp.execute", "repro.openmp.engine", "ExecutionEngine", ("execute",)),
    ("openmp.prefetch", "repro.openmp.engine", "ExecutionEngine", ("prefetch",)),
    ("openmp.prefetch.evaluate", "repro.openmp.batch", "BatchEvaluator",
     ("evaluate",)),
    ("openmp.schedule", "repro.openmp.schedule", None,
     ("chunks_for", "chunk_bounds", "average_chunk_iters")),
    ("openmp.parallel_for", "repro.openmp.runtime", "OpenMPRuntime",
     ("parallel_for",)),
    ("openmp.ompt.dispatch", "repro.openmp.ompt", "OmptInterface",
     ("dispatch",)),
    ("apex.timer", "repro.apex.policy", "PolicyEngine",
     ("timer_started", "timer_stopped")),
    ("core.policy", "repro.core.policy", "ArcsPolicy",
     ("on_timer_start", "on_timer_stop")),
    ("harmony.suggest", "repro.harmony.session", "TuningSession", ("suggest",)),
    ("harmony.report", "repro.harmony.session", "TuningSession", ("report",)),
    ("workloads.run_application", "repro.workloads.base", None,
     ("run_application",)),
    ("experiments.task", "repro.experiments.parallel", None,
     ("run_sweep_task",)),
    ("experiments.journal.append", "repro.experiments.journal",
     "SweepJournal", ("append",)),
    ("fleet.tune", "repro.fleet.node", "NodeCell", ("tune",)),
    ("fleet.allocator", "repro.fleet.allocator", "BudgetAllocator", None),
    ("fleet.membership", "repro.fleet.membership", "MembershipTracker", None),
    ("fleet.journal.append", "repro.fleet.journal", "FleetJournal",
     ("append_snapshot",)),
    ("service.request", "repro.service.client", "ServiceClient", ("request",)),
    ("service.store.get", "repro.service.store", "ServiceStore", ("get",)),
    ("service.store.put", "repro.service.store", "ServiceStore", ("put",)),
    ("service.store.flush", "repro.service.store", "ServiceStore", ("flush",)),
)

#: wrapped for a call count only: the wrapper would cost more than the
#: (disabled) hook it wraps, so timing them would only measure itself.
COUNTED = (
    ("harmony.session", "repro.harmony.session", "TuningSession",
     ("__init__",)),
    ("faults.draw", "repro.faults.inject", "FaultInjector", ("draw",)),
    ("obs.traced_span", "repro.obs.trace", None, ("traced_span",)),
)


class _ThreadTally:
    """One thread's span stack and per-name [calls, self_s, total_s,
    depth] tallies."""

    def __init__(self) -> None:
        self.stack: list[list[float]] = []
        self.tally: dict[str, list] = {}

    def record(self, name: str) -> list:
        rec = self.tally.get(name)
        if rec is None:
            rec = self.tally[name] = [0, 0.0, 0.0, 0]
        return rec


class Tracer:
    """Installs the wrappers and sums the tallies of every thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadTally] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _new_thread(self) -> _ThreadTally:
        tally = self._local.tally = _ThreadTally()
        with self._lock:
            self._threads.append(tally)
        return tally

    def _timed(self, name: str, fn):
        local = self._local
        new_thread = self._new_thread

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                state = local.tally
            except AttributeError:
                state = new_thread()
            rec = state.record(name)
            stack = state.stack
            frame = [0.0]
            stack.append(frame)
            rec[3] += 1
            wall_start = perf_counter()
            cpu_start = thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                cpu = thread_time() - cpu_start
                wall = perf_counter() - wall_start
                stack.pop()
                if stack:
                    stack[-1][0] += cpu
                rec[3] -= 1
                rec[0] += 1
                rec[1] += cpu - frame[0]
                if rec[3] == 0:
                    rec[2] += wall

        return wrapper

    def _counted(self, name: str, fn):
        local = self._local
        new_thread = self._new_thread

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                state = local.tally
            except AttributeError:
                state = new_thread()
            state.record(name)[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer function listed in TIMED and COUNTED."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for specs, make in ((TIMED, self._timed), (COUNTED, self._counted)):
            for name, module_name, class_name, attrs in specs:
                module = importlib.import_module(module_name)
                if class_name is None:
                    for attr in attrs:
                        self._patch_function(module, attr, make(name, getattr(module, attr)))
                    continue
                cls = getattr(module, class_name)
                for attr in attrs or _public_functions(cls):
                    original = cls.__dict__[attr]
                    self._patches.append((cls, attr, original))
                    setattr(cls, attr, make(name, original))

    def _patch_function(self, home, attr: str, wrapper) -> None:
        original = getattr(home, attr)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, tuple[int, float, float]]:
        """Summed (calls, self_s, total_s) per span name, all threads.

        Read it only while no other thread is inside a wrapped call
        (between iterations): tallies are not locked.
        """
        out: dict[str, list] = {}
        with self._lock:
            threads = list(self._threads)
        for thread in threads:
            for name, (calls, self_s, total_s, _depth) in list(
                thread.tally.items()
            ):
                acc = out.setdefault(name, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += self_s
                acc[2] += total_s
        return {name: tuple(v) for name, v in out.items()}


def _public_functions(cls) -> list[str]:
    return [
        attr
        for attr, value in vars(cls).items()
        if not attr.startswith("_") and inspect.isfunction(value)
    ]


def diff(after: dict, before: dict) -> dict[str, tuple[int, float, float]]:
    """Per-name tallies accumulated between two snapshots."""
    out = {}
    for name, (calls, self_s, total_s) in after.items():
        b = before.get(name, (0, 0.0, 0.0))
        out[name] = (calls - b[0], self_s - b[1], total_s - b[2])
    return out


def layer_metrics(spans: dict, extra: dict) -> dict[str, float]:
    """The per-layer metrics of one traced iteration.

    ``spans`` is one iteration's :func:`diff`; ``extra`` holds what the
    workload read from the program itself: ``memo_hits``/``memo_misses``
    (``batch.memo_stats()``), ``fleet_steps``, ``journal_bytes``,
    ``fleet_journal_bytes``, ``store_hits``/``store_misses`` and
    ``retries``.
    """

    def calls(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[0] for n in names)

    def self_s(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[1] for n in names)

    def total_s(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    def ratio(num, den):
        return num / den if den else 0.0

    store = ("service.store.get", "service.store.put", "service.store.flush")
    request_s = total_s("service.request")
    return {
        "openmp.execute.calls": calls("openmp.execute"),
        "openmp.execute.self_s": self_s("openmp.execute"),
        "openmp.schedule.self_s": self_s("openmp.schedule"),
        "openmp.prefetch.calls": calls("openmp.prefetch"),
        "openmp.prefetch.self_s": self_s(
            "openmp.prefetch", "openmp.prefetch.evaluate"
        ),
        "openmp.memo.hit_ratio": ratio(
            extra.get("memo_hits", 0),
            extra.get("memo_hits", 0) + extra.get("memo_misses", 0),
        ),
        "openmp.parallel_for.calls": calls("openmp.parallel_for"),
        "openmp.parallel_for.self_s": self_s("openmp.parallel_for"),
        "openmp.ompt.dispatch.calls": calls("openmp.ompt.dispatch"),
        "openmp.ompt.dispatch.self_s": self_s("openmp.ompt.dispatch"),
        "machine.calls": calls("machine"),
        "machine.self_s": self_s("machine"),
        "apex.timer.calls": calls("apex.timer"),
        "apex.self_s": self_s("apex.timer"),
        "core.policy.calls": calls("core.policy"),
        "core.policy.self_s": self_s("core.policy"),
        "harmony.suggest.calls": calls("harmony.suggest"),
        "harmony.report.calls": calls("harmony.report"),
        "harmony.self_s": self_s("harmony.suggest", "harmony.report"),
        "harmony.evals_per_region": ratio(
            calls("harmony.report"), calls("harmony.session")
        ),
        "workloads.run_application.calls": calls("workloads.run_application"),
        "workloads.run_application.self_s": self_s(
            "workloads.run_application"
        ),
        "experiments.task.calls": calls("experiments.task"),
        "experiments.task.total_s": total_s("experiments.task"),
        "experiments.journal.append.calls": calls(
            "experiments.journal.append"
        ),
        "experiments.journal.append.self_s": self_s(
            "experiments.journal.append"
        ),
        "experiments.journal.bytes": extra.get("journal_bytes", 0),
        "fleet.steps": extra.get("fleet_steps", 0),
        "fleet.tune.calls": calls("fleet.tune"),
        "fleet.tune.total_s": total_s("fleet.tune"),
        "fleet.allocator.self_s": self_s("fleet.allocator"),
        "fleet.membership.self_s": self_s("fleet.membership"),
        "fleet.journal.append.self_s": self_s("fleet.journal.append"),
        "fleet.journal.bytes": extra.get("fleet_journal_bytes", 0),
        "faults.draw.calls": calls("faults.draw"),
        "obs.traced_span.calls": calls("obs.traced_span"),
        "service.request.calls": calls("service.request"),
        "service.request.total_s": request_s,
        "service.retries": extra.get("retries", 0),
        # store spans nest only inside each other (put -> flush), so
        # their summed self time is the store's inclusive time.
        "service.wire_share": (
            1.0 - self_s(*store) / request_s if request_s else 0.0
        ),
        "service.store.get.self_s": self_s("service.store.get"),
        "service.store.put.self_s": self_s("service.store.put"),
        "service.store.flush.calls": calls("service.store.flush"),
        "service.store.flush.self_s": self_s("service.store.flush"),
        "service.store.hit_ratio": ratio(
            extra.get("store_hits", 0),
            extra.get("store_hits", 0) + extra.get("store_misses", 0),
        ),
    }
