"""Process-pool sweep execution with memoized results.

``power_sweep`` historically ran its (strategy x cap) grid strictly
serially in one process and re-ran exhaustive tuning from scratch on
every invocation.  This module supplies the two missing pieces:

* :class:`ParallelSweepExecutor` fans independent sweep cells out over
  a :class:`concurrent.futures.ProcessPoolExecutor` with a per-task
  timeout and bounded retry, falling back to exact in-process serial
  execution at ``max_workers=1`` (the determinism-test path);
* each cell is checked against an :class:`~repro.experiments.cache.
  ExperimentCache` first, and offline cells share one on-disk tuned
  :class:`~repro.core.history.HistoryStore` per (app, machine, cap) so
  exhaustive tuning runs once, not once per caller.

Every task is a pure function of its :class:`SweepTask` spec, so
results are bit-identical whether computed inline, in a worker
process, or replayed from the cache.
"""

from __future__ import annotations

import functools
import hashlib
import time
import traceback
from collections.abc import Callable, Sequence
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
)
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, replace
from pathlib import Path

from repro.core.history import CorruptHistoryError, HistoryStore
from repro.experiments.cache import ExperimentCache, experiment_digest
from repro.experiments.journal import SweepJournal
from repro.experiments.runner import (
    ExperimentSetup,
    StrategyRunResult,
    TuningDidNotConverge,
    run_strategy,
)
from repro.faults.inject import FaultInjector
from repro.faults.plan import DEFAULT_HANG_S, FaultPlan, plan_fingerprint
from repro.machine.spec import MachineSpec
from repro.obs.trace import TraceContext, child_context, root_context
from repro.telemetry.bus import TelemetryBus, bus, install
from repro.telemetry.sinks import JsonlSink
from repro.workloads.base import Application

#: strategy aliases that replay a shared tuned history when one is
#: attached to the task.
_OFFLINE_STRATEGIES = ("arcs-offline", "offline")

#: exception types that signal a *deterministic* failure: the same
#: task spec will fail the same way on every attempt, so retrying
#: only wastes a worker slot and delays the real error report.
#: Everything else (``RuntimeError`` from a flaky measurement path,
#: ``OSError`` from the pool plumbing, a worker crash) is treated as
#: transient and retried.
_FATAL_TYPES: tuple[type[BaseException], ...] = (
    ValueError,
    TypeError,
    KeyError,
    AttributeError,
    NotImplementedError,
    TuningDidNotConverge,
    CorruptHistoryError,
)

#: exception types that signal a *transient* failure worth retrying:
#: executor plumbing (a broken pool, pipe/pickle I/O, a torn stream),
#: a worker that outlived its timeout budget, and the
#: flaky-measurement ``RuntimeError`` family (which also covers the
#: injected ``sweep.worker`` crash).
_RETRYABLE_TYPES: tuple[type[BaseException], ...] = (
    FutureTimeoutError,
    BrokenExecutor,
    RuntimeError,
    OSError,
    EOFError,
)

#: the only failures the attempt loops classify and wrap in
#: :class:`SweepTaskError`.  Anything outside this union is a harness
#: bug, not a task failure, and propagates raw with its original
#: traceback - a blanket ``except Exception`` here used to re-badge
#: such bugs as retryable cell failures and burn every retry slot
#: reproducing them.
_CLASSIFIED_TYPES = _FATAL_TYPES + _RETRYABLE_TYPES


def _is_fatal(exc: BaseException) -> bool:
    """Classify a task failure: fatal errors reproduce on retry."""
    if isinstance(exc, FutureTimeoutError):
        return False
    return isinstance(exc, _FATAL_TYPES)


def _cause_name(exc: BaseException) -> str | None:
    """Name of the chained ``__cause__`` (telemetry detail: a bare
    ``RuntimeError`` wrapping a ``CapWriteRejectedError`` reads very
    differently from one wrapping an ``OSError``)."""
    cause = exc.__cause__
    return None if cause is None else type(cause).__name__


@dataclass(frozen=True)
class SweepTask:
    """One self-contained sweep cell: everything a worker process
    needs to reproduce the measurement, picklable as a unit."""

    app: Application
    spec: MachineSpec
    strategy: str
    cap_w: float | None = None
    repeats: int = 3
    seed: int = 0
    noise_sigma: float = 0.01
    online_max_evals: int = 40
    #: path of the shared tuned history (offline cells only); ``None``
    #: keeps the old behaviour of an in-memory throwaway store.
    history_path: str | None = None
    #: deterministic fault plan threaded into the cell's runtimes
    #: (``None`` = clean).
    fault_plan: FaultPlan | None = None
    #: directory receiving this cell's telemetry JSONL (``None`` =
    #: telemetry off).  Deliberately *not* part of :meth:`setup`, so
    #: turning tracing on never invalidates cache/journal digests.
    telemetry_dir: str | None = None
    #: ``host:port`` of a tuning-service daemon consulted (and
    #: published to) by offline cells through the ConfigSource chain.
    #: Like ``telemetry_dir``, deliberately *not* part of
    #: :meth:`setup`: the service is a transparent knowledge cache, so
    #: pointing a sweep at one must never invalidate existing
    #: cache/journal digests (results are byte-identical either way).
    service: str | None = None
    #: traceparent handed off by the parent sweep's trace context; the
    #: worker adopts it as the root of everything the cell emits, so
    #: per-cell trace files stitch into the sweep's single tree.
    #: Observational only - like ``telemetry_dir``, never part of
    #: :meth:`setup` or any digest.
    trace: str | None = None

    def setup(self) -> ExperimentSetup:
        return ExperimentSetup(
            spec=self.spec,
            cap_w=self.cap_w,
            repeats=self.repeats,
            seed=self.seed,
            noise_sigma=self.noise_sigma,
            online_max_evals=self.online_max_evals,
            fault_plan=self.fault_plan,
        )

    @property
    def label(self) -> str:
        cap = "TDP" if self.cap_w is None else f"{self.cap_w:g}W"
        return f"{self.app.label}@{cap}/{self.strategy}"

    def run_id(self) -> str:
        """Deterministic telemetry run identifier for this cell (a
        prefix of the experiment digest, so it also keys the cache and
        journal)."""
        return task_run_id(self)


def task_run_id(task: SweepTask) -> str:
    return experiment_digest(task.app, task.setup(), task.strategy)[:12]


def run_sweep_task(task: SweepTask) -> StrategyRunResult:
    """Execute one sweep cell (runs inside worker processes).

    Offline cells with a ``history_path`` load the shared tuned
    history first; when it already holds this experiment key the
    exhaustive tuning phase is skipped entirely.

    With a ``telemetry_dir``, the cell runs under its own telemetry
    bus writing ``task-<run_id>.jsonl`` into that directory - one file
    per cell, whether the cell executes inline or in a worker process,
    so a sweep's trace files merge into one timeline regardless of how
    the work was scheduled.

    With a ``service`` address, offline cells consult the tuning
    daemon through a degradation-ordered :func:`~repro.service.source.
    default_chain` (service -> process memo -> local history) before
    tuning fresh, and publish what they tune.  The chain's client
    draws the ``service.*`` fault sites from the task's fault plan
    (salted separately from the runtime's injector), so network
    failure modes are deterministic per cell.
    """
    history = None
    source = None
    if task.strategy.lower() in _OFFLINE_STRATEGIES:
        if task.history_path is not None:
            history = HistoryStore(task.history_path)
        if task.service is not None:
            from repro.faults.inject import make_injector
            from repro.service.source import default_chain

            source = default_chain(
                task.service,
                faults=make_injector(
                    task.fault_plan, salt="service-client"
                ),
            )
    if task.telemetry_dir is None:
        return run_strategy(
            task.strategy,
            task.app,
            task.setup(),
            history=history,
            source=source,
        )
    run_id = task_run_id(task)
    task_bus = TelemetryBus(enabled=True)
    task_bus.add_sink(
        JsonlSink(Path(task.telemetry_dir) / f"task-{run_id}.jsonl")
    )
    # adopt the parent sweep's trace handoff (or root a fresh trace)
    # BEFORE the meta record, so the meta is stamped as belonging to
    # the handoff span - that stamp is how the tree stitcher labels
    # the cross-process boundary node.
    adopted = TraceContext.from_traceparent(task.trace)
    task_bus.trace = (
        adopted
        if adopted is not None
        else root_context(run_id=run_id, task=task.label)
    )
    task_bus.meta(
        run_id=run_id,
        task=task.label,
        strategy=task.strategy,
        machine=task.spec.name,
        cap_w=task.cap_w,
        seed=task.seed,
    )
    previous = install(task_bus)
    try:
        return run_strategy(
            task.strategy,
            task.app,
            task.setup(),
            history=history,
            source=source,
        )
    finally:
        install(previous)
        task_bus.close()


class _InjectedWorkerCrash(RuntimeError):
    """A ``sweep.worker``/``crash`` fault fired for this task (a
    worker process dying mid-cell).  Subclasses RuntimeError, so the
    executor classifies it as transient and retries - exactly how a
    real worker death is handled."""


def _injected_crash(
    inner: Callable[[SweepTask], StrategyRunResult], task: SweepTask
) -> StrategyRunResult:
    raise _InjectedWorkerCrash(
        f"injected worker crash for sweep task {task.label}"
    )


def _injected_hang(
    inner: Callable[[SweepTask], StrategyRunResult],
    hang_s: float,
    task: SweepTask,
) -> StrategyRunResult:
    # a stuck worker: sleeps past the executor's timeout budget, then
    # completes normally (the timeout, not this function, decides
    # whether the attempt counts as failed).
    time.sleep(hang_s)
    return inner(task)


class SweepTaskError(RuntimeError):
    """A sweep cell failed: timed out / crashed on every allowed
    attempt (``retryable=True``), or hit a deterministic error that
    retrying cannot fix (``retryable=False``).  The worker's full
    traceback rides along in ``worker_traceback`` so the failure site
    inside the cell is not lost across the process boundary."""

    def __init__(
        self,
        task: SweepTask,
        attempts: int,
        cause: BaseException,
        retryable: bool = True,
    ) -> None:
        self.task = task
        self.attempts = attempts
        self.cause = cause
        self.retryable = retryable
        #: the parent-side flight recorder's last-N telemetry events
        #: at failure time (empty when telemetry is disabled).
        self.flight: tuple[dict, ...] = bus().flight.dump()
        self.worker_traceback = "".join(
            traceback.format_exception(
                type(cause), cause, cause.__traceback__
            )
        )
        if isinstance(cause, FutureTimeoutError):
            reason = "timed out"
        else:
            reason = f"raised {type(cause).__name__}: {cause}"
        detail = (
            f"after {attempts} attempt(s)"
            if retryable
            else f"on attempt {attempts} (not retryable)"
        )
        super().__init__(
            f"sweep task {task.label} {reason} {detail}\n"
            f"--- worker traceback ---\n{self.worker_traceback}"
        )


class ParallelSweepExecutor:
    """Run sweep cells concurrently, memoizing through a cache.

    Parameters
    ----------
    max_workers:
        Pool size.  ``1`` (the default) executes every task inline in
        the calling process - no pool, no pickling - which is the
        reference path determinism tests compare against.
    cache:
        Optional :class:`ExperimentCache`; hits skip execution
        entirely and completed cells are written back.
    timeout_s:
        Per-task wall-clock budget (pool mode only; inline execution
        cannot be interrupted).  A timed-out task counts as a failed
        attempt.  The stuck worker is abandoned, not killed, so pair
        timeouts with tasks that eventually terminate.
    retries:
        Extra attempts per task after the first *transient* failure.
        Deterministic failures (:data:`_FATAL_TYPES`: bad parameters,
        corrupt history, tuning that cannot converge) are raised
        immediately - the same spec would fail identically on retry.
    task_fn:
        The function executed per task (default :func:`run_sweep_task`).
        Must be picklable (module-level) when ``max_workers > 1``;
        injectable for fault-injection tests.
    journal:
        Optional :class:`~repro.experiments.journal.SweepJournal`.
        Every completed cell is appended durably; with ``resume=True``
        cells already journaled are served from it instead of
        re-running (a killed sweep picks up where it stopped).
        The journal's header rule (:meth:`~repro.util.jsonlog.
        JsonLog.open`) applies: without ``resume``, or onto a missing
        or empty journal, it starts over; a journal another sweep
        wrote raises :class:`~repro.util.jsonlog.LogMismatchError`.
    resume:
        Serve completed cells from the journal (requires ``journal``).
    faults:
        Optional :class:`~repro.faults.inject.FaultInjector` consulted
        once per task submission at the ``sweep.worker`` site; a
        ``crash`` fault makes that attempt die like a worker crash, a
        ``hang`` fault stalls it past the timeout.  Drawn in the
        parent process at submit time, so which attempt fails is a
        deterministic function of the plan seed, never of pool
        scheduling.
    """

    def __init__(
        self,
        max_workers: int = 1,
        cache: ExperimentCache | None = None,
        timeout_s: float | None = None,
        retries: int = 1,
        task_fn: Callable[[SweepTask], StrategyRunResult] = run_sweep_task,
        journal: SweepJournal | None = None,
        resume: bool = False,
        faults: FaultInjector | None = None,
    ) -> None:
        if max_workers < 1:
            raise ValueError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if resume and journal is None:
            raise ValueError("resume=True needs a journal")
        self.max_workers = max_workers
        self.cache = cache
        self.timeout_s = timeout_s
        self.retries = retries
        self.task_fn = task_fn
        self.journal = journal
        self.resume = resume
        self.faults = faults

    # ------------------------------------------------------------------
    def run(self, tasks: Sequence[SweepTask]) -> list[StrategyRunResult]:
        """Execute ``tasks``; the result list is aligned with input
        order regardless of completion order."""
        tasks = list(tasks)
        journaled: dict[str, StrategyRunResult] = {}
        if self.journal is not None:
            journaled = self.journal.cells(
                self.journal.open(self._header(tasks), resume=self.resume)
            )

        tb = bus()
        journaled_traces: dict[str, str] = {}
        if self.journal is not None and self.resume and tb.enabled:
            journaled_traces = self.journal.traceparents()
        results: list[StrategyRunResult | None] = [None] * len(tasks)
        pending: list[int] = []
        for i, task in enumerate(tasks):
            from_journal = journaled.get(self._digest(task))
            done = from_journal
            if done is None:
                done = self._cache_get(task)
            if done is not None:
                results[i] = done
                if tb.enabled:
                    source = (
                        "journal" if from_journal is not None else "cache"
                    )
                    tb.count(f"sweep.tasks_{source}")
                    reused_attrs: dict = {}
                    handoff = journaled_traces.get(self._digest(task))
                    if handoff is not None:
                        reused_attrs["trace_handoff"] = handoff
                    tb.emit(
                        "sweep.task_reused",
                        task=task.label,
                        run_id=task.run_id(),
                        source=source,
                        **reused_attrs,
                    )
            else:
                pending.append(i)

        if not pending:
            return [r for r in results if r is not None]

        # hand each pending cell its own child trace context, minted
        # here in the parent so sibling workers (whose own counters all
        # start at zero) can never collide on span ids.  The field is
        # outside every digest, so stamping it is result-neutral.
        if tb.enabled and tb.trace is not None:
            for i in pending:
                ctx = child_context(tb, tb.trace)
                tasks[i] = replace(tasks[i], trace=ctx.to_traceparent())

        if self.max_workers == 1 or len(pending) == 1:
            for i in pending:
                results[i] = self._run_inline(tasks[i])
        else:
            self._run_pool(tasks, pending, results)

        out: list[StrategyRunResult] = []
        for result in results:
            assert result is not None
            out.append(result)
        return out

    # ------------------------------------------------------------------
    @staticmethod
    def _digest(task: SweepTask) -> str:
        return experiment_digest(task.app, task.setup(), task.strategy)

    @classmethod
    def _header(cls, tasks: Sequence[SweepTask]) -> dict:
        """Sweep-identity record written to (and checked against) the
        journal: task-grid fingerprint, seeds and fault-plan hashes."""
        digests = sorted(cls._digest(task) for task in tasks)
        sweep = hashlib.sha256(
            "\n".join(digests).encode()
        ).hexdigest()[:16]
        fault_prints = sorted(
            {
                fp
                for fp in (
                    plan_fingerprint(task.fault_plan) for task in tasks
                )
                if fp is not None
            }
        )
        return {
            "sweep": sweep,
            "seeds": sorted({task.seed for task in tasks}),
            "faults": fault_prints,
        }

    def _cache_get(self, task: SweepTask) -> StrategyRunResult | None:
        if self.cache is None:
            return None
        return self.cache.get(task.app, task.setup(), task.strategy)

    def _record(self, task: SweepTask, result: StrategyRunResult) -> None:
        """Persist one completed cell everywhere it is memoized."""
        if self.cache is not None:
            self.cache.put(task.app, task.setup(), task.strategy, result)
        if self.journal is not None:
            self.journal.append(
                self._digest(task),
                task.label,
                result,
                run_id=task.run_id(),
                trace=task.trace,
            )
        tb = bus()
        if tb.enabled:
            tb.count("sweep.tasks_completed")
            tb.emit(
                "sweep.task_done",
                task=task.label,
                run_id=task.run_id(),
                time_s=result.time_s,
            )

    def _attempt_fn(
        self, task: SweepTask
    ) -> Callable[[SweepTask], StrategyRunResult]:
        """The callable for one attempt of ``task``, with any
        ``sweep.worker`` fault baked in.  Drawn here - in the parent,
        at submit time - so the fault schedule is deterministic."""
        if self.faults is None:
            return self.task_fn
        spec = self.faults.draw("sweep.worker")
        if spec is None:
            return self.task_fn
        if spec.action == "crash":
            return functools.partial(_injected_crash, self.task_fn)
        hang_s = spec.magnitude or DEFAULT_HANG_S
        return functools.partial(_injected_hang, self.task_fn, hang_s)

    def _run_inline(self, task: SweepTask) -> StrategyRunResult:
        attempt = 0
        while True:
            attempt += 1
            bus().emit(
                "sweep.task_start",
                task=task.label,
                run_id=task.run_id(),
                attempt=attempt,
            )
            try:
                result = self._attempt_fn(task)(task)
            except SweepTaskError:
                # already classified and wrapped (a nested executor, or
                # a task_fn that raised one directly): re-wrapping here
                # would bury the original task/attempt/cause a level
                # deeper, so pass it through untouched.
                raise
            except _CLASSIFIED_TYPES as exc:
                if _is_fatal(exc):
                    raise SweepTaskError(
                        task, attempt, exc, retryable=False
                    ) from exc
                if attempt > self.retries:
                    raise SweepTaskError(task, attempt, exc) from exc
                bus().emit(
                    "sweep.task_retry",
                    task=task.label,
                    run_id=task.run_id(),
                    attempt=attempt,
                    error=type(exc).__name__,
                    cause=_cause_name(exc),
                )
            else:
                self._record(task, result)
                return result

    def _run_pool(
        self,
        tasks: list[SweepTask],
        pending: list[int],
        results: list[StrategyRunResult | None],
    ) -> None:
        pool = ProcessPoolExecutor(
            max_workers=min(self.max_workers, len(pending))
        )
        clean = False
        try:
            # (task index, attempt number, future); failed attempts
            # append their retry to the end of the queue.
            inflight: list[tuple[int, int, Future]] = []
            for i in pending:
                bus().emit(
                    "sweep.task_start",
                    task=tasks[i].label,
                    run_id=tasks[i].run_id(),
                    attempt=1,
                )
                inflight.append(
                    (
                        i,
                        1,
                        pool.submit(self._attempt_fn(tasks[i]), tasks[i]),
                    )
                )
            cursor = 0
            while cursor < len(inflight):
                i, attempt, future = inflight[cursor]
                cursor += 1
                try:
                    result = future.result(timeout=self.timeout_s)
                except SweepTaskError:
                    # see _run_inline: never double-wrap.
                    raise
                except _CLASSIFIED_TYPES as exc:
                    if _is_fatal(exc):
                        raise SweepTaskError(
                            tasks[i], attempt, exc, retryable=False
                        ) from exc
                    if attempt > self.retries:
                        raise SweepTaskError(
                            tasks[i], attempt, exc
                        ) from exc
                    bus().emit(
                        "sweep.task_retry",
                        task=tasks[i].label,
                        run_id=tasks[i].run_id(),
                        attempt=attempt,
                        error=type(exc).__name__,
                        cause=_cause_name(exc),
                    )
                    inflight.append(
                        (
                            i,
                            attempt + 1,
                            pool.submit(
                                self._attempt_fn(tasks[i]), tasks[i]
                            ),
                        )
                    )
                else:
                    results[i] = result
                    self._record(tasks[i], result)
            clean = True
        finally:
            # On failure, drop queued work and do not block on any
            # still-running (possibly stuck) worker.
            pool.shutdown(wait=clean, cancel_futures=not clean)
