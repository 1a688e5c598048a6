"""Strategy runners: default vs ARCS-Online vs ARCS-Offline.

Methodology mirrors Section IV-D:

* power caps {55, 70, 85, 100, 115(TDP)} W on Crill; Minotaur runs at
  TDP only (no capping privilege) and reports time only;
* every measurement is repeated three times; Crill reports the
  average (dedicated machine), Minotaur the minimum (shared machine);
* ARCS-Offline = exhaustive tuning run(s) followed by a measured run
  that replays the saved best configurations ("Only the second
  execution with the optimal configuration is measured");
* ARCS-Online = Nelder-Mead searching and executing in the same run,
  which *is* the measured run (search overhead included).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.core.capschedule import CapSchedule, CapScheduleApplier
from repro.core.controller import ARCS
from repro.core.history import HistoryStore
from repro.core.overhead import OverheadReport
from repro.experiments.serialize import (
    context_digest,
    measurement_context,
    overhead_from_json,
    overhead_to_json,
    run_from_json,
    run_to_json,
)
from repro.faults.inject import make_injector
from repro.faults.plan import FaultPlan
from repro.machine.node import SimulatedNode
from repro.machine.rapl import CapWriteRejectedError
from repro.machine.spec import MachineSpec
from repro.openmp.runtime import OpenMPRuntime
from repro.openmp.types import OMPConfig
from repro.service.source import ConfigSource, config_key
from repro.supervise import RegionSupervisor, SuperviseConfig
from repro.obs.trace import traced_span
from repro.telemetry.bus import bus
from repro.util.retry import RetryPolicy
from repro.util.rng import derive_seed
from repro.util.stats import summarize_runs
from repro.workloads.base import Application, AppRunResult, run_application

#: the strategy names :func:`run_strategy` dispatches, in table order;
#: the first three are the paper's comparison.
STRATEGIES = ("default", "arcs-online", "arcs-offline")

#: Crill power levels (W per package); None = uncapped TDP run.
CRILL_POWER_LEVELS: tuple[float, ...] = (55.0, 70.0, 85.0, 100.0, 115.0)

#: repeats per measurement, as in the paper.
DEFAULT_REPEATS = 3

#: upper bound on exhaustive tuning executions (the 162-point Crill
#: space needs ~3 runs of a 60-step NPB app).
MAX_TUNING_RUNS = 10


class TuningDidNotConverge(RuntimeError):
    """ARCS-Offline exhausted its tuning-run budget without saving a
    history entry (search never converged, or converged with nothing
    to save).  Replaces the opaque ``KeyError`` the replay phase used
    to raise when ``history.load`` found no entry."""

    def __init__(self, key: str, runs_used: int) -> None:
        self.key = key
        self.runs_used = runs_used
        super().__init__(
            f"exhaustive tuning for {key!r} did not converge within "
            f"{runs_used} run(s) (MAX_TUNING_RUNS={MAX_TUNING_RUNS}); "
            "no best configurations were saved to the history"
        )


@dataclass(frozen=True)
class ExperimentSetup:
    """Everything defining one measurement context."""

    spec: MachineSpec
    cap_w: float | None = None
    repeats: int = DEFAULT_REPEATS
    seed: int = 0
    noise_sigma: float = 0.01
    online_max_evals: int = 40
    #: deterministic fault-injection plan (None / empty plan = clean
    #: run); each run of the experiment gets its own injector, salted
    #: by the run index so repeats draw independent fault streams.
    fault_plan: FaultPlan | None = None
    #: dynamic power-cap timetable applied during each measured run
    #: (None / empty = the static ``cap_w`` for the whole run).
    cap_schedule: CapSchedule | None = None

    def __post_init__(self) -> None:
        if self.repeats < 1:
            raise ValueError(
                f"repeats must be >= 1, got {self.repeats}"
            )
        if self.cap_w is not None:
            if self.cap_w <= 0:
                raise ValueError(
                    f"cap_w must be positive, got {self.cap_w}"
                )
            if not self.spec.supports_power_cap:
                raise ValueError(
                    f"machine {self.spec.name!r} has no power-capping "
                    f"privilege; a cap of {self.cap_w:g} W cannot be "
                    "applied (run uncapped with cap_w=None instead)"
                )
        if self.cap_schedule and not self.spec.supports_power_cap:
            raise ValueError(
                f"machine {self.spec.name!r} has no power-capping "
                "privilege; a cap schedule cannot be applied"
            )

    @property
    def summary_mode(self) -> str:
        """Crill was dedicated (average); Minotaur shared (minimum)."""
        return "min" if self.spec.name == "minotaur" else "mean"


@dataclass(frozen=True)
class StrategyRunResult:
    """Summarized measurement of one (app, strategy, cap)."""

    strategy: str
    app_label: str
    machine: str
    cap_w: float | None
    time_s: float
    energy_j: float | None
    runs: tuple[AppRunResult, ...]
    chosen_configs: dict[str, OMPConfig] = field(default_factory=dict)
    overhead: OverheadReport | None = None
    tuning_runs: int = 0
    #: sorted union of every degradation recorded across the repeats:
    #: per-run measurement notes plus per-region tuning fallbacks.
    #: Empty means the measurement ran clean end to end.
    degradations: tuple[str, ...] = ()
    #: cap-schedule changes applied during the last repeat (in order),
    #: e.g. ``"invocation 30: power cap 85W -> 70W"``; empty for
    #: static-cap runs.
    cap_changes: tuple[str, ...] = ()

    @property
    def representative(self) -> AppRunResult:
        return self.runs[-1]


#: attempts per power-cap write before degrading to an uncapped run.
_CAP_WRITE_ATTEMPTS = 3

#: shared retry schedule for cap writes: bounded attempts, no sleeping
#: (backing off in simulated time is ``settle_after_cap``'s job).
_CAP_WRITE_RETRY = RetryPolicy(attempts=_CAP_WRITE_ATTEMPTS)


def fresh_runtime(
    setup: ExperimentSetup, run_index: int = 0
) -> OpenMPRuntime:
    """A new node + runtime with the power cap applied and settled.

    Cap writes are retried against injected/transient rejections; if
    the cap cannot be applied at all the run proceeds *uncapped* with a
    degradation note rather than crashing (the paper's harness kept
    going when msr-safe hiccuped) - but never silently, which would
    report "capped" results that actually ran at TDP.
    """
    node = SimulatedNode(
        setup.spec,
        faults=make_injector(setup.fault_plan, salt=run_index),
    )
    runtime = OpenMPRuntime(
        node,
        seed=derive_seed(setup.seed, "run", run_index),
        noise_sigma=setup.noise_sigma,
    )
    if setup.cap_w is not None:
        # ExperimentSetup guarantees the spec supports capping.
        try:
            _CAP_WRITE_RETRY.run(
                lambda: node.set_power_cap(setup.cap_w),
                retry_on=CapWriteRejectedError,
                site="cap.write",
                # back off in simulated time after *every* rejection,
                # matching the pre-RetryPolicy loop.
                on_failure=lambda _attempt, _exc: node.settle_after_cap(),
            )
        except CapWriteRejectedError as last:
            runtime.degradations.append(
                f"power cap {setup.cap_w:g} W could not be applied "
                f"after {_CAP_WRITE_ATTEMPTS} attempts ({last}); "
                "running uncapped"
            )
        node.settle_after_cap()
    return runtime


def _summarize(
    setup: ExperimentSetup, results: list[AppRunResult]
) -> tuple[float, float | None]:
    time_s = summarize_runs(
        [r.time_s for r in results], setup.summary_mode
    )
    if any(r.energy_j is None for r in results):
        # no counters on this machine, or a run degraded to time-only
        # after persistent RAPL read failures; a summary over a partial
        # sample would misrepresent the energy, so report none.
        return time_s, None
    energy_j = summarize_runs(
        [r.energy_j for r in results], setup.summary_mode  # type: ignore[misc]
    )
    return time_s, energy_j


def _collect_degradations(
    results: list[AppRunResult], *extra_sources: dict[str, str] | list[str]
) -> tuple[str, ...]:
    """Sorted union of degradation notes across runs plus per-region
    tuning fallbacks / bridge notes from extra sources."""
    notes: set[str] = set()
    for result in results:
        notes.update(result.degraded)
    for source in extra_sources:
        if isinstance(source, dict):
            notes.update(
                f"region {name}: {reason}; fell back to default "
                "configuration"
                for name, reason in source.items()
            )
        else:
            notes.update(source)
    return tuple(sorted(notes))


# ---------------------------------------------------------------------------
def _capsched_applier(setup: ExperimentSetup) -> CapScheduleApplier | None:
    """One fresh schedule cursor per run; ``None`` for static caps."""
    if setup.cap_schedule is None or not setup.cap_schedule:
        return None
    return CapScheduleApplier(setup.cap_schedule)


def _cap_observer(applier, runtime):
    """Observer driving a cap-schedule cursor."""
    def observer(invocations: int) -> None:
        applier.on_invocation(invocations, runtime)
    return observer


def run_default(
    app: Application, setup: ExperimentSetup
) -> StrategyRunResult:
    """The paper's baseline: no APEX, no tuning, default configuration
    (max threads, default static)."""
    results = []
    cap_changes: list[str] = []
    for r in range(setup.repeats):
        runtime = fresh_runtime(setup, run_index=r)
        applier = _capsched_applier(setup)
        observer = (
            _cap_observer(applier, runtime)
            if applier is not None
            else None
        )
        with traced_span("run.repeat", strategy="default", repeat=r):
            results.append(
                run_application(app, runtime, observer=observer)
            )
        if applier is not None:
            cap_changes = list(applier.log)
    time_s, energy_j = _summarize(setup, results)
    return StrategyRunResult(
        strategy="default",
        app_label=app.label,
        machine=setup.spec.name,
        cap_w=setup.cap_w,
        time_s=time_s,
        energy_j=energy_j,
        runs=tuple(results),
        degradations=_collect_degradations(results),
        cap_changes=tuple(cap_changes),
    )


class SimulatedKill(RuntimeError):
    """Raised by :func:`run_arcs_online`'s ``kill_after`` test hook once
    the target invocation completes, simulating a process killed at
    that exact point; the repeats completed before it stay in the
    checkpoint log.  The chaos soak and the checkpoint tests catch it
    and resume by running again against that log."""

    def __init__(self, measurements: int, path: Path) -> None:
        self.measurements = measurements
        self.path = path
        super().__init__(
            f"simulated kill after {measurements} completed "
            f"measurement(s); checkpoint left at {path}"
        )


def run_arcs_online(
    app: Application,
    setup: ExperimentSetup,
    selective_threshold_s: float | None = None,
    *,
    checkpoint_path: str | Path | None = None,
    supervise: SuperviseConfig | None = None,
    kill_after: int | None = None,
) -> StrategyRunResult:
    """ARCS-Online: Nelder-Mead tunes within the measured run.

    ``selective_threshold_s`` enables the paper's future-work selective
    mode: regions whose first measured call is shorter than the
    threshold are never tuned (used by the selective-tuning ablation).

    ``checkpoint_path`` names a :class:`~repro.experiments.journal.
    SweepJournal` that receives one fsynced record per completed
    repeat, keyed by the run's measurement context and
    ``selective_threshold_s``.  A run against a log already holding
    repeats ``0..k-1`` of the same run replays them and runs from
    repeat ``k``: a repeat is a pure function of (application, setup,
    repeat index), so a resumed run finishes byte-identical to an
    uninterrupted one.  Region execution goes through a
    :class:`RegionSupervisor` (``supervise`` overrides its
    deadlines/retry budget); ``kill_after`` is a test hook raising
    :class:`SimulatedKill` once that many region invocations have
    completed globally.
    """
    if kill_after is not None and checkpoint_path is None:
        raise ValueError(
            "kill_after requires checkpoint_path (the simulated kill "
            "must leave a checkpoint to resume from)"
        )
    strategy_label = (
        "arcs-online"
        if selective_threshold_s is None
        else "arcs-online-selective"
    )
    cap_aware = bool(setup.cap_schedule)

    results: list[AppRunResult] = []
    configs: dict[str, OMPConfig] = {}
    overhead: OverheadReport | None = None
    fallbacks: dict[str, str] = {}
    bridge_notes: list[str] = []
    dropouts = 0
    cap_changes: list[str] = []

    log = None
    if checkpoint_path is not None:
        # the journal imports the runner's result types
        from repro.experiments.cache import CACHE_SCHEMA_VERSION
        from repro.experiments.journal import SweepJournal

        log = SweepJournal(checkpoint_path)
        key = context_digest(
            CACHE_SCHEMA_VERSION,
            {
                **measurement_context(app, setup, strategy_label),
                "selective_threshold_s": selective_threshold_s,
            },
        )
        # fold the completed repeats exactly as the loop below does
        for done in log.repeats(key):
            results.append(run_from_json(done["run"]))
            configs = {
                k: OMPConfig.from_json(v) for k, v in done["configs"].items()
            }
            overhead = overhead_from_json(done["overhead"])
            cap_changes = list(done["cap_changes"])
            fallbacks.update(done["fallbacks"])
            dropouts += done["dropouts"]

    for r in range(len(results), setup.repeats):
        runtime = fresh_runtime(setup, run_index=r)
        arcs = ARCS(
            runtime,
            strategy="nelder-mead",
            max_evals=setup.online_max_evals,
            seed=derive_seed(setup.seed, "online", r),
            selective_threshold_s=selective_threshold_s,
            cap_aware=cap_aware,
        )
        arcs.attach()
        supervisor = RegionSupervisor(
            runtime, supervise, pin=arcs.policy.pin_region
        )
        applier = _capsched_applier(setup)
        completed_before = sum(x.total_region_calls for x in results)

        def observer(invocations: int) -> None:
            if applier is not None:
                applier.on_invocation(invocations, runtime)
            completed = completed_before + invocations
            if kill_after is not None and completed >= kill_after:
                raise SimulatedKill(completed, Path(checkpoint_path))

        with traced_span(
            "run.repeat", strategy=strategy_label, repeat=r
        ):
            results.append(
                run_application(
                    app,
                    runtime,
                    execute=supervisor.execute,
                    observer=observer,
                )
            )
        configs = arcs.chosen_configs()
        overhead = arcs.overhead_report()
        repeat_fallbacks = arcs.degradations()
        fallbacks.update(repeat_fallbacks)
        dropouts += arcs.bridge.timer_dropouts
        if applier is not None:
            cap_changes = list(applier.log)
        if log is not None:
            log.append_repeat(
                key,
                r,
                {
                    "run": run_to_json(results[-1]),
                    "configs": {
                        name: cfg.to_json()
                        for name, cfg in configs.items()
                    },
                    "overhead": overhead_to_json(overhead),
                    "cap_changes": list(cap_changes),
                    "fallbacks": dict(repeat_fallbacks),
                    "dropouts": arcs.bridge.timer_dropouts,
                },
            )
            tb = bus()
            if tb.enabled:
                tb.count("checkpoint.writes")
                tb.emit("checkpoint.write", repeat=r)
        arcs.finalize()

    if dropouts:
        bridge_notes.append(
            f"{dropouts} OMPT timer event(s) dropped across "
            f"{setup.repeats} run(s); affected executions ran "
            "unmeasured"
        )
    time_s, energy_j = _summarize(setup, results)
    return StrategyRunResult(
        strategy=strategy_label,
        app_label=app.label,
        machine=setup.spec.name,
        cap_w=setup.cap_w,
        time_s=time_s,
        energy_j=energy_j,
        runs=tuple(results),
        chosen_configs=configs,
        overhead=overhead,
        degradations=_collect_degradations(
            results, fallbacks, bridge_notes
        ),
        cap_changes=tuple(cap_changes),
    )


def run_arcs_offline(
    app: Application,
    setup: ExperimentSetup,
    history: HistoryStore | None = None,
    source: ConfigSource | None = None,
) -> StrategyRunResult:
    """ARCS-Offline: exhaustive tuning run(s) produce a history file;
    the measured runs replay it.

    If ``history`` already holds configurations for this experiment
    key, tuning is skipped ("the saved values can be used instead of
    repeating the search process").  With a ``source`` chain the same
    skip extends across processes and machines: the chain is consulted
    (remote tuning service, then warm memo, then whatever else it
    holds) before tuning fresh, freshly tuned configurations are
    published back through it, and every tier failure along the way is
    surfaced as a degradation note - never an error.
    """
    history = history if history is not None else HistoryStore()
    source_key = config_key(app, setup)
    key = source_key.experiment
    if source is not None and not history.has(key):
        entry = source.lookup(source_key)
        if entry is not None:
            configs_, values_ = entry
            history.save(
                key,
                configs_,
                {r: v for r, v in values_.items() if v is not None},
            )
    tuning_runs = 0
    fallbacks: dict[str, str] = {}
    if not history.has(key):
        runtime = fresh_runtime(setup, run_index=1000)
        arcs = ARCS(
            runtime,
            strategy="exhaustive",
            max_evals=setup.online_max_evals,
            history=history,
            history_key=key,
            seed=derive_seed(setup.seed, "offline-tuning"),
            source=source,
            source_key=source_key,
        )
        arcs.attach()
        while tuning_runs < MAX_TUNING_RUNS:
            with traced_span(
                "run.tuning",
                strategy="arcs-offline",
                tuning_run=tuning_runs,
            ):
                run_application(app, runtime)
            tuning_runs += 1
            if arcs.converged:
                break
        fallbacks.update(arcs.degradations())
        arcs.finalize()
        if not history.has(key):
            raise TuningDidNotConverge(key, tuning_runs)

    results = []
    overhead: OverheadReport | None = None
    cap_changes: list[str] = []
    for r in range(setup.repeats):
        runtime = fresh_runtime(setup, run_index=r)
        arcs = ARCS(
            runtime,
            strategy="exhaustive",  # unused in replay mode
            history=history,
            history_key=key,
            replay=True,
        )
        arcs.attach()
        # the tuning run stays cap-static (it tunes *for* setup.cap_w);
        # only the measured replay runs see the schedule, mirroring a
        # resource manager re-capping a production run of pre-tuned code.
        applier = _capsched_applier(setup)
        observer = (
            _cap_observer(applier, runtime)
            if applier is not None
            else None
        )
        with traced_span(
            "run.repeat", strategy="arcs-offline", repeat=r
        ):
            results.append(
                run_application(app, runtime, observer=observer)
            )
        overhead = arcs.overhead_report()
        if applier is not None:
            cap_changes = list(applier.log)
        arcs.finalize()
    source_notes = source.drain_notes() if source is not None else []
    time_s, energy_j = _summarize(setup, results)
    return StrategyRunResult(
        strategy="arcs-offline",
        app_label=app.label,
        machine=setup.spec.name,
        cap_w=setup.cap_w,
        time_s=time_s,
        energy_j=energy_j,
        runs=tuple(results),
        chosen_configs=history.load(key),
        overhead=overhead,
        tuning_runs=tuning_runs,
        degradations=_collect_degradations(results, fallbacks, source_notes),
        cap_changes=tuple(cap_changes),
    )


def run_strategy(
    name: str,
    app: Application,
    setup: ExperimentSetup,
    history: HistoryStore | None = None,
    *,
    checkpoint_path: str | Path | None = None,
    supervise: SuperviseConfig | None = None,
    source: ConfigSource | None = None,
) -> StrategyRunResult:
    """Dispatch by strategy name: default / arcs-online / arcs-offline.

    ``source`` (a :class:`ConfigSource` chain) only affects
    arcs-offline - the strategies that do not consume tuned knowledge
    ignore it, so a sweep can pass one chain uniformly.
    """
    with traced_span(
        "run.strategy",
        strategy=name,
        app=app.label,
        machine=setup.spec.name,
    ):
        if name == "arcs-online":
            return run_arcs_online(
                app,
                setup,
                checkpoint_path=checkpoint_path,
                supervise=supervise,
            )
        if name not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {name!r}; known: "
                f"{', '.join(STRATEGIES)}"
            )
        if checkpoint_path is not None:
            raise ValueError(
                f"checkpointing is only supported for arcs-online, not "
                f"{name!r}"
            )
        if name == "default":
            return run_default(app, setup)
        return run_arcs_offline(
            app,
            setup,
            history=history,
            source=source,
        )
