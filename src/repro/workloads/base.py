"""Application abstraction: ordered parallel-region call sequences.

An :class:`Application` executes a fixed per-timestep sequence of
region invocations against an :class:`~repro.openmp.runtime.
OpenMPRuntime`; :func:`run_application` measures wall time via the
node clock and package energy via RAPL, and accumulates per-region
totals (the Figure 9 breakdown).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.machine.rapl import RaplReadError
from repro.openmp.records import RegionExecutionRecord, RegionTotals
from repro.openmp.region import RegionProfile
from repro.openmp.runtime import OpenMPRuntime
from repro.util.retry import RetryPolicy
from repro.util.validation import require_positive


@dataclass(frozen=True)
class RegionCall:
    """``calls`` consecutive invocations of one region per timestep.

    Consecutive bursts matter: ARCS only pays configuration-changing
    overhead at region *boundaries*, so call structure shapes the
    Section V-C overhead story.
    """

    region: RegionProfile
    calls: int = 1

    def __post_init__(self) -> None:
        require_positive("calls", self.calls)


@dataclass(frozen=True)
class Application:
    """A benchmark application."""

    name: str
    workload: str                       # class ("B"/"C") or mesh size
    step_sequence: tuple[RegionCall, ...]
    timesteps: int

    def __post_init__(self) -> None:
        require_positive("timesteps", self.timesteps)
        if not self.step_sequence:
            raise ValueError("step_sequence must be non-empty")
        names = [rc.region.name for rc in self.step_sequence]
        if len(set(names)) != len(names):
            raise ValueError(
                f"duplicate region names in step sequence: {names}"
            )

    @property
    def label(self) -> str:
        return f"{self.name}.{self.workload}"

    def regions(self) -> list[RegionProfile]:
        return [rc.region for rc in self.step_sequence]

    def region_names(self) -> list[str]:
        return [rc.region.name for rc in self.step_sequence]

    def calls_per_step(self) -> int:
        return sum(rc.calls for rc in self.step_sequence)


@dataclass
class _RegionAccumulator:
    calls: int = 0
    implicit_task_s: float = 0.0
    loop_s: float = 0.0
    barrier_s: float = 0.0
    energy_j: float = 0.0
    l1_sum: float = 0.0
    l2_sum: float = 0.0
    l3_sum: float = 0.0

    def add(self, record: RegionExecutionRecord) -> None:
        n = record.config.n_threads
        self.calls += 1
        self.implicit_task_s += record.time_s
        self.loop_s += sum(record.thread_busy_s) / n
        self.barrier_s += record.barrier_wait_total_s / n
        self.energy_j += record.energy_j
        self.l1_sum += record.l1_miss_rate
        self.l2_sum += record.l2_miss_rate
        self.l3_sum += record.l3_miss_rate


@dataclass(frozen=True)
class AppRunResult:
    """Outcome of one application run."""

    app_label: str
    time_s: float
    energy_j: float | None              # None on machines w/o counters
    region_totals: dict[str, RegionTotals]
    region_miss_rates: dict[str, tuple[float, float, float]]
    total_region_calls: int
    #: measurement degradations hit during this run (persistent RAPL
    #: read failures, wraparound corrections); empty for a clean run.
    degraded: tuple[str, ...] = ()


#: attempts per RAPL energy read before degrading to time-only.
_ENERGY_READ_ATTEMPTS = 3

#: shared bounded-retry schedule (no sleeping - RAPL reads are
#: instantaneous in simulated time).
_ENERGY_READ_RETRY = RetryPolicy(attempts=_ENERGY_READ_ATTEMPTS)


def _read_energy(
    node, notes: list[str], when: str
) -> float | None:
    """One harness-side energy read, retried against transient
    :class:`RaplReadError`; ``None`` (with a note) when reads stay
    broken - the run then reports time only rather than crashing or
    publishing garbage energy."""
    try:
        return _ENERGY_READ_RETRY.run(
            node.read_package_energy_j,
            retry_on=RaplReadError,
            site="energy.read",
        )
    except RaplReadError as last:
        notes.append(
            f"energy read at run {when} failed "
            f"{_ENERGY_READ_ATTEMPTS} times ({last}); "
            "energy not reported"
        )
        return None


def run_application(
    app: Application,
    runtime: OpenMPRuntime,
    *,
    execute: Callable[[RegionProfile], RegionExecutionRecord]
    | None = None,
    observer: Callable[[int], None] | None = None,
) -> AppRunResult:
    """Execute ``app`` once on ``runtime`` and measure it.

    Wall time is the node-clock delta (so ARCS/APEX overheads charged
    to the clock are included, exactly as a real wall-clock measurement
    would include them); energy is the RAPL package-counter delta.

    ``execute`` overrides how one region invocation runs (the watchdog
    supervisor wraps ``runtime.parallel_for`` here); ``observer`` is
    called with the completed-invocation count after every invocation
    (cap schedules, the runner's simulated-kill hook).  Both default to
    the plain uninstrumented run.
    """
    node = runtime.node
    has_energy = node.spec.supports_energy_counters
    if execute is None:
        execute = runtime.parallel_for
    notes: list[str] = []
    t0 = node.now_s
    e0 = _read_energy(node, notes, "start") if has_energy else None

    acc: dict[str, _RegionAccumulator] = {}
    calls = 0
    for _step in range(app.timesteps):
        for rc in app.step_sequence:
            for _ in range(rc.calls):
                bucket = acc.setdefault(
                    rc.region.name, _RegionAccumulator()
                )
                bucket.add(execute(rc.region))
                calls += 1
                if observer is not None:
                    observer(calls)

    time_s = node.now_s - t0
    energy_j: float | None = None
    if has_energy and e0 is not None:
        e1 = _read_energy(node, notes, "end")
        if e1 is not None:
            if e1 < e0:
                # the counter wrapped (or a read raced a wrap) between
                # the endpoints; correct by whole counter spans.
                notes.append(
                    "energy counter wrapped during run; delta "
                    "corrected by counter span"
                )
                energy_j = node.energy_delta_j(e0, e1)
            else:
                energy_j = e1 - e0
    totals = {
        name: RegionTotals(
            region_name=name,
            calls=a.calls,
            implicit_task_s=a.implicit_task_s,
            loop_s=a.loop_s,
            barrier_s=a.barrier_s,
            energy_j=a.energy_j,
        )
        for name, a in acc.items()
    }
    miss_rates = {
        name: (
            a.l1_sum / a.calls,
            a.l2_sum / a.calls,
            a.l3_sum / a.calls,
        )
        for name, a in acc.items()
        if a.calls
    }
    return AppRunResult(
        app_label=app.label,
        time_s=time_s,
        energy_j=energy_j,
        region_totals=totals,
        region_miss_rates=miss_rates,
        total_region_calls=calls,
        degraded=tuple(notes + runtime.degradations),
    )
