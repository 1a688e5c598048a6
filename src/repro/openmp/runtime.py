"""The OpenMP runtime facade.

Provides the runtime-library routines ARCS drives
(``omp_set_num_threads``, ``omp_set_schedule`` — Section III-C notes
these calls are exactly where the *configuration changing overhead*
comes from), executes parallel-for regions through the simulation
engine, dispatches OMPT events around each region, and applies
seeded run-to-run measurement noise (the paper ran everything three
times for this reason).
"""

from __future__ import annotations

from repro.machine.node import SimulatedNode
from repro.openmp.barrier import TeamCosts
from repro.openmp.engine import ExecutionEngine
from repro.openmp.ompt import (
    DurationPayload,
    OmptEvent,
    OmptInterface,
    ParallelBeginPayload,
    ParallelEndPayload,
)
from repro.openmp.records import RegionExecutionRecord
from repro.openmp.region import RegionProfile
from repro.openmp.types import OMPConfig, ScheduleKind, default_config
from repro.telemetry.bus import bus
from repro.util.rng import IndexedStream
from repro.util.validation import require_nonnegative

#: cost of one omp_set_num_threads / omp_set_schedule call.  Two calls
#: per configuration change give the paper's ~0.8 ms per region call
#: (Section III-C: "In Crill, we calculated this overhead to be about
#: 0.8 msec in each region call").
CONFIG_CALL_OVERHEAD_S = 0.4e-3

#: cost of one userspace DVFS write (sysfs scaling_max_freq) - the
#: future-work DVFS dimension pays this per frequency change.
DVFS_WRITE_OVERHEAD_S = 60.0e-6

#: the per-region aggregate events; their payloads are built only when
#: a tool subscribes to one of them.
_AGGREGATE_EVENTS = (
    OmptEvent.IMPLICIT_TASK,
    OmptEvent.WORK_LOOP,
    OmptEvent.SYNC_REGION_BARRIER,
)


class OpenMPRuntime:
    """A simulated OpenMP runtime bound to one :class:`SimulatedNode`."""

    def __init__(
        self,
        node: SimulatedNode,
        seed: int = 0,
        noise_sigma: float = 0.01,
        costs: TeamCosts | None = None,
    ) -> None:
        require_nonnegative("noise_sigma", noise_sigma)
        self.node = node
        self.engine = ExecutionEngine(node, costs)
        self.ompt = OmptInterface()
        self._seed = seed
        self.noise_sigma = noise_sigma
        #: ``rng_for(seed, "noise", call_index)``, one draw per call
        self._noise = IndexedStream(seed, "noise")
        #: the configuration subsequent regions run with, rebuilt only by
        #: the omp_set_* routines and restore
        self._config = default_config(node.spec.total_hw_threads)
        #: config-call energy by (socket-0 effective cap, DVFS limit)
        self._config_call_energy_j: dict[tuple, float] = {}
        self._call_index = 0
        self.config_change_time_s = 0.0
        self.config_change_calls = 0
        #: notes appended by harnesses when a fault forced them off the
        #: intended measurement path (e.g. a power cap that could not be
        #: applied); surfaced in the run result's degradations.
        self.degradations: list[str] = []
        #: per-region batched-prefetch hints (candidate configs a tuner
        #: expects to try soon); consumed by the next ``parallel_for``
        #: on that region.  Pure performance state.
        self._probe_hints: dict[str, tuple[OMPConfig, ...]] = {}

    @property
    def seed(self) -> int:
        """Root seed of the run-to-run noise (fixed at construction)."""
        return self._seed

    # ------------------------------------------------------------------
    # the omp_* runtime-library surface
    # ------------------------------------------------------------------
    def omp_get_max_threads(self) -> int:
        return self.node.spec.total_hw_threads

    def omp_get_num_threads(self) -> int:
        return self._config.n_threads

    def omp_set_num_threads(self, n_threads: int) -> None:
        """Set the team size for subsequent regions.  Costs real time -
        this is half of ARCS's configuration-changing overhead."""
        if not 1 <= n_threads <= self.omp_get_max_threads():
            raise ValueError(
                f"n_threads must be in [1, {self.omp_get_max_threads()}], "
                f"got {n_threads}"
            )
        self._charge_config_call()
        self._config = OMPConfig(
            n_threads, self._config.schedule, self._config.chunk
        )

    def omp_get_schedule(self) -> tuple[ScheduleKind, int | None]:
        return self._config.schedule, self._config.chunk

    def omp_set_schedule(
        self, kind: ScheduleKind, chunk: int | None = None
    ) -> None:
        """Set the schedule for subsequent ``schedule(runtime)`` loops."""
        if not isinstance(kind, ScheduleKind):
            raise TypeError(f"kind must be ScheduleKind, got {kind!r}")
        if chunk is not None and chunk < 1:
            raise ValueError(f"chunk must be >= 1 or None, got {chunk}")
        self._charge_config_call()
        self._config = OMPConfig(self._config.n_threads, kind, chunk)

    def set_frequency_limit(self, freq_ghz: float | None) -> None:
        """Apply a userspace DVFS ceiling for subsequent regions (the
        future-work tuning dimension).  Costs a sysfs-write overhead,
        accounted with the configuration-changing overheads."""
        self.node.advance(DVFS_WRITE_OVERHEAD_S)
        self.config_change_time_s += DVFS_WRITE_OVERHEAD_S
        self.config_change_calls += 1
        self.node.set_frequency_limit(freq_ghz)

    def frequency_limit(self) -> float | None:
        return self.node.frequency_limit_ghz

    def _charge_config_call(self) -> None:
        self.node.advance(CONFIG_CALL_OVERHEAD_S)
        self.config_change_time_s += CONFIG_CALL_OVERHEAD_S
        self.config_change_calls += 1
        # the calling core burns active power during the runtime call
        node = self.node
        key = (node.effective_cap_w(0), node.frequency_limit_ghz)
        joules = self._config_call_energy_j.get(key)
        if joules is None:
            socket0_f = node.frequency_for_team(node.topology.place(1))[0]
            joules = (
                node.power.core_dynamic_w(socket0_f)
                + node.power.uncore_w(socket0_f)
            ) * CONFIG_CALL_OVERHEAD_S
            self._config_call_energy_j[key] = joules
        node.deposit_energy(0, joules)

    def current_config(self) -> OMPConfig:
        return self._config

    def hint_probes(
        self, region_name: str, configs: tuple[OMPConfig, ...]
    ) -> None:
        """Hint configurations a tuner expects to measure on
        ``region_name`` soon, so the next execution of that region can
        batch-evaluate them in one vectorized pass (see
        ``repro.openmp.batch``).  Purely an optimization: results are
        byte-identical with or without hints."""
        if configs:
            self._probe_hints[region_name] = tuple(configs)

    # ------------------------------------------------------------------
    # region execution
    # ------------------------------------------------------------------
    def parallel_for(self, region: RegionProfile) -> RegionExecutionRecord:
        """Execute one ``#pragma omp parallel for schedule(runtime)``
        region under the runtime's current configuration.

        OMPT ``PARALLEL_BEGIN`` fires *before* the team is formed, so a
        tool (the ARCS policy) may adjust the configuration inside the
        callback and affect this very execution - exactly how ARCS
        applies per-region settings.
        """
        ompt = self.ompt
        name = region.name
        ompt_active = ompt.has_tool()
        parallel_id = 0
        if ompt_active:
            parallel_id = ompt.new_parallel_id()
            ompt.dispatch(
                OmptEvent.PARALLEL_BEGIN,
                ParallelBeginPayload(
                    name, parallel_id, self._config.n_threads,
                    self.node.now_s,
                ),
            )
        hints = self._probe_hints.pop(name, None)
        if hints is not None:
            # warm the engine's record caches for the hinted candidates
            # in one vectorized pass; execute() below then sequences
            # side effects exactly as the scalar path would.
            self.engine.prefetch(region, hints)
        tb = bus()
        config = self._config
        if tb.enabled:
            begin, seq = tb.span_begin()
            record = self.engine.execute(region, config)
            record = self._apply_noise(record)
            tb.span_finish(
                "omp.region", begin, seq,
                region=name,
                config=config.label(),
                time_s=record.time_s,
                energy_j=record.energy_j,
            )
            tb.count("omp.regions")
            tb.observe("omp.region_time_s", record.time_s)
        else:
            record = self.engine.execute(region, config)
            record = self._apply_noise(record)
        if ompt_active:
            if ompt.has_callbacks(_AGGREGATE_EVENTS):
                self._dispatch_aggregates(name, parallel_id, record)
            elif tb.enabled:
                # no tool listens: only the bus counters move
                ompt.count_dispatches(_AGGREGATE_EVENTS)
            ompt.dispatch(
                OmptEvent.PARALLEL_END,
                ParallelEndPayload(
                    name, parallel_id, self.node.now_s, record
                ),
            )
        return record

    def _apply_noise(
        self, record: RegionExecutionRecord
    ) -> RegionExecutionRecord:
        """Seeded multiplicative run-to-run noise on time and energy.

        The engine already advanced the clock by the deterministic
        time; here we advance by the noise delta (noise factors are
        floored so time never goes backwards).
        """
        self._call_index += 1
        if self.noise_sigma == 0.0:
            return record
        factor = max(
            1.0 + self._noise.normal(self._call_index, self.noise_sigma),
            1.0,
        )
        if factor == 1.0:
            return record
        delta_t = record.time_s * (factor - 1.0)
        self.node.advance(delta_t)
        sockets = self.node.spec.sockets
        self.node.deposit_region_energy(
            record.energy_j * (factor - 1.0) / sockets,
            record.dram_energy_j * (factor - 1.0) / sockets,
        )
        return record.scaled(factor)

    def _dispatch_aggregates(
        self, name: str, parallel_id: int, record: RegionExecutionRecord
    ) -> None:
        n = record.config.n_threads
        mean_busy = sum(record.thread_busy_s) / n
        self.ompt.dispatch(
            OmptEvent.IMPLICIT_TASK,
            DurationPayload(
                region_name=name,
                parallel_id=parallel_id,
                duration_s=record.time_s,
            ),
        )
        self.ompt.dispatch(
            OmptEvent.WORK_LOOP,
            DurationPayload(
                region_name=name,
                parallel_id=parallel_id,
                duration_s=mean_busy,
            ),
        )
        self.ompt.dispatch(
            OmptEvent.SYNC_REGION_BARRIER,
            DurationPayload(
                region_name=name,
                parallel_id=parallel_id,
                duration_s=record.barrier_wait_total_s / n,
            ),
        )
