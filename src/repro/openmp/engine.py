"""Region execution engine.

Turns (region profile, OpenMP configuration, current power caps) into a
:class:`RegionExecutionRecord`.  The pipeline:

1. place the team on the machine (physical cores first, SMT last);
2. ask RAPL for the per-package sustainable frequency — the cap's
   effect on compute speed;
3. predict cache miss rates from the region's memory profile, the
   socket-level thread count and the scheduling quantum, then resolve
   the DRAM-bandwidth contention fixed point;
4. partition iterations per the exact OpenMP schedule semantics and
   simulate the dispatch (greedy earliest-available-thread for
   dynamic/guided, closed-form for static), yielding per-thread finish
   times — load imbalance falls out here;
5. integrate the power model over the region (active cores, spinning /
   sleeping waiters, uncore) to get package energy.

The engine is deterministic; run-to-run noise is applied by the
runtime layer.  Records are memoized on (region, config, caps) because
applications execute identical region calls thousands of times, first
per engine and then in the process-wide memo of
:mod:`repro.openmp.batch`.  :meth:`ExecutionEngine.prefetch` fills both
for a set of candidate configs in one vectorized pass; a config nobody
prefetched falls back to the scalar :meth:`ExecutionEngine._simulate`,
which stays the reference the batched records are tested against.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.machine.node import SimulatedNode
from repro.openmp import batch as _batch
from repro.openmp.barrier import TeamCosts
from repro.openmp.records import RegionExecutionRecord
from repro.openmp.region import RegionProfile
from repro.openmp.schedule import average_chunk_iters, chunks_for
from repro.openmp.types import OMPConfig, ScheduleKind
from repro.telemetry.bus import bus
from repro.util.rng import rng_for

#: above this many chunks, dynamic dispatch uses the balanced-flow
#: approximation instead of the exact greedy simulation.
_SIM_CHUNK_LIMIT = 4096

from repro.machine.power import SMT_POWER_FACTOR as _SMT_POWER_FACTOR

#: bandwidth fixed-point iterations (converges geometrically).
_BW_FIXED_POINT_ITERS = 3


@dataclass(frozen=True)
class _EnergyTeam:
    """Placement-derived terms of the energy integral for one team size."""

    #: per occupied core: (socket, thread ids, SMT dynamic-power
    #: multiplier, whether the master thread runs there)
    cores: tuple[tuple[int, tuple[int, ...], float, bool], ...]
    master_socket: int
    #: per socket: draw of the cores outside the team (asleep)
    unused_sleep_w: tuple[float, ...]


@dataclass(frozen=True)
class _WeightCacheEntry:
    weights: np.ndarray
    prefix: np.ndarray  # prefix[i] = sum(weights[:i])


class ExecutionEngine:
    """Simulates parallel-region executions on a :class:`SimulatedNode`."""

    #: bandwidth fixed-point iteration count, exposed for the batched
    #: evaluator (which must run the exact same number of rounds).
    BW_FIXED_POINT_ITERS = _BW_FIXED_POINT_ITERS

    def __init__(
        self, node: SimulatedNode, costs: TeamCosts | None = None
    ) -> None:
        self.node = node
        self.costs = costs or TeamCosts()
        self._weight_cache: dict[tuple[str, int], _WeightCacheEntry] = {}
        self._record_cache: dict[tuple, RegionExecutionRecord] = {}
        self._energy_teams: dict[int, _EnergyTeam] = {}

    # ------------------------------------------------------------------
    def _caps(self) -> tuple[float | None, ...]:
        node = self.node
        cap_of = node.rapl.effective_cap_w
        now_s = node.now_s
        return tuple([cap_of(s, now_s) for s in range(node.spec.sockets)])

    def execute(
        self, region: RegionProfile, config: OMPConfig
    ) -> RegionExecutionRecord:
        """Execute ``region`` under ``config``; advances the node clock
        and deposits package energy into the RAPL counters."""
        spec = self.node.spec
        if config.n_threads > spec.total_hw_threads:
            raise ValueError(
                f"config requests {config.n_threads} threads but "
                f"{spec.name} has {spec.total_hw_threads} hardware threads"
            )
        caps = self._caps()
        key = (
            region.name,
            region.iterations,
            config,
            caps,
            self.node.frequency_limit_ghz,
        )
        record = self._record_cache.get(key)
        if record is None:
            # process-wide content-keyed memo: another engine (a fresh
            # runtime, an earlier sweep cell) may have computed this
            # exact evaluation already.
            mkey = _batch.memo_key(self, region, config, caps)
            record = _batch.memo_get(mkey)
            if record is None:
                record = self._simulate(region, config)
                _batch.memo_put(mkey, record)
            self._record_cache[key] = record
        # side effects: clock + energy counters
        self.node.advance(record.time_s)
        self.node.deposit_region_energy(
            record.energy_j / spec.sockets,
            record.dram_energy_j / spec.sockets,
        )
        return record

    # ------------------------------------------------------------------
    def prefetch(
        self, region: RegionProfile, configs: tuple[OMPConfig, ...]
    ) -> int:
        """Warm the record caches for candidate ``configs`` under the
        current power caps in one vectorized pass.

        Pure pre-computation: no clock advance, no energy deposits, no
        OMPT events - subsequent :meth:`execute` calls hit the cache
        and behave byte-identically to the scalar path.  Returns the
        number of freshly computed records (cached/memoized candidates
        and configs the machine cannot run cost nothing).  Telemetry
        records the request, never that number: how much the
        process-wide memo already holds depends on what ran earlier in
        the process, and a cell's trace must not.
        """
        if not configs:
            return 0
        tb = bus()
        if tb.enabled:
            tb.count("batch.prefetches")
            tb.emit(
                "batch.prefetch", region=region.name, configs=len(configs)
            )
        spec = self.node.spec
        caps = self._caps()
        todo: list[tuple[OMPConfig, tuple, tuple]] = []
        seen: set[OMPConfig] = set()
        for config in configs:
            if config.n_threads > spec.total_hw_threads:
                continue
            if config in seen:
                continue
            seen.add(config)
            key = (
                region.name,
                region.iterations,
                config,
                caps,
                self.node.frequency_limit_ghz,
            )
            if key in self._record_cache:
                continue
            mkey = _batch.memo_key(self, region, config, caps)
            record = _batch.memo_get(mkey)
            if record is not None:
                self._record_cache[key] = record
                continue
            todo.append((config, key, mkey))
        if not todo:
            return 0
        records = _batch.BatchEvaluator(self).evaluate(
            region, [config for config, _, _ in todo]
        )
        for (config, key, mkey), record in zip(todo, records):
            self._record_cache[key] = record
            _batch.memo_put(mkey, record)
        return len(todo)

    # ------------------------------------------------------------------
    def _weights(self, region: RegionProfile) -> _WeightCacheEntry:
        key = (region.name, region.iterations)
        entry = self._weight_cache.get(key)
        if entry is None:
            w = region.iteration_weights()
            prefix = np.concatenate(([0.0], np.cumsum(w)))
            entry = _WeightCacheEntry(weights=w, prefix=prefix)
            self._weight_cache[key] = entry
        return entry

    def _simulate(
        self, region: RegionProfile, config: OMPConfig
    ) -> RegionExecutionRecord:
        spec = self.node.spec
        n_threads = config.n_threads
        placement = self.node.topology.place(n_threads)
        freqs = self.node.frequency_for_team(placement)
        throughput = placement.per_thread_throughput()
        threads_per_socket = placement.threads_per_socket

        entry = self._weights(region)
        total_weight = float(entry.prefix[-1])
        avg_chunk = average_chunk_iters(config, region.iterations)

        # -- cache + memory model per socket ----------------------------
        uncore = [
            self.node.frequency.uncore_scale(freqs[s])
            for s in range(spec.sockets)
        ]
        active_cores = placement.active_cores_per_socket
        traffic = [
            self.node.cache.predict(
                region.memory,
                region.iterations,
                max(1, threads_per_socket[s]),
                n_threads,
                avg_chunk,
                uncore_scale=uncore[s],
                smt_share=threads_per_socket[s] / max(1, active_cores[s]),
            )
            if threads_per_socket[s] > 0
            else None
            for s in range(spec.sockets)
        ]

        # Per-thread cost of a weight-1 iteration, split cpu/mem.
        # Per-thread jitter (OS noise, SMT partner interference) is
        # deterministic per (region, thread) so records stay memoizable;
        # it grows with SMT co-residency and only slows threads down.
        jitter_rng = rng_for(
            0x0E5, "thread-jitter", region.name, n_threads, spec.name
        )
        raw_jitter = np.abs(jitter_rng.normal(0.0, 1.0, size=n_threads))
        cpu_s = np.empty(n_threads)
        mem_s = np.empty(n_threads)
        for slot, thr in zip(placement.slots, throughput):
            f = freqs[slot.socket]
            t = traffic[slot.socket]
            assert t is not None
            siblings = placement.siblings_active(slot)
            jitter = 1.0 + (
                spec.thread_jitter_sigma
                * (siblings ** 0.5)
                * raw_jitter[slot.thread_id]
            )
            cpu_s[slot.thread_id] = (
                region.cpu_ns_per_iter
                * 1e-9
                * (spec.base_freq_ghz / f)
                / thr
                * jitter
            )
            mem_s[slot.thread_id] = (
                t.accesses_per_iter * t.stall_ns_per_access * 1e-9 * jitter
            )

        # -- DRAM bandwidth contention fixed point -----------------------
        mem_mult = np.ones(spec.sockets)
        for _ in range(_BW_FIXED_POINT_ITERS):
            per_iter = cpu_s + mem_s * mem_mult[
                [slot.socket for slot in placement.slots]
            ]
            # balanced-flow estimate of compute time
            rate = float(np.sum(1.0 / per_iter))
            t_est = max(total_weight / rate, 1e-12)
            new_mult = np.ones(spec.sockets)
            for s in range(spec.sockets):
                t = traffic[s]
                if t is None or t.dram_bytes_per_iter <= 0:
                    continue
                share = threads_per_socket[s] / n_threads
                dram_rate = (
                    t.dram_bytes_per_iter * region.iterations * share / t_est
                )
                new_mult[s] = self.node.memory.contention_multiplier(
                    dram_rate, freqs[s], streams=threads_per_socket[s]
                )
            mem_mult = 0.5 * (mem_mult + new_mult)

        socket_of = np.array([slot.socket for slot in placement.slots])
        per_weight_s = cpu_s + mem_s * mem_mult[socket_of]

        # -- schedule the chunks -----------------------------------------
        chunks = chunks_for(config, region.iterations)
        chunk_weights = (
            entry.prefix[[c.stop for c in chunks]]
            - entry.prefix[[c.start for c in chunks]]
        )
        return self._complete(
            region,
            config,
            placement,
            freqs,
            threads_per_socket,
            traffic,
            len(chunks),
            chunk_weights,
            per_weight_s,
        )

    def _complete(
        self,
        region: RegionProfile,
        config: OMPConfig,
        placement,
        freqs: tuple[float, ...],
        threads_per_socket,
        traffic,
        n_chunks: int,
        chunk_weights: np.ndarray,
        per_weight_s: np.ndarray,
    ) -> RegionExecutionRecord:
        """Schedule the chunks and assemble the record - the back half
        of :meth:`_simulate`, shared with the batched evaluator so both
        paths run the exact same arithmetic."""
        spec = self.node.spec
        n_threads = config.n_threads
        if config.schedule is ScheduleKind.STATIC:
            finish, dispatch_max = self._run_static(
                config, n_chunks, chunk_weights, per_weight_s
            )
        else:
            finish, dispatch_max = self._run_dynamic(
                n_threads, chunk_weights, per_weight_s
            )

        finish_s = finish.tolist()
        # Python max/min on a 2-32 element list beat numpy's reduction
        # overhead; the waits' sum stays numpy (pairwise summation).
        t_compute = max(finish_s)
        waits = t_compute - finish
        barrier_base = self.costs.barrier_s(n_threads)
        fork_join = self.costs.fork_join_s(n_threads)
        serial_s = region.serial_ns * 1e-9
        time_s = serial_s + fork_join + t_compute + barrier_base
        # Master-only (single/master construct) sections inside the
        # region leave the other threads waiting at the construct's
        # barrier - OMPT reports that as sync-region time.  This is the
        # Figure 9 EvalEOSForElems situation: a region whose inclusive
        # time is dominated by barrier waits no configuration can fix.
        serial_barrier_s = (n_threads - 1) * serial_s

        energy_j = self._energy(
            placement, freqs, finish_s, t_compute, serial_s, time_s
        )

        # -- aggregate cache metrics (thread-weighted across sockets) ----
        l1 = l2 = l3 = dram = 0.0
        for s in range(spec.sockets):
            t = traffic[s]
            if t is None:
                continue
            share = threads_per_socket[s] / n_threads
            l1 += share * t.l1_miss_rate
            l2 += share * t.l2_miss_rate
            l3 += share * t.l3_miss_rate
            dram += t.dram_bytes_per_iter * region.iterations * share

        dram_energy_j = (
            spec.sockets * spec.dram_static_w * time_s
            + dram * spec.dram_energy_j_per_byte
        )

        return RegionExecutionRecord(
            region_name=region.name,
            config=config,
            time_s=time_s,
            loop_time_s=t_compute,
            serial_time_s=serial_s,
            fork_join_s=fork_join + barrier_base,
            barrier_wait_total_s=float(waits.sum())
            + n_threads * barrier_base
            + serial_barrier_s,
            # max(t - f) == t - min(f): rounding is monotone
            barrier_wait_max_s=(t_compute - min(finish_s)) + barrier_base,
            thread_busy_s=tuple(finish_s),
            energy_j=energy_j,
            avg_power_w=energy_j / time_s if time_s > 0 else 0.0,
            frequencies_ghz=freqs,
            l1_miss_rate=l1,
            l2_miss_rate=l2,
            l3_miss_rate=l3,
            dram_bytes=dram,
            dispatch_overhead_s=dispatch_max,
            dram_energy_j=dram_energy_j,
        )

    # ------------------------------------------------------------------
    def _run_static(
        self,
        config: OMPConfig,
        n_chunks: int,
        chunk_weights: np.ndarray,
        per_weight_s: np.ndarray,
    ) -> tuple[np.ndarray, float]:
        """Closed-form static scheduling: owners are fixed a priori
        (block partition for default static, round-robin for chunked —
        the same rule as :func:`static_assignment`, vectorized)."""
        n_threads = config.n_threads
        if config.chunk is None:
            owners = np.arange(n_chunks)
        else:
            owners = np.arange(n_chunks) % n_threads
        thread_weight = np.bincount(
            owners, weights=chunk_weights, minlength=n_threads
        )[:n_threads]
        finish = thread_weight * per_weight_s
        return finish, 0.0

    def _run_dynamic(
        self,
        n_threads: int,
        chunk_weights: np.ndarray,
        per_weight_s: np.ndarray,
    ) -> tuple[np.ndarray, float]:
        """Greedy earliest-available-thread dispatch (exact) or the
        balanced-flow approximation for very large chunk counts."""
        dispatch = self.costs.dispatch_s()
        n_chunks = len(chunk_weights)
        if n_chunks > _SIM_CHUNK_LIMIT:
            # Balanced flow: threads drain the chunk queue at their own
            # speeds; finish spread is bounded by one chunk duration.
            total_weight = float(chunk_weights.sum())
            dispatch_per_weight = dispatch * n_chunks / max(
                total_weight, 1e-30
            )
            eff_per_weight = per_weight_s + dispatch_per_weight
            rates = 1.0 / eff_per_weight
            t_balanced = total_weight / float(rates.sum())
            straggle = float(chunk_weights.max()) * float(
                per_weight_s.max()
            ) * 0.5
            finish = np.full(n_threads, t_balanced)
            finish[-1] += straggle
            share = rates / float(rates.sum())
            dispatch_max = float((share * n_chunks * dispatch).max())
            return finish, dispatch_max
        # Python floats in lists: the loop runs once per chunk, and
        # numpy scalars cost several times a float here.  (time, tid)
        # pairs are distinct, so the heap yields one fixed order.
        per_weight = per_weight_s.tolist()
        avail = [(0.0, tid) for tid in range(n_threads)]  # a heap
        finish = [0.0] * n_threads
        dispatch_time = [0.0] * n_threads
        for w in chunk_weights.tolist():
            t, tid = avail[0]
            t_new = t + (dispatch + w * per_weight[tid])
            finish[tid] = t_new
            dispatch_time[tid] += dispatch
            heapq.heapreplace(avail, (t_new, tid))
        return np.array(finish), max(dispatch_time)

    # ------------------------------------------------------------------
    def _energy_team(self, placement) -> _EnergyTeam:
        team = self._energy_teams.get(placement.n_threads)
        if team is None:
            spec = self.node.spec
            cores = tuple(
                (
                    socket,
                    tids,
                    1.0 + _SMT_POWER_FACTOR * (len(tids) - 1),
                    0 in tids,
                )
                for socket, _core, tids in placement.cores
            )
            team = _EnergyTeam(
                cores=cores,
                master_socket=placement.slots[0].socket,
                unused_sleep_w=tuple(
                    (spec.cores_per_socket - active)
                    * spec.idle_core_sleep_w
                    for active in placement.active_cores_per_socket
                ),
            )
            self._energy_teams[placement.n_threads] = team
        return team

    def _energy(
        self,
        placement,
        freqs: tuple[float, ...],
        finish: list[float],
        t_compute: float,
        serial_s: float,
        time_s: float,
    ) -> float:
        """Integrate the package power model over the region.

        The team's core groups come from :meth:`_energy_team` and the
        per-core constants from ``PowerModel.at_frequency``; the sum
        runs core by core, then socket by socket, in a fixed order.
        """
        team = self._energy_team(placement)
        at = [self.node.power.at_frequency(f) for f in freqs]
        serial = serial_s > 0
        if serial:
            # serial prologue: team cores idle, except the master's core
            serial_idle_j = [p.idle_energy_j(serial_s) for p in at]
        energy = 0.0
        for socket, tids, smt_mult, has_master in team.cores:
            p = at[socket]
            active = max([finish[tid] for tid in tids])
            energy += p.core_dynamic_w * smt_mult * active
            energy += p.idle_energy_j(max(0.0, t_compute - active))
            if serial and not has_master:
                energy += serial_idle_j[socket]
        # master core during serial prologue
        if serial:
            energy += at[team.master_socket].core_dynamic_w * serial_s
        for socket, p in enumerate(at):
            # uncore draws for the whole region
            energy += p.uncore_w * time_s
            # cores outside the team sleep throughout
            energy += team.unused_sleep_w[socket] * time_s
        return energy
