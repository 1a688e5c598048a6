"""Exact oracles for the back half shared by the scalar and batched
evaluators: chunk dispatch (``ExecutionEngine._run_dynamic``), record
assembly (``ExecutionEngine._complete``) and run-to-run noise
(``OpenMPRuntime._apply_noise`` and ``RegionExecutionRecord.scaled``).

Both evaluators run through these, so the differential wall
(``test_engine_differential``) cannot see a change to them.  This
module keeps their original forms - a heap loop over numpy scalars,
numpy reductions over the finish times, a noisy record built through
the frozen constructor - as test-local oracles, and asserts every
record field equal (``==``, not approx), the ``thread_busy_s`` tuple
included, over generated chunk weights, per-weight costs, team sizes
and noise factors (exactly 1.0 among them).
"""

from __future__ import annotations

import dataclasses
import heapq
from types import SimpleNamespace

import numpy as np
import pytest

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is an extra
    pytest.skip(
        "hypothesis is not installed", allow_module_level=True
    )

from repro.machine.node import SimulatedNode
from repro.machine.spec import crill, minotaur
from repro.openmp.engine import ExecutionEngine
from repro.openmp.records import RegionExecutionRecord
from repro.openmp.runtime import OpenMPRuntime
from repro.openmp.types import OMPConfig, ScheduleKind
from repro.util.rng import rng_for
from tests.test_openmp_engine import make_region

ENGINES = {
    spec.name: ExecutionEngine(SimulatedNode(spec))
    for spec in (crill(), minotaur())
}

_SETTINGS = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------
# the oracles: the back half as it was written before it moved to lists
# ---------------------------------------------------------------------------
def oracle_run_dynamic(engine, n_threads, chunk_weights, per_weight_s):
    """The exact greedy dispatch, on numpy scalars."""
    dispatch = engine.costs.dispatch_s()
    avail = [(0.0, tid) for tid in range(n_threads)]
    heapq.heapify(avail)
    finish = np.zeros(n_threads)
    dispatch_time = np.zeros(n_threads)
    for w in chunk_weights:
        t, tid = heapq.heappop(avail)
        duration = dispatch + float(w) * per_weight_s[tid]
        t_new = t + duration
        finish[tid] = t_new
        dispatch_time[tid] += dispatch
        heapq.heappush(avail, (t_new, tid))
    return finish, float(dispatch_time.max())


def oracle_complete(
    engine, region, config, placement, freqs, threads_per_socket,
    traffic, n_chunks, chunk_weights, per_weight_s,
) -> RegionExecutionRecord:
    """Record assembly with numpy reductions over the finish times."""
    spec = engine.node.spec
    n_threads = config.n_threads
    if config.schedule is ScheduleKind.STATIC:
        finish, dispatch_max = engine._run_static(
            config, n_chunks, chunk_weights, per_weight_s
        )
    else:
        finish, dispatch_max = oracle_run_dynamic(
            engine, n_threads, chunk_weights, per_weight_s
        )
    t_compute = float(finish.max())
    waits = t_compute - finish
    barrier_base = engine.costs.barrier_s(n_threads)
    fork_join = engine.costs.fork_join_s(n_threads)
    serial_s = region.serial_ns * 1e-9
    time_s = serial_s + fork_join + t_compute + barrier_base
    serial_barrier_s = (n_threads - 1) * serial_s
    finish_s = finish.tolist()
    energy_j = engine._energy(
        placement, freqs, finish_s, t_compute, serial_s, time_s
    )
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
        barrier_wait_max_s=float(waits.max()) + barrier_base,
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


def oracle_scaled(
    record: RegionExecutionRecord, factor: float
) -> RegionExecutionRecord:
    """The noisy record, built through the frozen constructor."""
    return RegionExecutionRecord(
        region_name=record.region_name,
        config=record.config,
        time_s=record.time_s * factor,
        loop_time_s=record.loop_time_s * factor,
        serial_time_s=record.serial_time_s,
        fork_join_s=record.fork_join_s,
        barrier_wait_total_s=record.barrier_wait_total_s * factor,
        barrier_wait_max_s=record.barrier_wait_max_s * factor,
        thread_busy_s=tuple(t * factor for t in record.thread_busy_s),
        energy_j=record.energy_j * factor,
        avg_power_w=record.avg_power_w,
        frequencies_ghz=record.frequencies_ghz,
        l1_miss_rate=record.l1_miss_rate,
        l2_miss_rate=record.l2_miss_rate,
        l3_miss_rate=record.l3_miss_rate,
        dram_bytes=record.dram_bytes,
        dispatch_overhead_s=record.dispatch_overhead_s,
        dram_energy_j=record.dram_energy_j * factor,
    )


def oracle_apply_noise(runtime, call_index, record):
    """``_apply_noise`` with its draw from a fresh ``rng_for``
    generator: advances ``runtime``'s clock, deposits the energy delta
    and returns the noisy record."""
    if runtime.noise_sigma == 0.0:
        return record
    factor = float(max(
        1.0
        + rng_for(runtime.seed, "noise", call_index).normal(
            0.0, runtime.noise_sigma
        ),
        1.0,
    ))
    if factor == 1.0:
        return record
    runtime.node.advance(record.time_s * (factor - 1.0))
    sockets = runtime.node.spec.sockets
    runtime.node.deposit_region_energy(
        record.energy_j * (factor - 1.0) / sockets,
        record.dram_energy_j * (factor - 1.0) / sockets,
    )
    return oracle_scaled(record, factor)


def assert_same_record(got, expected):
    assert type(got) is RegionExecutionRecord
    for f in dataclasses.fields(RegionExecutionRecord):
        a, b = getattr(got, f.name), getattr(expected, f.name)
        assert type(a) is type(b), f.name
        assert a == b, (f.name, a, b)
    assert got == expected


# ---------------------------------------------------------------------------
# generated inputs
# ---------------------------------------------------------------------------
_WEIGHTS = st.floats(1e-3, 64.0, allow_nan=False, allow_infinity=False)
_PER_WEIGHT = st.floats(
    1e-9, 1e-3, allow_nan=False, allow_infinity=False
)


@st.composite
def back_half_cases(draw):
    spec_name = draw(st.sampled_from(sorted(ENGINES)))
    engine = ENGINES[spec_name]
    spec = engine.node.spec
    n_threads = draw(st.integers(1, spec.total_hw_threads))
    schedule = draw(st.sampled_from(list(ScheduleKind)))
    chunk = draw(st.one_of(st.none(), st.integers(1, 8)))
    if schedule is ScheduleKind.STATIC and chunk is None:
        # block partition: at most one chunk per thread
        n_chunks = draw(st.integers(1, n_threads))
    else:
        n_chunks = draw(st.integers(1, 300))
    chunk_weights = np.array(
        draw(st.lists(_WEIGHTS, min_size=n_chunks, max_size=n_chunks))
    )
    per_weight_s = np.array(
        draw(st.lists(_PER_WEIGHT, min_size=n_threads, max_size=n_threads))
    )
    placement = engine.node.topology.place(n_threads)
    freqs = tuple(
        draw(st.floats(spec.min_freq_ghz, spec.turbo_freq_ghz))
        for _ in range(spec.sockets)
    )
    threads_per_socket = placement.threads_per_socket
    rate = st.floats(0.0, 1.0)
    traffic = [
        SimpleNamespace(
            l1_miss_rate=draw(rate),
            l2_miss_rate=draw(rate),
            l3_miss_rate=draw(rate),
            dram_bytes_per_iter=draw(st.floats(0.0, 1e4)),
        )
        if threads_per_socket[s] > 0
        else None
        for s in range(spec.sockets)
    ]
    region = make_region(
        iterations=draw(st.integers(1, 10_000)),
        serial_ns=draw(st.one_of(st.just(0.0), st.floats(1.0, 1e6))),
    )
    config = OMPConfig(n_threads, schedule, chunk)
    return (
        engine, region, config, placement, freqs, threads_per_socket,
        traffic, n_chunks, chunk_weights, per_weight_s,
    )


# ---------------------------------------------------------------------------
# dispatch and record assembly
# ---------------------------------------------------------------------------
@_SETTINGS
@given(
    st.sampled_from(sorted(ENGINES)),
    st.integers(1, 32),
    st.lists(_WEIGHTS, min_size=1, max_size=400),
    st.data(),
)
def test_run_dynamic_matches_oracle(spec_name, n_threads, weights, data):
    engine = ENGINES[spec_name]
    per_weight_s = np.array(
        data.draw(
            st.lists(_PER_WEIGHT, min_size=n_threads, max_size=n_threads)
        )
    )
    chunk_weights = np.array(weights)
    finish, dispatch_max = engine._run_dynamic(
        n_threads, chunk_weights, per_weight_s
    )
    want_finish, want_dispatch = oracle_run_dynamic(
        engine, n_threads, chunk_weights, per_weight_s
    )
    assert isinstance(finish, np.ndarray)
    assert finish.dtype == want_finish.dtype
    assert finish.tolist() == want_finish.tolist()
    assert type(dispatch_max) is float
    assert dispatch_max == want_dispatch


def test_run_dynamic_ties_match_oracle():
    """Equal weights and costs make every pop a tie on time; the
    thread id breaks it in both."""
    engine = ENGINES["crill"]
    for n_threads in (1, 2, 7, 32):
        chunk_weights = np.ones(5 * n_threads + 3)
        per_weight_s = np.full(n_threads, 1e-4)
        finish, dispatch_max = engine._run_dynamic(
            n_threads, chunk_weights, per_weight_s
        )
        want = oracle_run_dynamic(
            engine, n_threads, chunk_weights, per_weight_s
        )
        assert finish.tolist() == want[0].tolist()
        assert dispatch_max == want[1]


@_SETTINGS
@given(back_half_cases())
def test_complete_matches_oracle(case):
    engine, *args = case
    assert_same_record(
        engine._complete(*args), oracle_complete(engine, *args)
    )


# ---------------------------------------------------------------------------
# run-to-run noise
# ---------------------------------------------------------------------------
_FACTORS = st.one_of(st.just(1.0), st.floats(1.0, 1.5))


@_SETTINGS
@given(back_half_cases(), _FACTORS)
def test_scaled_matches_constructor(case, factor):
    engine, *args = case
    record = engine._complete(*args)
    noisy = record.scaled(factor)
    assert_same_record(noisy, oracle_scaled(record, factor))
    assert noisy is not record
    if factor == 1.0:
        assert_same_record(noisy, record)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(ENGINES)),
    st.integers(0, 2**32),
    # 0 never draws; tiny sigmas floor about half the factors to 1.0
    st.sampled_from([0.0, 1e-300, 0.01, 0.2]),
    st.integers(1, 40),
)
def test_apply_noise_matches_oracle(spec_name, seed, sigma, calls):
    spec = ENGINES[spec_name].node.spec
    runtime = OpenMPRuntime(SimulatedNode(spec), seed=seed,
                            noise_sigma=sigma)
    twin = OpenMPRuntime(SimulatedNode(spec), seed=seed,
                         noise_sigma=sigma)
    region = make_region()
    record = runtime.engine.execute(
        region, OMPConfig(spec.total_cores, ScheduleKind.DYNAMIC, 2)
    )
    twin.node.advance(record.time_s)
    twin.node.deposit_region_energy(
        record.energy_j / spec.sockets,
        record.dram_energy_j / spec.sockets,
    )
    for index in range(1, calls + 1):
        got = runtime._apply_noise(record)
        want = oracle_apply_noise(twin, index, record)
        assert_same_record(got, want)
        assert runtime.node.now_s == twin.node.now_s
    if spec.supports_energy_counters:
        assert (
            runtime.node.read_package_energy_j()
            == twin.node.read_package_energy_j()
        )
        assert (
            runtime.node.read_dram_energy_j()
            == twin.node.read_dram_energy_j()
        )
