"""Tests for the OpenMP runtime facade: omp_* routines, OMPT dispatch,
configuration-change overhead and measurement noise."""

from __future__ import annotations

import json

import pytest

from repro.machine.node import SimulatedNode
from repro.machine.spec import crill
from repro.openmp.ompt import OmptEvent
from repro.openmp.runtime import CONFIG_CALL_OVERHEAD_S, OpenMPRuntime
from repro.openmp.types import OMPConfig, ScheduleKind
from repro.util.rng import _FIRST_BLOCK, rng_for
from tests.test_openmp_engine import make_region


class TestOmpRoutines:
    def test_defaults(self, runtime):
        assert runtime.omp_get_max_threads() == 32
        assert runtime.omp_get_num_threads() == 32
        assert runtime.omp_get_schedule() == (ScheduleKind.STATIC, None)

    def test_set_num_threads(self, runtime):
        runtime.omp_set_num_threads(8)
        assert runtime.omp_get_num_threads() == 8

    def test_set_num_threads_bounds(self, runtime):
        with pytest.raises(ValueError):
            runtime.omp_set_num_threads(0)
        with pytest.raises(ValueError):
            runtime.omp_set_num_threads(33)

    def test_set_schedule(self, runtime):
        runtime.omp_set_schedule(ScheduleKind.GUIDED, 16)
        assert runtime.omp_get_schedule() == (ScheduleKind.GUIDED, 16)

    def test_set_schedule_validates(self, runtime):
        with pytest.raises(TypeError):
            runtime.omp_set_schedule("guided")  # type: ignore[arg-type]
        with pytest.raises(ValueError):
            runtime.omp_set_schedule(ScheduleKind.DYNAMIC, 0)

    def test_current_config(self, runtime):
        runtime.omp_set_num_threads(4)
        runtime.omp_set_schedule(ScheduleKind.DYNAMIC, 2)
        cfg = runtime.current_config()
        assert (cfg.n_threads, cfg.schedule, cfg.chunk) == (
            4, ScheduleKind.DYNAMIC, 2,
        )


#: steps driving the runtime's cached state: omp_set_* calls, cap
#: writes (pending, then settled), DVFS ceilings and checkpoint restores
_STATE_STEPS = {
    "omp-calls": [
        ("threads", 8), ("schedule", ScheduleKind.GUIDED, 16),
        ("threads", 8), ("restore",),
        ("schedule", ScheduleKind.STATIC, None),
    ],
    "cap-change": [
        ("threads", 4), ("cap", 30.0), ("threads", 8), ("settle",),
        ("threads", 16), ("schedule", ScheduleKind.DYNAMIC, 1),
        ("cap", 25.0), ("settle",), ("threads", 2), ("cap", None),
        ("settle",), ("threads", 4), ("restore",),
    ],
    "dvfs-ceiling": [
        ("threads", 4), ("freq", 1.2), ("threads", 8),
        ("schedule", ScheduleKind.GUIDED, 8), ("cap", 30.0), ("settle",),
        ("threads", 16), ("freq", None), ("restore",), ("threads", 2),
    ],
}


@pytest.mark.parametrize("steps", _STATE_STEPS.values(), ids=_STATE_STEPS)
def test_cached_runtime_state_matches_its_sources(steps, monkeypatch):
    """The held config equals the omp_get_* values after every step, and
    each config-call deposit equals the uncached formula bit for bit."""
    node = SimulatedNode(crill())
    runtime = OpenMPRuntime(node, noise_sigma=0.0)
    deposits = []
    deposit = node.deposit_energy

    def spy(socket, joules):
        f = node.frequency_for_team(node.topology.place(1))[0]
        expected = (
            node.power.core_dynamic_w(f) + node.power.uncore_w(f)
        ) * CONFIG_CALL_OVERHEAD_S
        deposits.append((socket, joules, expected))
        deposit(socket, joules)

    monkeypatch.setattr(node, "deposit_energy", spy)
    for step in steps:
        kind, *args = step
        if kind == "threads":
            runtime.omp_set_num_threads(*args)
        elif kind == "schedule":
            runtime.omp_set_schedule(*args)
        elif kind == "cap":
            node.set_power_cap(*args)
        elif kind == "settle":
            node.settle_after_cap()
        elif kind == "freq":
            runtime.set_frequency_limit(*args)
        else:
            blob = json.loads(json.dumps(runtime.snapshot()))
            fresh = OpenMPRuntime(SimulatedNode(crill()))
            fresh.restore(blob)
            assert fresh.current_config() == runtime.current_config()
            runtime.restore(blob)
        assert runtime.current_config() == OMPConfig(
            runtime.omp_get_num_threads(), *runtime.omp_get_schedule()
        )
    assert deposits
    for socket, joules, expected in deposits:
        assert (socket, joules) == (0, expected)
    if any(kind in ("cap", "freq") for kind, *_ in steps):
        # the key changed mid-sequence, so the cache was both hit and
        # refilled
        assert len({expected for _, _, expected in deposits}) > 1


class TestConfigChangeOverhead:
    """Section III-C: each omp_set_* call costs real time (~0.4 ms; two
    calls make the paper's ~0.8 ms per configuration change)."""

    def test_each_call_costs_time(self, runtime):
        t0 = runtime.node.now_s
        runtime.omp_set_num_threads(8)
        assert runtime.node.now_s - t0 == pytest.approx(
            CONFIG_CALL_OVERHEAD_S
        )

    def test_overhead_accumulates(self, runtime):
        runtime.omp_set_num_threads(8)
        runtime.omp_set_schedule(ScheduleKind.DYNAMIC, 1)
        assert runtime.config_change_calls == 2
        assert runtime.config_change_time_s == pytest.approx(
            2 * CONFIG_CALL_OVERHEAD_S
        )

    def test_full_change_near_paper_value(self, runtime):
        """Two routine calls ~ 0.8 ms, the paper's Crill measurement."""
        runtime.omp_set_num_threads(8)
        runtime.omp_set_schedule(ScheduleKind.GUIDED, 8)
        assert runtime.config_change_time_s == pytest.approx(0.8e-3)

    def test_overhead_burns_energy(self, runtime):
        runtime.omp_set_num_threads(8)
        assert runtime.node.read_package_energy_j() > 0


class TestParallelFor:
    def test_executes_with_current_config(self, runtime):
        runtime.omp_set_num_threads(4)
        rec = runtime.parallel_for(make_region())
        assert rec.config.n_threads == 4

    def test_noiseless_matches_engine(self, runtime):
        rec1 = runtime.parallel_for(make_region())
        rec2 = runtime.parallel_for(make_region())
        assert rec1.time_s == rec2.time_s

    def test_clock_advances_by_region_time(self, runtime):
        t0 = runtime.node.now_s
        rec = runtime.parallel_for(make_region())
        assert runtime.node.now_s - t0 == pytest.approx(rec.time_s)


class TestNoise:
    def test_noise_perturbs_time(self, noisy_runtime):
        r1 = noisy_runtime.parallel_for(make_region())
        r2 = noisy_runtime.parallel_for(make_region())
        assert r1.time_s != r2.time_s

    def test_noise_reproducible_by_seed(self):
        def run(seed):
            rt = OpenMPRuntime(
                SimulatedNode(crill()), seed=seed, noise_sigma=0.02
            )
            return [rt.parallel_for(make_region()).time_s for _ in range(5)]

        assert run(1) == run(1)
        assert run(1) != run(2)

    def test_noise_never_speeds_up(self, noisy_runtime):
        """Interference only adds time (floor at the deterministic
        value), so the min-of-3 methodology finds quiet runs."""
        det = OpenMPRuntime(SimulatedNode(crill()), noise_sigma=0.0)
        base = det.parallel_for(make_region()).time_s
        for _ in range(10):
            assert noisy_runtime.parallel_for(
                make_region()
            ).time_s >= base - 1e-12

    def test_noise_scales_energy_consistently(self, noisy_runtime):
        rec = noisy_runtime.parallel_for(make_region())
        assert rec.energy_j == pytest.approx(
            rec.avg_power_w * rec.time_s, rel=0.05
        )

    def test_noise_factor_is_the_rng_for_draw(self):
        sigma = 0.02
        noisy = OpenMPRuntime(
            SimulatedNode(crill()), seed=7, noise_sigma=sigma
        )
        det = OpenMPRuntime(SimulatedNode(crill()), noise_sigma=0.0)
        for index in range(1, 40):
            base = det.parallel_for(make_region()).time_s
            factor = max(
                1.0 + rng_for(7, "noise", index).normal(0.0, sigma), 1.0
            )
            assert noisy.parallel_for(make_region()).time_s == (
                base * factor
            )

    # the stream seeds blocks of 16, 32, ... indices starting at index
    # 1, so these are the last indices of its first two blocks
    @pytest.mark.parametrize("boundary", [_FIRST_BLOCK, 3 * _FIRST_BLOCK])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("into", ["fresh", "used"])
    def test_restore_at_block_boundary_resumes(self, boundary, offset, into):
        def build():
            return OpenMPRuntime(
                SimulatedNode(crill()), seed=11, noise_sigma=0.02
            )

        region = make_region()
        original = build()
        for _ in range(boundary + offset):
            original.parallel_for(region)
        node_blob = json.loads(json.dumps(original.node.snapshot()))
        blob = json.loads(json.dumps(original.snapshot()))
        assert blob["call_index"] == boundary + offset
        resumed = build()
        if into == "used":
            # a runtime that has already seeded other indices
            for _ in range(5):
                resumed.parallel_for(region)
        resumed.node.restore(node_blob)
        resumed.restore(blob)
        expected = [original.parallel_for(region) for _ in range(300)]
        assert [resumed.parallel_for(region) for _ in range(300)] == (
            expected
        )
        assert resumed.node.snapshot() == original.node.snapshot()


class TestOmptDispatch:
    def test_no_tool_no_events(self, runtime):
        # has_tool() False -> no parallel ids consumed
        runtime.parallel_for(make_region())
        assert runtime.ompt._next_parallel_id == 1

    def test_begin_end_fired_in_order(self, runtime):
        events = []
        runtime.ompt.register(
            OmptEvent.PARALLEL_BEGIN, lambda p: events.append(("b", p))
        )
        runtime.ompt.register(
            OmptEvent.PARALLEL_END, lambda p: events.append(("e", p))
        )
        runtime.parallel_for(make_region(name="evented"))
        assert [k for k, _ in events] == ["b", "e"]
        begin, end = events[0][1], events[1][1]
        assert begin.region_name == end.region_name == "evented"
        assert begin.parallel_id == end.parallel_id
        assert end.timestamp_s > begin.timestamp_s

    def test_callback_can_change_this_execution(self, runtime):
        """ARCS's key hook: configuring inside PARALLEL_BEGIN affects
        the same region execution."""
        runtime.ompt.register(
            OmptEvent.PARALLEL_BEGIN,
            lambda p: runtime.omp_set_num_threads(2),
        )
        rec = runtime.parallel_for(make_region())
        assert rec.config.n_threads == 2

    def test_aggregate_events(self, runtime):
        durations = {}
        for ev in (
            OmptEvent.IMPLICIT_TASK,
            OmptEvent.WORK_LOOP,
            OmptEvent.SYNC_REGION_BARRIER,
        ):
            runtime.ompt.register(
                ev, lambda p, ev=ev: durations.setdefault(ev, p.duration_s)
            )
        rec = runtime.parallel_for(make_region())
        assert durations[OmptEvent.IMPLICIT_TASK] == pytest.approx(
            rec.time_s
        )
        assert durations[OmptEvent.WORK_LOOP] <= rec.time_s
        assert durations[OmptEvent.SYNC_REGION_BARRIER] >= 0
