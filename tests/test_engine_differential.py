"""Differential tests: batched vs scalar evaluation is bit-identical.

The batched evaluator (``repro.openmp.batch``) is only shippable under
the contract that it produces records byte-identical to the scalar
``ExecutionEngine._simulate`` path.  These tests drive both paths over
a seeded random grid of (region, cap, config-set) cells and compare
every float field bitwise, plus memo-hit vs memo-miss equivalence and
an end-to-end ``StrategyRunResult`` JSON byte-comparison of a normal
run against one whose ``ExecutionEngine.prefetch`` does nothing.
"""

from __future__ import annotations

import dataclasses
import json
import struct

import numpy as np
import pytest

from repro.core.config import config_from_point, search_space_for
from repro.experiments.cache import result_to_json
from repro.experiments.runner import ExperimentSetup, run_strategy
from repro.machine.cache import MemoryProfile
from repro.machine.node import SimulatedNode
from repro.machine.spec import crill, minotaur
from repro.openmp import batch
from repro.openmp.engine import ExecutionEngine
from repro.openmp.region import ImbalanceSpec, RegionProfile
from repro.openmp.types import OMPConfig, ScheduleKind
from repro.util.rng import rng_for
from repro.workloads.sp import sp_application
from repro.workloads.synthetic import synthetic_application


@pytest.fixture(autouse=True)
def _isolated_memo():
    """Run every test against an empty process-wide memo."""
    batch.clear_memo()
    yield
    batch.clear_memo()


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def assert_records_bit_identical(scalar, batched, label: str) -> None:
    """Compare two RegionExecutionRecords field by field, bitwise for
    floats (plain ``==`` would conflate +0.0/-0.0)."""
    for f in dataclasses.fields(scalar):
        a = getattr(scalar, f.name)
        b = getattr(batched, f.name)
        if isinstance(a, float):
            assert bits(a) == bits(b), (
                f"{label}: field {f.name} differs: {a!r} vs {b!r}"
            )
        elif isinstance(a, tuple) and a and isinstance(a[0], float):
            assert len(a) == len(b)
            for i, (x, y) in enumerate(zip(a, b)):
                assert bits(x) == bits(y), (
                    f"{label}: {f.name}[{i}] differs: {x!r} vs {y!r}"
                )
        else:
            assert a == b, f"{label}: field {f.name} differs"


def random_region(rng: np.random.Generator, tag: int) -> RegionProfile:
    """A seeded random region covering the model's behaviour space."""
    kind = ("none", "linear", "sawtooth", "step", "random")[
        int(rng.integers(0, 5))
    ]
    return RegionProfile(
        name=f"diff_region_{tag}",
        iterations=int(rng.integers(16, 600)),
        cpu_ns_per_iter=float(rng.uniform(1e3, 8e5)),
        memory=MemoryProfile(
            bytes_per_iter=float(rng.uniform(64.0, 3e5)),
            stride_bytes=float(rng.choice([8.0, 64.0, 512.0, 8192.0])),
            footprint_bytes=float(rng.uniform(0.0, 2e8)),
            reuse_fraction=float(rng.uniform(0.0, 0.9)),
        ),
        imbalance=ImbalanceSpec(
            kind=kind,
            amplitude=float(rng.uniform(0.0, 0.6)) if kind != "none"
            else 0.0,
        ),
        serial_ns=float(rng.uniform(0.0, 1e5)),
    )


def random_configs(
    rng: np.random.Generator, max_threads: int, n: int
) -> list[OMPConfig]:
    configs = []
    for _ in range(n):
        schedule = (
            ScheduleKind.STATIC,
            ScheduleKind.DYNAMIC,
            ScheduleKind.GUIDED,
        )[int(rng.integers(0, 3))]
        chunk: int | None = int(rng.choice([1, 2, 4, 8, 16, 64, 256]))
        if schedule is ScheduleKind.STATIC and rng.random() < 0.4:
            chunk = None
        configs.append(
            OMPConfig(
                n_threads=int(rng.integers(1, max_threads + 1)),
                schedule=schedule,
                chunk=chunk,
            )
        )
    return configs


class TestRandomGridBitIdentity:
    @pytest.mark.parametrize("spec_name", ["crill", "minotaur"])
    def test_random_cells(self, spec_name):
        spec = crill() if spec_name == "crill" else minotaur()
        caps = (
            (None, 85.0, 60.0) if spec.supports_power_cap else (None,)
        )
        rng = rng_for(0xD1FF, "differential", spec.name)
        for cell in range(6):
            cap = caps[cell % len(caps)]
            node = SimulatedNode(spec)
            if cap is not None:
                node.rapl.set_package_cap(cap, node.now_s)
            engine = ExecutionEngine(node)
            region = random_region(rng, cell)
            configs = random_configs(
                rng, spec.total_hw_threads, n=12
            )
            scalar = [
                engine._simulate(region, c) for c in configs
            ]
            batched = batch.BatchEvaluator(engine).evaluate(
                region, configs
            )
            for c, rs, rb in zip(configs, scalar, batched):
                assert_records_bit_identical(
                    rs, rb, f"{spec.name} cap={cap} {c.label()}"
                )

    def test_selected_best_identical_over_full_space(self):
        """Both paths must agree on the argmin over the whole Table-I
        space for every SP region (ties and all)."""
        spec = crill()
        node = SimulatedNode(spec)
        node.rapl.set_package_cap(85.0, node.now_s)
        engine = ExecutionEngine(node)
        space = search_space_for(spec)
        configs = [
            config_from_point(space.decode(idx))
            for idx in space.iter_indices()
        ]
        for region in sp_application("B").regions():
            scalar_times = [
                engine._simulate(region, c).time_s for c in configs
            ]
            batched_times = [
                r.time_s
                for r in batch.BatchEvaluator(engine).evaluate(
                    region, configs
                )
            ]
            assert [bits(t) for t in scalar_times] == [
                bits(t) for t in batched_times
            ]
            assert int(np.argmin(scalar_times)) == int(
                np.argmin(batched_times)
            )


class TestMemoEquivalence:
    def test_memo_hit_equals_memo_miss(self):
        """A record served from the process-wide memo (computed by a
        different engine instance) is bit-identical to one computed
        from scratch by the scalar path on a fresh engine."""
        spec = crill()
        region = random_region(rng_for(0xD1FF, "memo"), 0)
        configs = random_configs(
            rng_for(0xD1FF, "memo-configs"), spec.total_hw_threads, 8
        )

        def fresh_engine():
            node = SimulatedNode(spec)
            node.rapl.set_package_cap(70.0, node.now_s)
            return ExecutionEngine(node)

        producer = fresh_engine()
        producer.prefetch(region, tuple(configs))
        stats = batch.memo_stats()
        assert stats["entries"] > 0

        # one fresh engine per config, so every record is looked up
        # under the caps the producer prefetched at (a single engine's
        # clock would move them) and none comes from a per-engine cache
        hits_before = batch.memo_stats()["hits"]
        memoized = [fresh_engine().execute(region, c) for c in configs]
        assert batch.memo_stats()["hits"] - hits_before == len(configs)

        scratch = [fresh_engine()._simulate(region, c) for c in configs]
        for c, rm, rs in zip(configs, memoized, scratch):
            assert_records_bit_identical(rs, rm, c.label())

    def test_memo_keyed_on_cap(self):
        """Different caps must never share memo entries."""
        spec = crill()
        region = random_region(rng_for(0xD1FF, "memo-cap"), 1)
        config = OMPConfig(
            n_threads=16, schedule=ScheduleKind.DYNAMIC, chunk=4
        )
        records = {}
        for cap in (85.0, 60.0):
            node = SimulatedNode(spec)
            node.rapl.set_package_cap(cap, node.now_s)
            node.rapl.force_update(node.now_s + 10.0)
            node._now_s = node.now_s + 10.0  # let the cap settle
            engine = ExecutionEngine(node)
            engine.prefetch(region, (config,))
            records[cap] = engine.execute(region, config)
        assert records[85.0].time_s != records[60.0].time_s

    def test_memo_eviction_is_bounded(self):
        batch.clear_memo()
        for i in range(batch.MEMO_LIMIT + 5):
            batch.memo_put(("k", i), None)  # type: ignore[arg-type]
        assert batch.memo_stats()["entries"] <= batch.MEMO_LIMIT


class TestEndToEndByteIdentity:
    @pytest.mark.parametrize(
        "strategy", ["default", "arcs-online", "arcs-offline"]
    )
    def test_strategy_run_result_json_identical(
        self, strategy, monkeypatch
    ):
        """A run whose prefetch hints are honoured is byte-identical to
        one where every record comes from the scalar path."""
        app = synthetic_application(timesteps=8)
        setup = ExperimentSetup(
            spec=crill(), cap_w=85.0, repeats=1, seed=0
        )

        def run() -> str:
            batch.clear_memo()
            result = run_strategy(strategy, app, setup)
            return json.dumps(
                result_to_json(result), sort_keys=True
            )

        computed = []
        real_prefetch = ExecutionEngine.prefetch

        def counting_prefetch(self, region, configs):
            computed.append(real_prefetch(self, region, configs))
            return computed[-1]

        monkeypatch.setattr(ExecutionEngine, "prefetch", counting_prefetch)
        batched = run()
        # the tuning strategies must really have batch-computed records
        assert (sum(computed) > 0) == (strategy != "default")
        monkeypatch.setattr(
            ExecutionEngine, "prefetch", lambda self, region, configs: 0
        )
        assert run() == batched
