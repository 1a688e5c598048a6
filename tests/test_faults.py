"""Unit tests for the fault-injection subsystem and its hardening.

Covers the :mod:`repro.faults` plan/injector layer, the per-site
failure semantics in the machine and APEX layers, the Harmony
measurement guard, the history key error, and the sweep journal.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.core.history import HistoryKeyMissing, HistoryStore
from repro.experiments.cache import result_to_json
from repro.experiments.journal import JOURNAL_SCHEMA_VERSION, SweepJournal
from repro.faults import (
    FAULT_SITES,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    load_fault_plan,
    make_injector,
    save_fault_plan,
)
from repro.harmony.engine import make_strategy
from repro.harmony.session import (
    InvalidMeasurementError,
    MeasurementGuard,
    TuningSession,
)
from repro.harmony.space import Parameter, SearchSpace
from repro.machine.node import SimulatedNode
from repro.machine.rapl import CapWriteRejectedError, RaplReadError
from repro.machine.spec import crill
from repro.openmp.runtime import OpenMPRuntime
from repro.util.jsonlog import encode


def _plan(*specs: FaultSpec, seed: int = 0) -> FaultPlan:
    return FaultPlan(specs=tuple(specs), seed=seed)


# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_json_round_trip(self):
        plan = _plan(
            FaultSpec(site="rapl.read", action="error", probability=0.5),
            FaultSpec(
                site="measure.noise",
                action="spike",
                start=3,
                max_fires=2,
                magnitude=100.0,
            ),
            seed=9,
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_unknown_site_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault site"):
            FaultSpec(site="rapl.bogus", action="error")

    def test_unknown_action_rejected(self):
        with pytest.raises(FaultPlanError, match="action"):
            FaultSpec(site="rapl.read", action="explode")

    def test_bad_probability_rejected(self):
        with pytest.raises(FaultPlanError, match="probability"):
            FaultSpec(site="rapl.read", action="error", probability=1.5)

    def test_unknown_json_fields_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault-plan"):
            FaultPlan.from_json({"seed": 0, "specs": []})
        with pytest.raises(FaultPlanError, match="unknown fault-spec"):
            FaultPlan.from_json(
                {"faults": [{"site": "rapl.read", "action": "error",
                             "when": "always"}]}
            )

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert _plan(FaultSpec(site="rapl.read", action="error"))

    def test_file_round_trip(self, tmp_path):
        plan = _plan(
            FaultSpec(site="sweep.worker", action="crash"), seed=3
        )
        path = tmp_path / "plan.json"
        save_fault_plan(plan, path)
        assert load_fault_plan(path) == plan

    def test_load_missing_file_names_path(self, tmp_path):
        with pytest.raises(FaultPlanError, match="nope.json"):
            load_fault_plan(tmp_path / "nope.json")

    def test_load_bad_json_names_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(FaultPlanError, match="broken.json"):
            load_fault_plan(path)

    def test_example_plan_file_is_valid(self):
        from pathlib import Path

        example = (
            Path(__file__).resolve().parents[1]
            / "examples"
            / "faultplan.json"
        )
        plan = load_fault_plan(example)
        assert plan.specs
        for spec in plan.specs:
            assert spec.action in FAULT_SITES[spec.site]


# ---------------------------------------------------------------------------
class TestFaultInjector:
    def test_always_fires_when_probability_one(self):
        inj = FaultInjector(
            plan=_plan(FaultSpec(site="rapl.read", action="error"))
        )
        assert inj.draw("rapl.read") is not None
        assert inj.draw("rapl.cap_write") is None

    def test_deterministic_across_instances(self):
        plan = _plan(
            FaultSpec(site="rapl.read", action="error", probability=0.3),
            seed=11,
        )
        a = [FaultInjector(plan=plan).draw("rapl.read") is not None
             for _ in range(1)]
        draws_a = [
            inj.draw("rapl.read") is not None
            for inj in [FaultInjector(plan=plan)]
            for _ in range(50)
        ]
        inj_b = FaultInjector(plan=plan)
        draws_b = [
            inj_b.draw("rapl.read") is not None for _ in range(50)
        ]
        assert draws_a == draws_b
        assert any(draws_b) and not all(draws_b)

    def test_salt_changes_the_stream(self):
        plan = _plan(
            FaultSpec(site="rapl.read", action="error", probability=0.4),
            seed=5,
        )
        a = FaultInjector(plan=plan, salt=0)
        b = FaultInjector(plan=plan, salt=1)
        draws_a = [a.draw("rapl.read") is not None for _ in range(64)]
        draws_b = [b.draw("rapl.read") is not None for _ in range(64)]
        assert draws_a != draws_b

    def test_start_window(self):
        inj = FaultInjector(
            plan=_plan(
                FaultSpec(site="rapl.read", action="error", start=3)
            )
        )
        fired = [inj.draw("rapl.read") is not None for _ in range(6)]
        assert fired == [False, False, False, True, True, True]

    def test_max_fires(self):
        inj = FaultInjector(
            plan=_plan(
                FaultSpec(site="rapl.read", action="error", max_fires=2)
            )
        )
        fired = [inj.draw("rapl.read") is not None for _ in range(5)]
        assert fired == [True, True, False, False, False]
        assert inj.fired("rapl.read") == 2
        assert inj.occurrences("rapl.read") == 5

    def test_events_record_site_action_occurrence(self):
        inj = FaultInjector(
            plan=_plan(
                FaultSpec(site="rapl.read", action="stale", start=1)
            )
        )
        inj.draw("rapl.read")
        inj.draw("rapl.read")
        assert [(e.site, e.action, e.occurrence) for e in inj.events] == [
            ("rapl.read", "stale", 1)
        ]

    def test_make_injector_none_for_empty(self):
        assert make_injector(None) is None
        assert make_injector(FaultPlan()) is None
        assert make_injector(
            _plan(FaultSpec(site="rapl.read", action="error"))
        ) is not None


# ---------------------------------------------------------------------------
class TestRaplFaults:
    def _node(self, *specs: FaultSpec) -> SimulatedNode:
        return SimulatedNode(
            crill(), faults=make_injector(_plan(*specs))
        )

    def test_read_error_raises(self):
        node = self._node(FaultSpec(site="rapl.read", action="error"))
        with pytest.raises(RaplReadError, match="socket 0"):
            node.rapl.read_package_energy_j(0)

    def test_stale_read_repeats_last_value(self):
        node = self._node(
            FaultSpec(site="rapl.read", action="stale", start=2)
        )
        node.msr.bump_energy_counter(0, 1 << 16)  # 1 J
        first = node.rapl.read_package_energy_j(0)
        node.msr.bump_energy_counter(0, 1 << 16)  # +1 J
        fresh = node.rapl.read_package_energy_j(0)
        stale = node.rapl.read_package_energy_j(0)  # occurrence 2: stale
        assert fresh > first
        assert stale == fresh

    def test_wraparound_read_is_one_span_behind(self):
        node = self._node(
            FaultSpec(site="rapl.read", action="wraparound", start=1)
        )
        node.msr.bump_energy_counter(0, 5 << 16)
        clean = node.rapl.read_package_energy_j(0)
        wrapped = node.rapl.read_package_energy_j(0)
        span = node.rapl.counter_span_j(0)
        assert wrapped == pytest.approx(clean - span)

    def test_cap_write_rejected(self):
        node = self._node(
            FaultSpec(site="rapl.cap_write", action="reject")
        )
        with pytest.raises(CapWriteRejectedError, match="85"):
            node.set_power_cap(85.0)

    def test_transient_cap_write_rejection_then_success(self):
        node = self._node(
            FaultSpec(site="rapl.cap_write", action="reject", max_fires=1)
        )
        with pytest.raises(CapWriteRejectedError):
            node.set_power_cap(85.0)
        node.set_power_cap(85.0)
        node.settle_after_cap()
        assert node.effective_cap_w(0) == 85.0

    def test_energy_delta_unwraps(self):
        node = SimulatedNode(crill())
        span = node.rapl.counter_span_j(0)
        assert node.energy_delta_j(10.0, 30.0) == pytest.approx(20.0)
        assert node.energy_delta_j(span - 5.0, 3.0) == pytest.approx(8.0)

    def test_faults_survive_reset(self):
        node = self._node(FaultSpec(site="rapl.read", action="error"))
        node.reset()
        with pytest.raises(RaplReadError):
            node.rapl.read_package_energy_j(0)


# ---------------------------------------------------------------------------
class TestMeasurementGuard:
    def test_rejects_nonfinite_and_negative(self):
        guard = MeasurementGuard()
        assert not guard.is_acceptable(float("nan"), [])
        assert not guard.is_acceptable(float("inf"), [])
        assert not guard.is_acceptable(-1.0, [])

    def test_warmup_accepts_any_finite_value(self):
        guard = MeasurementGuard(warmup=3)
        assert guard.is_acceptable(1e12, [0.1, 0.2])

    def test_outlier_rejected_after_warmup(self):
        guard = MeasurementGuard(outlier_factor=50.0, warmup=3)
        accepted = [0.1, 0.12, 0.11]
        assert guard.is_acceptable(4.9, accepted)      # 49x max: ok
        assert not guard.is_acceptable(7.0, accepted)  # ~58x max: out

    def test_all_zero_history_accepts(self):
        guard = MeasurementGuard(warmup=1)
        assert guard.is_acceptable(123.0, [0.0])

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            MeasurementGuard(outlier_factor=1.0)
        with pytest.raises(ValueError):
            MeasurementGuard(warmup=0)
        with pytest.raises(ValueError):
            MeasurementGuard(max_rejects=0)
        with pytest.raises(ValueError):
            MeasurementGuard(max_restarts=-1)


def _space() -> SearchSpace:
    return SearchSpace(
        parameters=(Parameter(name="n_threads", values=(1, 2, 4, 8)),)
    )


def _session(guard=None, factory=False) -> TuningSession:
    space = _space()
    strategy = make_strategy("exhaustive", space)
    return TuningSession(
        space,
        strategy,
        guard=guard,
        strategy_factory=(
            (lambda: make_strategy("exhaustive", space))
            if factory
            else None
        ),
    )


class TestSessionGuard:
    def test_invalid_without_guard_still_raises(self):
        session = _session()
        session.suggest()
        with pytest.raises(InvalidMeasurementError):
            session.report(float("inf"))
        # and InvalidMeasurementError is a ValueError for old callers
        assert issubclass(InvalidMeasurementError, ValueError)

    def test_rejected_value_keeps_candidate_outstanding(self):
        session = _session(guard=MeasurementGuard(warmup=1))
        first = session.suggest()
        session.report(0.1)
        second = session.suggest()
        accepted = session.report(float("nan"))
        assert not accepted
        assert session.stats.rejected == 1
        # re-measure: same candidate comes back
        assert session.suggest() == second

    def test_divergence_restarts_then_fails(self):
        guard = MeasurementGuard(warmup=1, max_rejects=2, max_restarts=1)
        session = _session(guard=guard, factory=True)
        session.suggest()
        session.report(0.1)

        def reject_batch():
            rejected = 0
            while True:
                session.suggest()
                if session.failed:
                    return rejected
                if not session.report(float("nan")):
                    rejected += 1
                if session.stats.restarts or session.failed:
                    return rejected

        reject_batch()  # 3 rejections -> first restart
        assert session.stats.restarts == 1
        assert not session.failed
        while not session.failed:
            session.suggest()
            session.report(float("nan"))
        assert "diverged" in session.failure_reason
        # a failed session with history still serves its best point
        assert session.space.decode(session.suggest()) == {"n_threads": 1}

    def test_failed_session_without_best_raises(self):
        guard = MeasurementGuard(warmup=1, max_rejects=1, max_restarts=0)
        session = _session(guard=guard)
        session.suggest()
        session.report(float("nan"))
        session.suggest()
        session.report(float("nan"))
        assert session.failed
        with pytest.raises(RuntimeError, match="without a trusted"):
            session.suggest()


# ---------------------------------------------------------------------------
class TestOmptFaults:
    def _bridge_counts(self, *specs: FaultSpec):
        from repro.apex.instrument import ApexOmptBridge
        from repro.workloads.synthetic import synthetic_application
        from repro.workloads.base import run_application

        node = SimulatedNode(
            crill(), faults=make_injector(_plan(*specs))
        )
        runtime = OpenMPRuntime(node, noise_sigma=0.0)
        bridge = ApexOmptBridge(runtime)
        bridge.attach()
        app = synthetic_application(timesteps=2, include_tiny=False)
        result = run_application(app, runtime)
        bridge.shutdown()
        return bridge, result

    def test_timer_dropouts_do_not_crash(self):
        bridge, result = self._bridge_counts(
            FaultSpec(
                site="ompt.timer_stop", action="drop", probability=0.5
            )
        )
        assert bridge.timer_dropouts > 0
        assert bridge.timer_repairs > 0   # stale timers discarded
        assert math.isfinite(result.time_s)

    def test_lost_start_is_repaired(self):
        bridge, result = self._bridge_counts(
            FaultSpec(
                site="ompt.timer_start", action="drop", probability=0.5
            )
        )
        assert bridge.timer_dropouts > 0
        assert bridge.timer_repairs > 0   # stops with no matching start
        assert math.isfinite(result.time_s)

    def test_noise_spike_counted(self):
        bridge, result = self._bridge_counts(
            FaultSpec(
                site="measure.noise", action="spike", max_fires=3
            )
        )
        assert bridge.noise_spikes == 3
        assert math.isfinite(result.time_s)


# ---------------------------------------------------------------------------
class TestHistoryKeyMissing:
    def test_carries_key_path_and_known_keys(self, tmp_path):
        path = tmp_path / "history.json"
        store = HistoryStore(path)
        store.save("a|crill|85W|B", {})
        with pytest.raises(HistoryKeyMissing) as err:
            store.load("b|crill|85W|B")
        exc = err.value
        assert exc.key == "b|crill|85W|B"
        assert exc.path == path
        assert exc.known == ("a|crill|85W|B",)
        assert "no saved history" in str(exc)
        assert str(path) in str(exc)
        assert isinstance(exc, KeyError)  # old except-clauses still work

    def test_in_memory_store_message(self):
        with pytest.raises(HistoryKeyMissing, match="in-memory"):
            HistoryStore().load("missing")


# ---------------------------------------------------------------------------
class TestSweepJournal:
    def _result(self):
        from repro.experiments.runner import (
            ExperimentSetup,
            run_strategy,
        )
        from repro.workloads.synthetic import synthetic_application

        app = synthetic_application(timesteps=1, include_tiny=False)
        setup = ExperimentSetup(spec=crill(), cap_w=85.0, repeats=1)
        return run_strategy("default", app, setup)

    def test_append_load_round_trip(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        result = self._result()
        journal.append("d1", "task-1", result)
        loaded = journal.load()
        assert set(loaded) == {"d1"}
        assert result_to_json(loaded["d1"]) == result_to_json(result)

    def test_missing_file_is_empty(self, tmp_path):
        assert SweepJournal(tmp_path / "absent.jsonl").load() == {}

    def test_torn_tail_tolerated_and_truncated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = SweepJournal(path)
        result = self._result()
        journal.append("d1", "t1", result)
        journal.append("d2", "t2", result)
        intact = path.read_text().splitlines()[0] + "\n"
        path.write_text(intact + '{"schema":1,"digest":"d2","re')
        loaded = journal.load()
        assert set(loaded) == {"d1"}
        assert path.read_text() == intact  # torn tail truncated away
        journal.append("d3", "t3", result)
        assert set(journal.load()) == {"d1", "d3"}

    def test_schema_mismatch_lines_ignored(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = SweepJournal(path)
        result = self._result()
        path.write_bytes(
            encode(
                {"digest": "x", "task": "t0",
                 "result": result_to_json(result)},
                JOURNAL_SCHEMA_VERSION + 1,
            )
        )
        journal.append("d1", "t1", result)
        assert set(journal.load()) == {"d1"}

    def test_clear(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.append("d1", "t1", self._result())
        journal.clear()
        assert journal.load() == {}
