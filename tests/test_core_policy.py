"""Tests for the ARCS policy - the paper's Section III-B behaviour."""

from __future__ import annotations

import pytest

from repro.core.controller import ARCS
from repro.core.history import HistoryStore
from repro.core.policy import ArcsPolicy, MissingRegionConfigError
from repro.harmony.space import Parameter, SearchSpace
from repro.openmp.region import ImbalanceSpec
from repro.openmp.types import OMPConfig, ScheduleKind
from tests.test_openmp_engine import make_region


def tiny_space():
    """A small space so exhaustive search converges quickly in tests."""
    return SearchSpace(
        parameters=(
            Parameter("n_threads", (4, 8, 16, 32)),
            Parameter(
                "schedule",
                (ScheduleKind.STATIC, ScheduleKind.DYNAMIC),
            ),
            Parameter("chunk", (None, 8)),
        )
    )


def attach_arcs(runtime, **kw):
    kw.setdefault("space", tiny_space())
    arcs = ARCS(runtime, **kw)
    arcs.attach()
    return arcs


class TestSessionLifecycle:
    def test_session_created_on_first_encounter(self, runtime):
        arcs = attach_arcs(runtime, strategy="exhaustive")
        runtime.parallel_for(make_region(name="r1"))
        assert "r1" in arcs.policy.sessions()

    def test_one_session_per_region(self, runtime):
        arcs = attach_arcs(runtime, strategy="exhaustive")
        for name in ("a", "b", "a"):
            runtime.parallel_for(make_region(name=name))
        assert set(arcs.policy.sessions()) == {"a", "b"}

    def test_candidate_applied_to_execution(self, runtime):
        arcs = attach_arcs(runtime, strategy="exhaustive")
        rec = runtime.parallel_for(make_region(name="r"))
        suggested = arcs.policy.regions["r"].applied
        assert rec.config == suggested

    def test_measurements_reported_to_session(self, runtime):
        arcs = attach_arcs(runtime, strategy="exhaustive")
        for _ in range(5):
            runtime.parallel_for(make_region(name="r"))
        session = arcs.policy.sessions()["r"]
        assert session.stats.reports == 5

    def test_exhaustive_converges_and_locks_best(self, runtime):
        arcs = attach_arcs(runtime, strategy="exhaustive")
        region = make_region(name="r")
        space = arcs.policy.space
        for _ in range(space.size + 5):
            runtime.parallel_for(region)
        assert arcs.converged
        best = arcs.chosen_configs()["r"]
        # after convergence every execution uses the best config
        rec = runtime.parallel_for(region)
        assert rec.config == best

    def test_best_config_is_space_optimum(self, runtime):
        """With a noiseless runtime, the exhaustively chosen config is
        the true argmin over the space."""
        arcs = attach_arcs(runtime, strategy="exhaustive")
        region = make_region(
            name="skewed", iterations=512,
        )
        space = arcs.policy.space
        for _ in range(space.size + 1):
            runtime.parallel_for(region)
        best = arcs.chosen_configs()["skewed"]
        from repro.core.config import config_from_point
        from repro.openmp.engine import ExecutionEngine
        from repro.machine.node import SimulatedNode
        from repro.machine.spec import crill

        engine = ExecutionEngine(SimulatedNode(crill()))
        times = {}
        for indices in space.iter_indices():
            cfg = config_from_point(space.decode(indices))
            times[cfg] = engine.execute(region, cfg).time_s
        # the chosen config's deterministic time is (near) minimal; it
        # was measured with APEX instrumentation attached, so allow the
        # tiny instrumentation delta
        assert times[best] <= min(times.values()) * 1.02


class TestConfigChangeEconomy:
    def test_no_redundant_runtime_calls(self, runtime):
        """Applying an unchanged configuration must not pay the
        configuration-change overhead again."""
        history = HistoryStore()
        cfg = OMPConfig(8, ScheduleKind.DYNAMIC, 8)
        history.save("k", {"r": cfg})
        arcs = attach_arcs(
            runtime, history=history, history_key="k", replay=True
        )
        region = make_region(name="r")
        runtime.parallel_for(region)
        calls_after_first = runtime.config_change_calls
        for _ in range(5):
            runtime.parallel_for(region)
        assert runtime.config_change_calls == calls_after_first
        assert arcs.overhead_report().config_change_calls == (
            calls_after_first
        )


class TestReplayMode:
    def test_replays_saved_configs(self, runtime):
        history = HistoryStore()
        cfg = OMPConfig(4, ScheduleKind.DYNAMIC, 8)
        history.save("k", {"r": cfg})
        attach_arcs(
            runtime, history=history, history_key="k", replay=True
        )
        rec = runtime.parallel_for(make_region(name="r"))
        assert rec.config == cfg

    def test_unknown_region_raises_by_default(self, runtime):
        """Replay silently executing an unknown region with whatever
        configuration is current mis-measures the run; strict replay
        (the default) refuses instead."""
        history = HistoryStore()
        history.save("k", {"other": OMPConfig(4)})
        attach_arcs(
            runtime, history=history, history_key="k", replay=True
        )
        with pytest.raises(MissingRegionConfigError) as err:
            runtime.parallel_for(make_region(name="r"))
        assert "'r'" in str(err.value)
        assert "other" in str(err.value)

    def test_replay_requires_history(self, runtime):
        with pytest.raises(ValueError):
            ARCS(runtime, replay=True)

    def test_replay_never_searches(self, runtime):
        history = HistoryStore()
        history.save("k", {"r": OMPConfig(4)})
        arcs = attach_arcs(
            runtime, history=history, history_key="k", replay=True
        )
        for _ in range(3):
            runtime.parallel_for(make_region(name="r"))
        assert arcs.policy.sessions() == {}
        assert arcs.converged


class TestSelectiveMode:
    """The paper's future-work extension: skip tuning tiny regions."""

    def test_tiny_region_skipped(self, runtime):
        arcs = attach_arcs(
            runtime,
            strategy="exhaustive",
            selective_threshold_s=10.0,   # everything is "tiny"
        )
        for _ in range(3):
            runtime.parallel_for(make_region(name="r"))
        assert arcs.policy.regions["r"].skipped
        assert "r" not in arcs.policy.sessions()

    def test_large_region_still_tuned(self, runtime):
        arcs = attach_arcs(
            runtime,
            strategy="exhaustive",
            selective_threshold_s=1e-9,   # nothing is "tiny"
        )
        for _ in range(3):
            runtime.parallel_for(make_region(name="r"))
        assert not arcs.policy.regions["r"].skipped
        assert "r" in arcs.policy.sessions()


class TestHistorySaving:
    def test_finalize_saves_best(self, runtime):
        history = HistoryStore()
        arcs = attach_arcs(
            runtime,
            strategy="exhaustive",
            history=history,
            history_key="k",
        )
        region = make_region(name="r")
        for _ in range(arcs.policy.space.size + 1):
            runtime.parallel_for(region)
        arcs.finalize()
        assert history.has("k")
        assert "r" in history.load("k")

    def test_overhead_report_structure(self, runtime):
        arcs = attach_arcs(runtime, strategy="nelder-mead", max_evals=10)
        for _ in range(12):
            runtime.parallel_for(make_region(name="r"))
        report = arcs.overhead_report()
        assert report.config_change_s >= 0
        assert report.instrumentation_s > 0
        assert report.search_s >= 0
        assert report.total_s == pytest.approx(
            report.config_change_s
            + report.instrumentation_s
            + report.search_s
        )


class _StubSession:
    """Minimal stand-in exposing only what ``_warm_start`` consults."""

    def __init__(self, point):
        self._point = point

    def best_point(self):
        return self._point


class TestCapAwareWarmStart:
    """The cap-schedule story: a new power level's search starts from
    the nearest already-tuned level's best configuration."""

    def _policy(self, runtime, cap_w=None):
        from repro.core.policy import ArcsPolicy, RegionTuningState

        if cap_w is not None:
            runtime.node.set_power_cap(cap_w)
            runtime.node.settle_after_cap()
        policy = ArcsPolicy(
            runtime, space=tiny_space(), cap_aware=True
        )
        return policy, RegionTuningState

    def test_no_donor_without_tuned_levels(self, runtime):
        policy, _ = self._policy(runtime, cap_w=70.0)
        assert policy._warm_start("r") is None

    def test_nearest_level_wins(self, runtime):
        policy, State = self._policy(runtime, cap_w=70.0)
        near = {
            "n_threads": 8,
            "schedule": ScheduleKind.STATIC,
            "chunk": 8,
        }
        far = {
            "n_threads": 32,
            "schedule": ScheduleKind.DYNAMIC,
            "chunk": None,
        }
        policy.regions["r@85W"] = State(session=_StubSession(near))
        policy.regions["r@tdp"] = State(session=_StubSession(far))
        assert policy._warm_start("r") == policy.space.encode(near)

    def test_tie_prefers_lower_cap(self, runtime):
        policy, State = self._policy(runtime, cap_w=70.0)
        low = {
            "n_threads": 4,
            "schedule": ScheduleKind.STATIC,
            "chunk": None,
        }
        high = {
            "n_threads": 16,
            "schedule": ScheduleKind.DYNAMIC,
            "chunk": 8,
        }
        policy.regions["r@55W"] = State(session=_StubSession(low))
        policy.regions["r@85W"] = State(session=_StubSession(high))
        assert policy._warm_start("r") == policy.space.encode(low)

    def test_other_regions_never_donate(self, runtime):
        policy, State = self._policy(runtime, cap_w=70.0)
        point = {
            "n_threads": 8,
            "schedule": ScheduleKind.STATIC,
            "chunk": 8,
        }
        policy.regions["other@85W"] = State(
            session=_StubSession(point)
        )
        assert policy._warm_start("r") is None

    def test_cap_change_seeds_session_from_donor(self, runtime):
        """End to end: converge at TDP, drop the cap, and the new
        level's session must start from the TDP best."""
        space = tiny_space()
        arcs = attach_arcs(
            runtime, strategy="nelder-mead", cap_aware=True
        )
        # imbalanced, so the TDP best (dynamic) is not the default start
        region = make_region(
            name="r", imbalance=ImbalanceSpec(kind="linear", amplitude=2.0)
        )
        for _ in range(space.size + 1):
            runtime.parallel_for(region)
        donor = arcs.policy.sessions()["r@tdp"].best_point()
        assert space.encode(donor) != arcs.policy._start_point
        runtime.node.set_power_cap(55.0)
        runtime.node.settle_after_cap()
        runtime.parallel_for(region)
        state = arcs.policy.regions["r@55W"]
        assert state.session.strategy._start == space.encode(donor)


class TestPinRegion:
    def test_pinned_region_runs_default_and_degrades(self, runtime):
        arcs = attach_arcs(runtime, strategy="exhaustive")
        region = make_region(name="r")
        runtime.parallel_for(region)
        arcs.policy.pin_region("r", "kept crashing")
        record = runtime.parallel_for(region)
        state = arcs.policy.regions["r"]
        assert state.degraded == "kept crashing"
        assert record.config == arcs.policy._default_config()
        assert "r" in arcs.policy.degradations()

    def test_pin_applies_across_power_levels(self, runtime):
        arcs = attach_arcs(
            runtime, strategy="exhaustive", cap_aware=True
        )
        region = make_region(name="r")
        runtime.parallel_for(region)
        arcs.policy.pin_region("r", "kept crashing")
        runtime.node.set_power_cap(55.0)
        runtime.node.settle_after_cap()
        record = runtime.parallel_for(region)
        # the never-before-seen 55W level is pinned too: no session
        assert arcs.policy.regions["r@55W"].session is None
        assert record.config == arcs.policy._default_config()

    def test_pin_before_first_encounter(self, runtime):
        arcs = attach_arcs(runtime, strategy="exhaustive")
        arcs.policy.pin_region("r", "preemptive")
        record = runtime.parallel_for(make_region(name="r"))
        assert record.config == arcs.policy._default_config()
        assert arcs.policy.regions["r"].session is None
