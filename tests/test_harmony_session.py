"""Tests for the tuning-session ask/tell wrapper."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.harmony.engine import make_strategy
from repro.harmony.exhaustive import ExhaustiveSearch
from repro.harmony.neldermead import NelderMeadSearch
from repro.harmony.session import MeasurementGuard, TuningSession
from repro.harmony.space import Parameter, SearchSpace


def space2():
    return SearchSpace(
        parameters=(
            Parameter("a", (0, 1, 2)),
            Parameter("b", (0, 1)),
        )
    )


def objective(point):
    return 1.0 + point["a"] + 2 * point["b"]


def suggested(session):
    """The session's next suggestion, decoded."""
    return session.space.decode(session.suggest())


class TestSessionProtocol:
    def test_suggest_then_report_loop(self):
        space = space2()
        session = TuningSession(space, ExhaustiveSearch(space))
        while not session.converged:
            point = suggested(session)
            session.report(objective(point))
        assert session.best_point() == {"a": 0, "b": 0}
        assert session.best_value() == 1.0

    def test_repeated_suggest_returns_same_outstanding(self):
        space = space2()
        session = TuningSession(space, ExhaustiveSearch(space))
        p1 = session.suggest()
        p2 = session.suggest()
        assert p1 == p2

    def test_suggest_after_convergence_returns_best(self):
        space = space2()
        session = TuningSession(space, ExhaustiveSearch(space))
        while not session.converged:
            session.report(objective(suggested(session)))
        for _ in range(3):
            assert suggested(session) == {"a": 0, "b": 0}

    def test_reports_after_convergence_ignored_by_strategy(self):
        space = space2()
        session = TuningSession(space, ExhaustiveSearch(space))
        while not session.converged:
            session.report(objective(suggested(session)))
        best = session.best_value()
        session.suggest()
        session.report(0.0001)       # post-convergence measurement
        assert session.best_value() == best

    def test_invalid_objective_rejected(self):
        space = space2()
        session = TuningSession(space, ExhaustiveSearch(space))
        session.suggest()
        with pytest.raises(ValueError):
            session.report(-1.0)
        with pytest.raises(ValueError):
            session.report(float("nan"))

    def test_stats_track_convergence(self):
        space = space2()
        session = TuningSession(space, ExhaustiveSearch(space))
        while not session.converged:
            session.report(objective(suggested(session)))
        assert session.stats.converged_at_report == space.size
        assert session.stats.reports == space.size

    def test_search_values_recorded(self):
        space = space2()
        session = TuningSession(space, ExhaustiveSearch(space))
        while not session.converged:
            session.report(objective(suggested(session)))
        assert len(session.search_values) == space.size

    def test_mismatched_space_rejected(self):
        space = space2()
        other = SearchSpace(parameters=(Parameter("z", (1, 2)),))
        with pytest.raises(ValueError):
            TuningSession(other, ExhaustiveSearch(space))

    def test_works_with_simplex_strategy(self):
        space = space2()
        session = TuningSession(
            space, NelderMeadSearch(space, max_evals=20)
        )
        while not session.converged:
            session.report(objective(suggested(session)))
        assert session.best_point() is not None


#: measurements a guard must reject: NaN, infinities, negatives and a
#: timer spike far beyond any configuration's spread
_BAD = (float("nan"), float("inf"), -1.0, 1e12)

#: one execution's measurement: ("ok", scale) reports the objective of
#: the suggested point times ``scale``; ("bad", value) reports ``value``
_MEASUREMENTS = st.one_of(
    st.tuples(st.just("ok"), st.floats(0.5, 2.0)),
    st.tuples(st.just("bad"), st.sampled_from(_BAD)),
)


class TestMonotoneBest:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        plan=st.lists(_MEASUREMENTS, min_size=1, max_size=80),
    )
    @example(
        seed=0,
        plan=[("ok", 1.0), ("bad", 1e12), ("bad", -1.0)] * 4
        + [("ok", 1.0)] * 20,
    )
    def test_best_is_min_of_accepted_values(self, seed, plan):
        """Through rejections and strategy restarts, the session's best
        is the minimum of the values it accepted after every accepted
        report: the best only ever improves."""
        space = SearchSpace(
            parameters=(
                Parameter("a", (0, 1, 2, 3)),
                Parameter("b", (0, 1, 2)),
            )
        )
        session = TuningSession(
            space,
            make_strategy("nelder-mead", space, max_evals=30, seed=seed),
            guard=MeasurementGuard(warmup=1, max_rejects=1),
            strategy_factory=lambda: make_strategy(
                "nelder-mead", space, max_evals=30, seed=seed + 1
            ),
        )
        for kind, x in plan:
            if session.converged or session.failed:
                break
            point = suggested(session)
            value = objective(point) * x if kind == "ok" else x
            if session.report(value):
                assert session.best_value() == min(session.search_values)
