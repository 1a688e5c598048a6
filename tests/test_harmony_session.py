"""Tests for the tuning-session ask/tell wrapper."""

from __future__ import annotations

import pytest

from repro.harmony.exhaustive import ExhaustiveSearch
from repro.harmony.neldermead import NelderMeadSearch
from repro.harmony.session import TuningSession
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
