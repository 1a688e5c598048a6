"""Tests for the experiment runner (strategy orchestration)."""

from __future__ import annotations

import pytest

from repro.core.history import HistoryStore, experiment_key
from repro.experiments.runner import (
    CRILL_POWER_LEVELS,
    ExperimentSetup,
    fresh_runtime,
    run_arcs_offline,
    run_arcs_online,
    run_default,
    run_strategy,
)
from repro.machine.spec import crill, minotaur
from repro.workloads.synthetic import synthetic_application


@pytest.fixture(scope="module")
def app():
    return synthetic_application(timesteps=8, include_tiny=False)


@pytest.fixture
def setup():
    return ExperimentSetup(spec=crill(), repeats=2, noise_sigma=0.005)


class TestSetup:
    def test_power_levels_match_paper(self):
        assert CRILL_POWER_LEVELS == (55.0, 70.0, 85.0, 100.0, 115.0)

    def test_summary_modes(self):
        assert ExperimentSetup(spec=crill()).summary_mode == "mean"
        assert ExperimentSetup(spec=minotaur()).summary_mode == "min"

    def test_fresh_runtime_applies_cap(self):
        setup = ExperimentSetup(spec=crill(), cap_w=70.0)
        runtime = fresh_runtime(setup)
        assert runtime.node.effective_cap_w() == 70.0

    def test_cap_on_minotaur_rejected_at_construction(self):
        """A cap on a machine without capping privilege used to be
        silently ignored, mis-reporting an uncapped run as capped."""
        with pytest.raises(ValueError, match="power-capping"):
            ExperimentSetup(spec=minotaur(), cap_w=70.0)

    def test_uncapped_minotaur_still_fine(self):
        setup = ExperimentSetup(spec=minotaur())
        runtime = fresh_runtime(setup)
        assert runtime.node.spec.name == "minotaur"

    def test_invalid_repeats_and_cap_values_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            ExperimentSetup(spec=crill(), repeats=0)
        with pytest.raises(ValueError, match="cap_w"):
            ExperimentSetup(spec=crill(), cap_w=-5.0)

    def test_fresh_runtime_distinct_seeds(self):
        setup = ExperimentSetup(spec=crill())
        r0 = fresh_runtime(setup, run_index=0)
        r1 = fresh_runtime(setup, run_index=1)
        assert r0.seed != r1.seed


class TestRunDefault:
    def test_runs_and_summarizes(self, app, setup):
        result = run_default(app, setup)
        assert result.strategy == "default"
        assert len(result.runs) == 2
        assert result.time_s > 0
        assert result.energy_j is not None

    def test_mean_of_repeats(self, app, setup):
        result = run_default(app, setup)
        times = [r.time_s for r in result.runs]
        assert result.time_s == pytest.approx(sum(times) / len(times))

    def test_min_on_minotaur(self, app):
        setup = ExperimentSetup(
            spec=minotaur(), repeats=2, noise_sigma=0.01
        )
        result = run_default(app, setup)
        assert result.time_s == min(r.time_s for r in result.runs)
        assert result.energy_j is None


class TestRunOnline:
    def test_produces_configs_and_overhead(self, app, setup):
        result = run_arcs_online(app, setup)
        assert result.strategy == "arcs-online"
        assert result.chosen_configs
        assert result.overhead is not None
        assert result.overhead.search_s >= 0


class TestRunOffline:
    def test_tunes_then_replays(self, app, setup):
        history = HistoryStore()
        result = run_arcs_offline(app, setup, history=history)
        assert result.strategy == "arcs-offline"
        assert result.tuning_runs >= 1
        key = experiment_key(
            app.name, "crill", setup.cap_w, app.workload
        )
        assert history.has(key)

    def test_reuses_existing_history(self, app, setup):
        history = HistoryStore()
        first = run_arcs_offline(app, setup, history=history)
        second = run_arcs_offline(app, setup, history=history)
        assert first.tuning_runs >= 1
        assert second.tuning_runs == 0   # "saved values can be used"
        assert second.chosen_configs == first.chosen_configs

    def test_measured_run_has_no_search_overhead(self, app, setup):
        result = run_arcs_offline(app, setup)
        assert result.overhead is not None
        assert result.overhead.search_s == 0.0


class TestRunStrategy:
    @pytest.mark.parametrize(
        "name", ["default", "arcs-online", "arcs-offline"]
    )
    def test_dispatch(self, name, app, setup):
        result = run_strategy(name, app, setup)
        assert result.strategy == name

    def test_unknown_strategy(self, app, setup):
        with pytest.raises(ValueError):
            run_strategy("magic", app, setup)

    @pytest.mark.parametrize(
        "name", ["ARCS-Offline", "Default", "offline", "online"]
    )
    def test_one_spelling_per_strategy(self, name, app, setup):
        # the cache and journal digest the raw name, so a second
        # spelling of one strategy would key one measurement twice
        with pytest.raises(ValueError, match="unknown strategy"):
            run_strategy(name, app, setup)
