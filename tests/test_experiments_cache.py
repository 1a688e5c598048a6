"""Tests for the content-addressed memo of sweep cells: digests, the
result codec and the sweep journal as a store."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.capschedule import load_cap_schedule
from repro.experiments.cache import (
    experiment_digest,
    history_path,
    result_from_json,
    result_to_json,
)
from repro.experiments.journal import SweepJournal
from repro.experiments.parallel import (
    ParallelSweepExecutor,
    SweepTask,
    task_run_id,
)
from repro.experiments.runner import (
    ExperimentSetup,
    run_arcs_offline,
    run_default,
)
from repro.experiments.serialize import app_fingerprint
from repro.faults.plan import load_fault_plan
from repro.machine.spec import crill
from repro.service.source import config_key
from repro.util.jsonlog import encode
from repro.workloads.sp import sp_application
from repro.workloads.synthetic import synthetic_application

REPO_SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def app():
    return synthetic_application(timesteps=3, include_tiny=False)


@pytest.fixture(scope="module")
def setup():
    return ExperimentSetup(spec=crill(), cap_w=85.0, repeats=2)


@pytest.fixture(scope="module")
def offline_result(app, setup):
    return run_arcs_offline(app, setup)


@pytest.fixture
def cache(tmp_path):
    return SweepJournal.in_dir(tmp_path / "cache")


class TestDigest:
    def test_deterministic_within_process(self, app, setup):
        assert experiment_digest(app, setup, "default") == (
            experiment_digest(app, setup, "default")
        )

    def test_sensitive_to_every_keyed_field(self, app, setup):
        base = experiment_digest(app, setup, "default")
        variants = [
            experiment_digest(app, setup, "arcs-offline"),
            experiment_digest(
                app,
                ExperimentSetup(spec=crill(), cap_w=70.0, repeats=2),
                "default",
            ),
            experiment_digest(
                app,
                ExperimentSetup(spec=crill(), cap_w=85.0, repeats=3),
                "default",
            ),
            experiment_digest(
                app,
                ExperimentSetup(
                    spec=crill(), cap_w=85.0, repeats=2, seed=1
                ),
                "default",
            ),
            experiment_digest(
                app,
                ExperimentSetup(
                    spec=crill(), cap_w=85.0, repeats=2,
                    noise_sigma=0.02,
                ),
                "default",
            ),
            experiment_digest(
                app,
                ExperimentSetup(
                    spec=crill(), cap_w=85.0, repeats=2,
                    online_max_evals=10,
                ),
                "default",
            ),
        ]
        assert len({base, *variants}) == len(variants) + 1

    def test_app_content_matters_not_just_label(self, setup):
        """Two apps with the same (name, workload) but different
        content must not collide in the cache."""
        a = synthetic_application(timesteps=3, include_tiny=False)
        b = synthetic_application(timesteps=4, include_tiny=False)
        assert a.label == b.label
        assert app_fingerprint(a) != app_fingerprint(b)
        assert experiment_digest(a, setup, "default") != (
            experiment_digest(b, setup, "default")
        )

    def test_stable_across_processes(self, app, setup):
        """The digest must not depend on interpreter state (e.g.
        PYTHONHASHSEED) - workers and later runs must agree."""
        script = (
            "from repro.experiments.cache import experiment_digest\n"
            "from repro.experiments.runner import ExperimentSetup\n"
            "from repro.machine.spec import crill\n"
            "from repro.workloads.synthetic import "
            "synthetic_application\n"
            "app = synthetic_application(timesteps=3, "
            "include_tiny=False)\n"
            "setup = ExperimentSetup(spec=crill(), cap_w=85.0, "
            "repeats=2)\n"
            "print(experiment_digest(app, setup, 'arcs-offline'))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_SRC)
        digests = set()
        for hashseed in ("1", "2"):
            env["PYTHONHASHSEED"] = hashseed
            out = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, check=True,
            )
            digests.add(out.stdout.strip())
        digests.add(experiment_digest(app, setup, "arcs-offline"))
        assert len(digests) == 1

    def test_tuning_digest_shared_across_strategy_knobs(
        self, app, tmp_path
    ):
        """The tuned history is keyed by (app, machine, cap, seed,
        noise) only - repeats and online budget do not re-tune."""
        a = ExperimentSetup(spec=crill(), cap_w=85.0, repeats=2)
        b = ExperimentSetup(
            spec=crill(), cap_w=85.0, repeats=3, online_max_evals=10
        )
        c = ExperimentSetup(spec=crill(), cap_w=70.0, repeats=2)
        assert history_path(tmp_path, app, a) == history_path(
            tmp_path, app, b
        )
        assert history_path(tmp_path, app, a) != history_path(
            tmp_path, app, c
        )

    def test_digests_are_pinned(self, tmp_path):
        """Every key derived from the measurement context keeps the
        value it had when each store listed the context fields itself:
        a changed digest orphans every cache entry, tuned history,
        journal and service entry written before it."""
        examples = REPO_SRC.parent / "examples"
        app = sp_application("B")
        plan = load_fault_plan(examples / "faultplan.json")
        setup = ExperimentSetup(
            spec=crill(), cap_w=85.0, repeats=1, fault_plan=plan,
            cap_schedule=load_cap_schedule(examples / "capschedule.json"),
        )
        assert experiment_digest(app, setup, "arcs-offline") == (
            "d0b57b9aac4e9a5fe9abdf3dd9a4e36060ffb943cad1eed788caeb6c911cc341"
        )
        history = (
            "a26d182cd36001cf4ad72ead922164c4f8fc0714513f778e6c94c40391908ba5"
        )
        assert history_path(tmp_path, app, setup).stem == history
        assert config_key(app, setup).digest == history
        static = replace(setup, cap_schedule=None)
        run_ids = {
            strategy: task_run_id(
                SweepTask(app=app, setup=static, strategy=strategy)
            )
            for strategy in ("default", "arcs-online", "arcs-offline")
        }
        assert run_ids == {
            "default": "acf9661d5fb5",
            "arcs-online": "5927a61a0a43",
            "arcs-offline": "dab8cf63fe95",
        }


class TestSerialization:
    def test_roundtrip_is_lossless(self, offline_result):
        blob = result_to_json(offline_result)
        # through actual JSON text, as the cache stores it
        restored = result_from_json(json.loads(json.dumps(blob)))
        assert restored == offline_result

    def test_roundtrip_preserves_floats_exactly(self, offline_result):
        restored = result_from_json(
            json.loads(json.dumps(result_to_json(offline_result)))
        )
        assert restored.time_s == offline_result.time_s
        assert restored.energy_j == offline_result.energy_j
        for a, b in zip(restored.runs, offline_result.runs):
            assert a.time_s == b.time_s
            assert a.region_miss_rates == b.region_miss_rates

    def test_none_energy_survives(self, app):
        from repro.machine.spec import minotaur

        setup = ExperimentSetup(spec=minotaur(), repeats=1)
        result = run_default(app, setup)
        assert result.energy_j is None
        restored = result_from_json(
            json.loads(json.dumps(result_to_json(result)))
        )
        assert restored == result


def _cell(app, setup, strategy="arcs-offline") -> SweepTask:
    return SweepTask(app=app, setup=setup, strategy=strategy)


def _run(journal, task, result=None):
    """One executor pass of ``task`` over ``journal``, where a miss
    computes ``result`` (``None``: a miss fails the test).  Returns
    the result and whether it was a hit."""

    def compute(_task):
        assert result is not None, f"{_task.label} missed"
        return result

    executor = ParallelSweepExecutor(journal=journal, task_fn=compute)
    (got,) = executor.run([task])
    assert executor.hits + executor.misses == 1
    return got, executor.hits == 1


class TestCacheStore:
    def test_miss_then_hit(self, cache, app, setup, offline_result):
        task = _cell(app, setup)
        assert _run(cache, task, offline_result) == (offline_result, False)
        assert _run(cache, task) == (offline_result, True)

    def test_distinct_cells_do_not_collide(
        self, cache, app, setup, offline_result
    ):
        _run(cache, _cell(app, setup), offline_result)
        default = run_default(app, setup)
        assert _run(cache, _cell(app, setup, "default"), default) == (
            default,
            False,
        )
        other = ExperimentSetup(spec=crill(), cap_w=70.0, repeats=2)
        assert not _run(cache, _cell(app, other), offline_result)[1]

    def test_corrupt_entry_is_a_miss(
        self, cache, app, setup, offline_result
    ):
        _run(cache, _cell(app, setup), offline_result)
        cache.path.write_bytes(b"{ not a log line\n")
        assert not _run(cache, _cell(app, setup), offline_result)[1]
        quarantined = cache.path.parent / "quarantine" / "cells.jsonl.0"
        assert quarantined.read_bytes() == b"{ not a log line\n"

    def test_schema_mismatch_invalidates(
        self, cache, app, setup, offline_result
    ):
        task = _cell(app, setup)
        _run(cache, task, offline_result)
        (record,) = cache.scan().records
        cache.path.write_bytes(encode(record, SweepJournal.schema + 1))
        assert not _run(cache, task, offline_result)[1]
        # the miss re-recorded the cell
        assert _run(cache, task) == (offline_result, True)

    def test_truncated_entry_is_a_miss(
        self, cache, app, setup, offline_result
    ):
        """A crash mid-write must never poison later runs."""
        _run(cache, _cell(app, setup), offline_result)
        payload = cache.path.read_bytes()
        cache.path.write_bytes(payload[: len(payload) // 2])
        assert not _run(cache, _cell(app, setup), offline_result)[1]

    def test_entry_for_another_digest_is_a_miss(
        self, cache, app, setup, offline_result
    ):
        """A verified record keyed by another cell is not a hit."""
        other = experiment_digest(app, setup, "default")
        cache.append(other, "other", offline_result)
        assert not _run(cache, _cell(app, setup), offline_result)[1]

    def test_unreadable_journal_is_an_error(self, cache, app, setup):
        """A journal path that cannot be read (here a directory) fails
        loudly: nothing could be recorded there either."""
        cache.path.mkdir(parents=True)
        with pytest.raises(OSError):
            _run(cache, _cell(app, setup))

    def test_put_leaves_no_temp_files(
        self, cache, app, setup, offline_result
    ):
        _run(cache, _cell(app, setup), offline_result)
        leftovers = [
            p for p in cache.path.parent.iterdir() if p.suffix == ".tmp"
        ]
        assert leftovers == []

    def test_clear(self, cache, app, setup, offline_result):
        _run(cache, _cell(app, setup), offline_result)
        cache.clear()
        assert not _run(cache, _cell(app, setup), offline_result)[1]
