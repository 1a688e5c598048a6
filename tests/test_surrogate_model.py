"""Property wall for the learned surrogate model.

The surrogate sits between cached measurements and live tuning
decisions, so the properties here are the ones the strategy and
cold-start layers lean on:

* fitting is deterministic under (corpus, seed) - byte-identical
  weights and saved JSON;
* predictions are finite for *arbitrary* region-context values,
  including NaNs and infinities (a surrogate that emits NaN would
  poison a tuning session's simplex);
* top-k prefixes nest, so recall of the truly-best configurations
  never degrades as k grows;
* save -> load -> predict round-trips byte-identically.
"""

from __future__ import annotations

import json
import math

import pytest

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is an extra
    pytest.skip(
        "hypothesis is not installed", allow_module_level=True
    )

from repro.core.config import config_from_point, search_space_for
from repro.machine.node import SimulatedNode
from repro.machine.spec import crill
from repro.openmp.engine import ExecutionEngine
from repro.openmp.types import OMPConfig, ScheduleKind
from repro.surrogate.model import (
    FEATURE_VERSION,
    MODEL_SCHEMA_VERSION,
    RegionContext,
    SurrogateError,
    SurrogateModel,
    context_from_profile,
    fit_surrogate,
    load_model,
    save_model,
)
from repro.surrogate.corpus import TrainingRecord
from repro.workloads.registry import application_by_name

BOUNDED = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

APP = application_by_name("synthetic", "mixed")
SPEC = crill()
SPACE = search_space_for(SPEC)
CAP_W = 85.0


def _corpus() -> list[TrainingRecord]:
    """Full-space sweep of the synthetic app's regions at one cap,
    measured noiselessly - small, fast, and fully resolvable."""
    node = SimulatedNode(SPEC)
    node.set_power_cap(CAP_W)
    node.settle_after_cap()
    engine = ExecutionEngine(node)
    records = []
    for profile in APP.regions():
        for indices in SPACE.iter_indices():
            config = config_from_point(SPACE.decode(indices))
            time_s = engine._simulate(profile, config).time_s
            records.append(
                TrainingRecord(
                    app=APP.label,
                    machine=SPEC.name,
                    region=profile.name,
                    cap_w=CAP_W,
                    n_threads=config.n_threads,
                    schedule=config.schedule.value,
                    chunk=config.chunk,
                    time_s=time_s,
                    energy_j=None,
                    source="cache",
                    provenance="test_surrogate_model",
                )
            )
    return records


@pytest.fixture(scope="module")
def corpus():
    return _corpus()


@pytest.fixture(scope="module")
def model(corpus) -> SurrogateModel:
    fitted = fit_surrogate(corpus, seed=3)
    assert fitted.usable
    return fitted


def _configs() -> st.SearchStrategy[OMPConfig]:
    return st.builds(
        OMPConfig,
        n_threads=st.integers(min_value=1, max_value=128),
        schedule=st.sampled_from(list(ScheduleKind)),
        chunk=st.one_of(
            st.none(), st.integers(min_value=1, max_value=4096)
        ),
    )


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


def _contexts() -> st.SearchStrategy[RegionContext]:
    """Arbitrary - including degenerate - region contexts."""
    return st.builds(
        RegionContext,
        region_key=st.text(
            alphabet="ab.|=_0123456789", min_size=0, max_size=24
        ),
        machine=st.sampled_from(["crill", "whale_es2", "nowhere"]),
        tdp_w=_ANY_FLOAT,
        cap_w=st.one_of(st.none(), _ANY_FLOAT),
        iterations=_ANY_FLOAT,
        cpu_ns_per_iter=_ANY_FLOAT,
        serial_ns=_ANY_FLOAT,
        bytes_per_iter=_ANY_FLOAT,
        stride_bytes=_ANY_FLOAT,
        footprint_bytes=_ANY_FLOAT,
        reuse_fraction=_ANY_FLOAT,
        neighbourhood_bytes=_ANY_FLOAT,
        imb_kind=st.sampled_from(["none", "gaussian", "block", "?"]),
        imb_amplitude=_ANY_FLOAT,
    )


class TestFitDeterminism:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_same_corpus_and_seed_fit_byte_identically(
        self, corpus, tmp_path_factory, seed
    ):
        a = fit_surrogate(corpus, seed=seed)
        b = fit_surrogate(corpus, seed=seed)
        assert (a.weights == b.weights).all()
        assert a.report == b.report
        tmp = tmp_path_factory.mktemp("fits")
        save_model(a, tmp / "a.json")
        save_model(b, tmp / "b.json")
        assert (tmp / "a.json").read_bytes() == (
            tmp / "b.json"
        ).read_bytes()


class TestPredictionFiniteness:
    @BOUNDED
    @given(ctx=_contexts(), config=_configs())
    def test_prediction_is_finite_for_arbitrary_features(
        self, model, ctx, config
    ):
        assert math.isfinite(model.predict_log_time(ctx, config))


class TestTopKRecall:
    @pytest.fixture(scope="class")
    def ranking(self, model, corpus):
        """(ranked order, truly-relevant set) for one warm region."""
        profile = next(iter(APP.regions()))
        ctx = context_from_profile(
            APP.label, SPEC.name, CAP_W, profile, SPEC.tdp_w
        )
        ranked = model.rank(ctx, SPACE)
        true = {
            (r.n_threads, r.schedule, r.chunk): r.time_s
            for r in corpus
            if r.region == profile.name
        }

        def time_of(indices):
            config = config_from_point(SPACE.decode(indices))
            return true[
                (config.n_threads, config.schedule.value, config.chunk)
            ]

        relevant = set(sorted(ranked, key=time_of)[:10])
        return ranked, relevant

    @BOUNDED
    @given(data=st.data())
    def test_recall_never_degrades_as_k_grows(self, ranking, data):
        ranked, relevant = ranking
        k1 = data.draw(
            st.integers(min_value=1, max_value=len(ranked) - 1)
        )
        k2 = data.draw(
            st.integers(min_value=k1 + 1, max_value=len(ranked))
        )
        top1, top2 = set(ranked[:k1]), set(ranked[:k2])
        assert top1 <= top2  # prefixes nest
        recall1 = len(top1 & relevant) / len(relevant)
        recall2 = len(top2 & relevant) / len(relevant)
        assert recall2 >= recall1

    def test_full_space_recall_is_total(self, ranking):
        ranked, relevant = ranking
        assert set(ranked) >= relevant
        assert len(ranked) == SPACE.size
        assert len(set(ranked)) == SPACE.size  # a permutation


class TestPersistenceRoundTrip:
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_save_load_predict_round_trips_bytes(
        self, corpus, tmp_path_factory, seed
    ):
        tmp = tmp_path_factory.mktemp("roundtrip")
        fitted = fit_surrogate(corpus, seed=seed)
        save_model(fitted, tmp / "m.json")
        loaded = load_model(tmp / "m.json")
        save_model(loaded, tmp / "m2.json")
        assert (tmp / "m.json").read_bytes() == (
            tmp / "m2.json"
        ).read_bytes()
        profile = next(iter(APP.regions()))
        ctx = context_from_profile(
            APP.label, SPEC.name, CAP_W, profile, SPEC.tdp_w
        )
        for indices in list(SPACE.iter_indices())[:: SPACE.size // 9]:
            config = config_from_point(SPACE.decode(indices))
            assert fitted.predict_log_time(
                ctx, config
            ) == loaded.predict_log_time(ctx, config)
        assert loaded.report == fitted.report


class TestDegenerateFits:
    def test_empty_corpus_is_unusable_not_an_error(self):
        fitted = fit_surrogate([], seed=0)
        assert not fitted.usable
        assert "empty" in (fitted.report.reason or "")

    def test_unresolvable_records_are_counted(self, corpus):
        bogus = [
            TrainingRecord(
                app="no_such_app.X",
                machine="crill",
                region="nowhere",
                cap_w=None,
                n_threads=4,
                schedule="static",
                chunk=None,
                time_s=1.0,
                energy_j=None,
                source="cache",
                provenance="t",
            )
        ]
        fitted = fit_surrogate(corpus[:40] + bogus, seed=0)
        assert fitted.report.n_unresolvable == 1

    def test_all_unresolvable_reports_reason(self):
        bogus = TrainingRecord(
            app="no_such_app.X",
            machine="crill",
            region="nowhere",
            cap_w=None,
            n_threads=4,
            schedule="static",
            chunk=None,
            time_s=1.0,
            energy_j=None,
            source="cache",
            provenance="t",
        )
        fitted = fit_surrogate([bogus], seed=0)
        assert not fitted.usable
        assert "1 unresolvable" in (fitted.report.reason or "")


class TestLoadErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(SurrogateError, match="cannot read"):
            load_model(tmp_path / "missing.json")

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "torn.json"
        path.write_text('{"schema": ')
        with pytest.raises(SurrogateError, match="cannot read"):
            load_model(path)

    def test_wrong_schema(self, tmp_path, corpus):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"schema": MODEL_SCHEMA_VERSION + 1}))
        with pytest.raises(SurrogateError, match="unsupported schema"):
            load_model(path)
        # a v1 model carrying MLP residual weights is refused, never
        # loaded with its residual silently dropped
        fitted = fit_surrogate(corpus[:40], seed=0)
        save_model(fitted, path)
        blob = json.loads(path.read_text())
        blob["schema"] = 1
        blob["report"]["mlp"] = True
        blob["mlp"] = {
            "w1": [[0.0] * 2] * fitted.dim,
            "b1": [0.0, 0.0],
            "w2": [0.5, -0.5],
            "b2": 0.1,
        }
        path.write_text(json.dumps(blob))
        with pytest.raises(SurrogateError, match="unsupported schema 1"):
            load_model(path)

    def test_wrong_feature_version(self, tmp_path, corpus):
        path = tmp_path / "refeatured.json"
        fitted = fit_surrogate(corpus[:40], seed=0)
        save_model(fitted, path)
        blob = json.loads(path.read_text())
        blob["feature_version"] = FEATURE_VERSION + 1
        path.write_text(json.dumps(blob))
        with pytest.raises(SurrogateError, match="feature version"):
            load_model(path)

    def test_truncated_weights(self, tmp_path, corpus):
        path = tmp_path / "short.json"
        fitted = fit_surrogate(corpus[:40], seed=0)
        save_model(fitted, path)
        blob = json.loads(path.read_text())
        blob["weights"] = blob["weights"][:-3]
        path.write_text(json.dumps(blob))
        with pytest.raises(SurrogateError, match="corrupt"):
            load_model(path)
