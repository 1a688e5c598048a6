"""Tests for the figure/table registry (:mod:`repro.analysis.registry`)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.bench import (
    BENCH_SCHEMA_VERSION,
    bench_path,
    load_bench_json,
)
from repro.analysis.registry import (
    FORMATS,
    GenOptions,
    REGISTRY,
    UnknownFigureError,
    figure_names,
    generate_figure,
    generate_figures,
    get_spec,
    write_figure,
)

#: registry entries cheap enough for tests (~seconds each).
FAST = "table1_search_space"

RESULTS = Path(__file__).resolve().parent.parent / "results"

#: every fast entry with a committed ``results/<name>.txt``.
COMMITTED_FAST = [
    name
    for name in figure_names(cost="fast")
    if (RESULTS / f"{name}.txt").exists()
]


class TestRegistry:
    def test_every_name_is_a_results_stem(self):
        # names are exactly what the benchmark suite writes
        for expected in (
            "fig1_motivation", "fig4_sp_power_sweep",
            "table1_search_space", "table2_sp_optimal_configs",
        ):
            assert expected in REGISTRY

    def test_figure_names_sorted_and_filtered(self):
        names = figure_names()
        assert names == sorted(names)
        sweeps = figure_names(cost="sweep")
        assert "fig4_sp_power_sweep" in sweeps
        assert FAST not in sweeps

    def test_unknown_name_lists_known(self):
        with pytest.raises(UnknownFigureError) as err:
            get_spec("fig99_dreams")
        assert "fig99_dreams" in str(err.value)
        assert "fig1_motivation" in str(err.value)

    def test_specs_are_complete(self):
        for spec in REGISTRY.values():
            assert spec.kind in ("figure", "table")
            assert spec.cost in ("fast", "sweep", "external")
            assert spec.title


class TestGeneration:
    def test_generate_fast_figure(self):
        artifact = generate_figure(FAST)
        assert artifact.spec.name == FAST
        assert "Chunk Size" in artifact.text
        assert artifact.table.columns == ("parameter", "values")

    def test_generation_is_deterministic(self):
        a = generate_figure(FAST)
        b = generate_figure(FAST)
        assert a.text == b.text
        assert a.table.to_json() == b.table.to_json()

    def test_write_figure_all_backends(self, tmp_path):
        artifact = generate_figure(FAST)
        paths = write_figure(artifact, tmp_path)
        assert set(paths) == set(FORMATS)
        txt = paths["txt"].read_text()
        assert txt == artifact.text + "\n"
        # the json backend is the artifact's BENCH file
        assert paths["json"] == bench_path(tmp_path, FAST)
        payload = load_bench_json(paths["json"])
        assert payload["schema"] == BENCH_SCHEMA_VERSION
        assert payload["name"] == FAST
        assert payload["records"] == artifact.table.records
        assert payload["provenance"]["machines"] == ["crill", "minotaur"]
        assert paths["csv"].read_text().startswith("parameter,values")

    def test_write_figure_unknown_format(self, tmp_path):
        artifact = generate_figure(FAST)
        with pytest.raises(ValueError, match="format"):
            write_figure(artifact, tmp_path, formats=("pdf",))

    @pytest.mark.parametrize("name", COMMITTED_FAST)
    def test_txt_matches_committed_results(self, name):
        """The registry regenerates the committed results/ text
        byte-identically, and the metrics, records and provenance of
        the committed BENCH file."""
        artifact = generate_figure(name)
        committed_txt = (RESULTS / f"{name}.txt").read_text()
        assert artifact.text + "\n" == committed_txt
        committed = load_bench_json(bench_path(RESULTS, name))
        assert committed is not None
        fresh = json.loads(json.dumps(artifact.bench))
        assert fresh["metrics"] == committed["metrics"]
        assert fresh["records"] == committed["records"]
        for key in ("machines", "seed", "config"):
            assert fresh["provenance"][key] == committed["provenance"][key]

    def test_generate_figures_validates_names_first(self, tmp_path):
        with pytest.raises(UnknownFigureError):
            generate_figures(
                [FAST, "fig99_dreams"], out_dir=tmp_path
            )
        # nothing was generated: the bad name failed the whole batch
        assert list(tmp_path.iterdir()) == []

    def test_generate_figures_writes_and_reports(self, tmp_path):
        seen = []
        generated = generate_figures(
            [FAST], out_dir=tmp_path, formats=("txt", "csv"),
            options=GenOptions(repeats=1), progress=seen.append,
        )
        assert seen == [FAST]
        assert (tmp_path / f"{FAST}.txt").exists()
        assert (tmp_path / f"{FAST}.csv").exists()
        assert not bench_path(tmp_path, FAST).exists()
        assert generated[0].paths["txt"].parent == tmp_path
