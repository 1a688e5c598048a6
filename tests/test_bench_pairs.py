"""Tests for ``tools/bench_pairs.py`` (paired parent/change benchmark
runs): the verdict, and what it reads from and prints about the runs."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs",
    Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py",
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
sys.modules.setdefault("bench_pairs", bench_pairs)  # dataclasses need it
_SPEC.loader.exec_module(bench_pairs)
verdict = bench_pairs.verdict

PARENT = [4.0, 4.1, 4.2, 4.3, 4.0, 4.1, 4.2, 4.3, 4.1, 4.2]


def test_gain_needs_nine_of_ten_wins_and_a_gap_beyond_the_iqr():
    change = [3.1, 3.2, 3.1, 3.3, 3.2, 3.1, 3.2, 3.3, 3.2, 3.1]
    v = verdict(PARENT, change, "lower", 0.25)
    assert (v.wins, v.pairs, v.label) == (10, 10, "gain")
    assert v.parent[1] == pytest.approx(4.15)
    assert v.worse_by == pytest.approx(-0.95 / 4.15)
    # two lost pairs: 8 of 10 wins is not a gain
    lost = change[:8] + [4.5, 4.5]
    assert verdict(PARENT, lost, "lower", 0.25).wins == 8
    assert verdict(PARENT, lost, "lower", 0.25).label == "within bound"


def test_ties_count_for_neither_side():
    change = [3.0] * 8 + PARENT[8:]
    assert verdict(PARENT, change, "lower", 0.25).wins == 8


def test_gap_inside_the_parent_iqr_is_no_gain():
    # wins every pair, but by less than the parent's own spread
    change = [p - 0.01 for p in PARENT]
    v = verdict(PARENT, change, "lower", 0.25)
    assert v.wins == 10
    assert v.label == "within bound"


def test_fewer_than_ten_pairs_is_never_a_gain():
    v = verdict(PARENT[:9], [1.0] * 9, "lower", 0.25)
    assert v.label == "within bound"


def test_higher_is_better_metrics_flip_the_sign():
    change = [p + 1.0 for p in PARENT]
    assert verdict(PARENT, change, "higher", 0.25).label == "gain"
    assert verdict(change, PARENT, "higher", 0.1).label == "worse"


def test_worse_than_the_bound():
    change = [p * 1.3 for p in PARENT]
    v = verdict(PARENT, change, "lower", 0.25)
    assert v.worse_by == pytest.approx(0.3)
    assert v.label == "worse"


def test_spread_wider_than_the_bound_is_unresolved():
    parent = [1.0, 2.0, 1.0, 2.0]
    assert verdict(parent, [1.5] * 4, "lower", 0.25).label == "unresolved"
    # unless every change run beats every parent run
    assert verdict(parent, [0.9] * 4, "lower", 0.25).label == "within bound"


def test_mismatched_runs_are_rejected():
    with pytest.raises(ValueError):
        verdict([1.0], [1.0, 2.0], "lower", 0.25)
    with pytest.raises(ValueError):
        verdict([1.0], [1.0], "faster", 0.25)


def test_more_failed_ops_on_the_change_side_is_invalid():
    change = [3.1, 3.2, 3.1, 3.3, 3.2, 3.1, 3.2, 3.3, 3.2, 3.1]
    assert verdict(PARENT, change, "lower", 0.25, (0, 1)).label == "invalid"
    # as many failures as the parent, or fewer, leaves the gain standing
    assert verdict(PARENT, change, "lower", 0.25, (2, 2)).label == "gain"
    assert verdict(PARENT, change, "lower", 0.25, (3, 0)).label == "gain"
    # a worse change stays worse
    worse = [p * 1.3 for p in PARENT]
    assert verdict(PARENT, worse, "lower", 0.25, (0, 5)).label == "worse"


def test_a_run_without_metrics_makes_them_invalid(tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "end_to_end": [
            {"name": "wall_s", "better": "lower", "bound": 0.25}],
    }))
    crashed = {"correct": False, "error": "boom"}
    ok = {"correct": True, "attempted": 3, "failed": 0,
          "metrics": {"wall_s": {"value": 1.0}}}
    results = iter([ok, crashed, crashed, ok])  # pair 2 runs change first
    monkeypatch.setattr(bench_pairs, "run_once", lambda *a: next(results))
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    assert bench_pairs.main(
        [str(tmp_path), str(tmp_path), "--workload", "w", "--pairs", "2"]
    ) == 1
    out = json.loads(
        (tmp_path / ".perfbench" / "pairs" / "w-seed0.json").read_text()
    )
    assert out["failed"] == {"parent": 0, "change": 2}
    assert out["verdicts"]["wall_s"]["label"] == "invalid"


def test_run_once_counts_iterations_from_the_record_line(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json\n"
        "print(json.dumps({'record': {'walls_s': [1.0, 0.9, 0.8]}}))\n"
        "print(json.dumps({'correct': True, 'failed': 0, 'metrics': {}}))\n"
    )
    result = bench_pairs.run_once(tmp_path, "w", 0, 1)
    assert result == {
        "correct": True, "failed": 0, "metrics": {}, "iterations": 3
    }


def test_peak_rss_line_shows_median_iterations(
    tmp_path, monkeypatch, capsys
):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "end_to_end": [
            {"name": "wall_s", "better": "lower", "bound": 0.25},
            {"name": "peak_rss_mb", "better": "lower", "bound": 0.15}],
    }))

    def run(iterations, rss):
        return {"correct": True, "failed": 0, "iterations": iterations,
                "metrics": {"wall_s": {"value": 1.0},
                            "peak_rss_mb": {"value": rss}}}

    # pair 1 runs parent then change, pair 2 change then parent
    results = iter([run(10, 60.0), run(13, 62.0),
                    run(15, 63.0), run(12, 61.0)])
    monkeypatch.setattr(bench_pairs, "run_once", lambda *a: next(results))
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    assert bench_pairs.main(
        [str(tmp_path), str(tmp_path), "--workload", "w", "--pairs", "2"]
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    rss = next(line for line in lines if line.startswith("  peak_rss_mb"))
    assert rss.endswith("iterations 11 / 14")
    wall = next(line for line in lines if line.startswith("  wall_s"))
    assert "iterations" not in wall
