"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from tests.conftest import REPO_ROOT
from tests.test_golden_masters import check_golden


def option_table(parser, path=()):
    """Every option of ``parser`` and its subcommands, keyed by the
    command path (``""`` is the top level), help text left out."""
    table = {" ".join(path): []}
    for action in parser._actions:
        subcommands = isinstance(action, argparse._SubParsersAction)
        table[" ".join(path)].append({
            "option_strings": action.option_strings,
            "dest": action.dest,
            "default": action.default,
            "type": getattr(action.type, "__name__", action.type),
            "choices": (
                None if action.choices is None else list(action.choices)
            ),
            "nargs": action.nargs,
            "required": action.required,
            "metavar": action.metavar,
            "action": type(action).__name__,
        })
        if subcommands:
            for name, child in action.choices.items():
                table.update(option_table(child, (*path, name)))
    return table


class TestParser:
    def test_options_match_golden(self, goldens_dir, update_goldens):
        """Pins every option's name, dest, default, type, choices,
        nargs, required flag, metavar and action class, one option a
        line so a diff names the option that moved."""
        commands = [
            f" {json.dumps(path)}: [\n"
            + ",\n".join(f"  {json.dumps(option)}" for option in options)
            + "\n ]"
            for path, options in option_table(build_parser()).items()
        ]
        text = "{\n" + ",\n".join(commands) + "\n}\n"
        check_golden("cli_options.json", text, goldens_dir, update_goldens)

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.app == "sp"
        assert args.strategy == "arcs-offline"
        assert args.cap is None

    def test_invalid_strategy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--strategy", "magic"])

    def test_sweep_parallel_flags(self):
        args = build_parser().parse_args(
            ["sweep", "--workers", "4", "--no-cache", "--seed", "7"]
        )
        assert args.workers == 4
        assert args.no_cache is True
        assert args.seed == 7

    def test_sweep_defaults_to_serial_cached(self):
        args = build_parser().parse_args(["sweep"])
        assert args.workers == 1
        assert args.no_cache is False
        assert args.cache_dir.endswith(".cache")

    @pytest.mark.parametrize(
        "argv",
        [
            ["fleet", "run", "--concurrency", "2"],
            ["run", "--no-batch"],
            ["sweep", "--no-batch"],
            ["surrogate", "fit", "--out", "model.json", "--mlp"],
            ["run", "--resume-from", "ck.jsonl"],
            ["sweep", "--journal", "sweep.jsonl"],
            ["sweep", "--resume"],
            ["surrogate", "fit", "--out", "model.json",
             "--journal", "sweep.jsonl"],
            ["search-space", "--machine", "crill"],
            ["fleet", "run", "--journal", "fleet.jsonl", "--resume"],
        ],
        ids=["fleet-concurrency", "run-no-batch", "sweep-no-batch",
             "surrogate-mlp", "run-resume-from", "sweep-journal",
             "sweep-resume", "surrogate-journal", "search-space-machine",
             "fleet-run-resume"],
    )
    def test_removed_options_are_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def run_cli(argv):
    """``python -m repro ARGV`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )


class TestSetupErrors:
    """A bad setup value is one ``error:`` line and exit status 1 for
    every measuring subcommand; a malformed argv stays argparse's
    usage error, status 2."""

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--machine", "frontier"], "unknown machine 'frontier'"),
            (["--workload", "Z"], "npb_class must be one of"),
            (["--app", "lulesh", "--workload", "50"],
             "mesh must be one of"),
            (["--app", "lulesh", "--workload", "big"],
             "mesh must be one of (45, 60), got 'big'"),
            (["--app", "synthetic", "--workload", "Z"],
             "synthetic has only the 'mixed' workload, got 'Z'"),
            (["--repeats", "0"], "repeats must be >= 1, got 0"),
        ],
        ids=["machine", "sp-workload", "lulesh-workload",
             "lulesh-nonnumeric-workload", "synthetic-workload",
             "repeats"],
    )
    def test_bad_setup_value_is_one_error_line(
        self, command, flags, message
    ):
        done = run_cli([command, *flags])
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr.startswith("error: ")
        assert done.stderr.count("\n") == 1
        assert message in done.stderr

    def test_usage_error_keeps_status_two(self):
        done = run_cli(["run", "--repeats", "three"])
        assert done.returncode == 2
        assert "invalid int value" in done.stderr


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "crill" in out and "arcs-offline" in out

    def test_search_space(self, capsys):
        assert main(["search-space"]) == 0
        out = capsys.readouterr().out
        assert "2, 4, 8, 16, 24, 32, default" in out

    def test_run_default_strategy(self, capsys):
        code = main(
            [
                "run", "--app", "synthetic", "--strategy", "default",
                "--repeats", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "time" in out and "energy" in out

    def test_run_online_with_cap(self, capsys):
        code = main(
            [
                "run", "--app", "synthetic", "--strategy", "arcs-online",
                "--cap", "85", "--repeats", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "85W" in out
        assert "chosen configurations" in out

    def test_run_cap_on_noncapping_machine_is_friendly(self, capsys):
        """--cap on Minotaur used to silently run at TDP while
        reporting a capped result."""
        with pytest.raises(SystemExit) as err:
            main(
                [
                    "run", "--app", "synthetic",
                    "--machine", "minotaur", "--cap", "85",
                ]
            )
        assert "power-capping" in str(err.value.code)

    def test_run_zero_repeats_is_friendly(self):
        with pytest.raises(SystemExit) as err:
            main(["run", "--app", "synthetic", "--repeats", "0"])
        assert "repeats" in str(err.value.code)

    def test_sweep_rejects_zero_workers(self):
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--app", "synthetic", "--workers", "0"])
        assert "--workers" in str(err.value.code)

    def test_sweep_cached_rerun_hits(self, tmp_path, capsys):
        argv = [
            "sweep", "--app", "synthetic", "--repeats", "1",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "miss(es)" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "0 miss(es)" in second
        # the rendered sweep itself is unchanged
        assert first.splitlines()[:-1] == second.splitlines()[:-1]

    def test_sweep_no_cache_skips_cache_report(self, capsys):
        assert main(
            ["sweep", "--app", "synthetic", "--repeats", "1",
             "--no-cache"]
        ) == 0
        assert "[cache]" not in capsys.readouterr().out

    def test_run_offline_with_history_file(self, tmp_path, capsys):
        history = tmp_path / "h.json"
        argv = [
            "run", "--app", "synthetic", "--strategy", "arcs-offline",
            "--repeats", "1", "--history", str(history),
        ]
        assert main(argv) == 0
        assert history.exists()
        capsys.readouterr()
        # second invocation reuses the tuned history
        assert main(argv) == 0
        assert "chosen configurations" in capsys.readouterr().out


class TestFiguresCommand:
    def test_defaults(self):
        args = build_parser().parse_args(["figures"])
        assert args.names == []
        assert args.out == "results"
        assert args.formats == "txt,json,csv"
        assert args.workers == 1

    def test_list(self, capsys):
        assert main(["figures", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig1_motivation" in out
        assert "table2_sp_optimal_configs" in out
        assert "sweep" in out  # cost column

    def test_unknown_name_is_friendly(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["figures", "fig99_dreams",
                  "--out", str(tmp_path)])
        message = str(err.value.code)
        assert message.startswith("error:")
        assert "fig99_dreams" in message
        assert "fig1_motivation" in message  # lists known names

    def test_unknown_format_is_friendly(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["figures", "table1_search_space",
                  "--out", str(tmp_path), "--formats", "pdf"])
        assert "pdf" in str(err.value.code)

    def test_zero_workers_is_friendly(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["figures", "table1_search_space",
                  "--out", str(tmp_path), "--workers", "0"])
        assert "--workers" in str(err.value.code)

    def test_regenerates_fast_table(self, tmp_path, capsys):
        assert main(
            ["figures", "table1_search_space",
             "--out", str(tmp_path), "--no-cache"]
        ) == 0
        out = capsys.readouterr().out
        assert "regenerated 1 artifact(s)" in out
        for stem in ("table1_search_space.txt",
                     "BENCH_table1_search_space.json",
                     "table1_search_space.csv"):
            assert (tmp_path / stem).exists()

    def test_repeated_regeneration_is_byte_identical(self, tmp_path):
        argv = ["figures", "table1_search_space", "fig9_lulesh_regions",
                "--out", str(tmp_path), "--no-cache"]
        assert main(argv) == 0
        first = {
            p.name: p.read_bytes() for p in tmp_path.iterdir()
        }
        assert main(argv) == 0
        second = {
            p.name: p.read_bytes() for p in tmp_path.iterdir()
        }
        assert first == second


class TestAnalysisCommand:
    @staticmethod
    def write_bench(directory, name, value):
        from repro.analysis.bench import bench_payload, write_bench_json

        directory.mkdir(exist_ok=True)
        write_bench_json(
            directory, bench_payload(name, {"t": value})
        )

    def test_compare_ok_exit_zero(self, tmp_path, capsys):
        self.write_bench(tmp_path / "old", "speed", 1.0)
        self.write_bench(tmp_path / "new", "speed", 1.0)
        code = main(["analysis", "compare",
                     str(tmp_path / "old"), str(tmp_path / "new")])
        assert code == 0
        assert "0 regression(s) - OK" in capsys.readouterr().out

    def test_compare_regression_exit_one(self, tmp_path, capsys):
        self.write_bench(tmp_path / "old", "speed", 1.0)
        self.write_bench(tmp_path / "new", "speed", 2.0)
        code = main(["analysis", "compare",
                     str(tmp_path / "old"), str(tmp_path / "new"),
                     "--tolerance", "0.05"])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_compare_missing_dir_is_friendly(self, tmp_path):
        self.write_bench(tmp_path / "old", "speed", 1.0)
        with pytest.raises(SystemExit) as err:
            main(["analysis", "compare", str(tmp_path / "old"),
                  str(tmp_path / "nope")])
        assert str(err.value.code).startswith("error:")

    def test_compare_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analysis"])


def write_capsched(tmp_path, after=30, cap_w=55.0):
    import json

    path = tmp_path / "sched.json"
    path.write_text(
        json.dumps(
            {
                "events": [
                    {
                        "after_region_invocations": after,
                        "cap_w": cap_w,
                    }
                ]
            }
        )
    )
    return str(path)


class TestRobustnessFlags:
    def test_run_new_flags_default_off(self):
        args = build_parser().parse_args(["run"])
        assert args.cap_schedule is None
        assert args.checkpoint is None

    def test_missing_fault_plan_is_friendly(self):
        with pytest.raises(SystemExit) as err:
            main(["run", "--app", "synthetic",
                  "--faults", "missing.json"])
        message = str(err.value.code)
        assert message.startswith("error:")
        assert "missing.json" in message
        assert "Traceback" not in message

    def test_missing_cap_schedule_is_friendly(self):
        with pytest.raises(SystemExit) as err:
            main(["run", "--app", "synthetic",
                  "--cap-schedule", "missing.json"])
        message = str(err.value.code)
        assert message.startswith("error:")
        assert "missing.json" in message

    def test_cap_schedule_on_noncapping_machine_is_friendly(
        self, tmp_path
    ):
        sched = write_capsched(tmp_path)
        with pytest.raises(SystemExit) as err:
            main(["run", "--app", "synthetic",
                  "--machine", "minotaur", "--cap-schedule", sched])
        assert "capping" in str(err.value.code)

    def test_run_with_cap_schedule_reports_changes(
        self, tmp_path, capsys
    ):
        code = main(
            ["run", "--app", "synthetic",
             "--strategy", "arcs-online", "--cap", "85",
             "--repeats", "1",
             "--cap-schedule", write_capsched(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cap changes:" in out
        assert "power cap 85W -> 55W" in out

    def test_checkpoint_requires_online_strategy(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["run", "--app", "synthetic",
                  "--strategy", "default",
                  "--checkpoint", str(tmp_path / "ck.json")])
        assert "arcs-online" in str(err.value.code)

    def test_resume_from_missing_checkpoint_is_friendly(
        self, tmp_path, capsys
    ):
        # a missing log is an empty one: the run starts at repeat 0
        base = ["run", "--app", "synthetic",
                "--strategy", "arcs-online", "--repeats", "1"]
        assert main(base) == 0
        plain = capsys.readouterr().out
        ck = tmp_path / "missing.json"
        assert main(base + ["--checkpoint", str(ck)]) == 0
        assert capsys.readouterr().out == plain
        # one that cannot be read is a one-line error naming it
        unreadable = tmp_path / "ck.d"
        unreadable.mkdir()
        with pytest.raises(SystemExit) as err:
            main(base + ["--checkpoint", str(unreadable)])
        message = str(err.value.code)
        assert message.startswith("error:")
        assert "ck.d" in message

    def test_checkpoint_then_resume_prints_identical_result(
        self, tmp_path, capsys
    ):
        ck = str(tmp_path / "ck.json")
        base = ["run", "--app", "synthetic",
                "--strategy", "arcs-online", "--repeats", "1"]
        assert main(base + ["--checkpoint", ck]) == 0
        first = capsys.readouterr().out
        assert main(base + ["--checkpoint", ck]) == 0
        assert capsys.readouterr().out == first

    def test_sweep_with_changed_setup_misses_by_construction(
        self, tmp_path, capsys
    ):
        # no header to refuse: a changed seed digests differently, so
        # it gets 0 hits and prints what a fresh store prints
        base = ["sweep", "--app", "synthetic", "--repeats", "1"]
        store = str(tmp_path / "store")
        assert main(base + ["--cache-dir", store]) == 0
        capsys.readouterr()
        assert main(base + ["--cache-dir", store, "--seed", "1"]) == 0
        changed = capsys.readouterr().out
        assert "[cache] 0 hit(s), 15 miss(es)" in changed
        fresh = str(tmp_path / "fresh")
        assert main(base + ["--cache-dir", fresh, "--seed", "1"]) == 0
        assert capsys.readouterr().out.replace(fresh, store) == changed

    def test_surrogate_fit_folds_each_cell_once(self, tmp_path, capsys):
        # the sweep's store is the one source of its cells: folding it
        # yields one record set per offline cell, not one per store
        store = str(tmp_path / "store")
        assert main(["sweep", "--app", "synthetic", "--repeats", "1",
                     "--cache-dir", store]) == 0
        corpus = tmp_path / "corpus.json"
        assert main(["surrogate", "fit", "--cache-dir", store,
                     "--out", str(tmp_path / "m.json"),
                     "--corpus", str(corpus)]) == 0
        from repro.surrogate.corpus import load_corpus

        records, _stats = load_corpus(corpus)
        cells = {(r.cap_w, r.region) for r in records}
        regions = {r.region for r in records}
        assert len(records) == len(cells) == 5 * len(regions)
        assert len({r.provenance for r in records}) == 5
