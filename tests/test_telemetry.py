"""Tests for the unified telemetry layer: bus, metrics, flight
recorder, sinks, trace export, CLI surfaces and determinism."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.cli import main
from repro.experiments.cache import result_to_json
from repro.experiments.journal import SweepJournal
from repro.experiments.parallel import (
    ParallelSweepExecutor,
    SweepTask,
    SweepTaskError,
    run_sweep_task,
    task_run_id,
)
from repro.experiments.runner import ExperimentSetup, run_arcs_online
from repro.machine.spec import crill
from repro.openmp import batch
from repro.obs.trace import root_context, traced_span
from repro.supervise import RunAbortedError
from repro.telemetry import (
    FlightRecorder,
    JsonlSink,
    MetricsRegistry,
    TelemetryBus,
    bus,
    export_chrome_trace,
    load_telemetry_dir,
    read_jsonl,
    render_decision_timeline,
    render_metrics_summary,
    telemetry_session,
)
from repro.workloads.synthetic import synthetic_application


@pytest.fixture
def enabled_bus(tmp_path):
    """An installed, enabled bus writing ``out/telemetry.jsonl``;
    always restores the disabled default afterwards."""
    out = tmp_path / "out"
    with telemetry_session(JsonlSink(out / "telemetry.jsonl")) as tb:
        yield tb, out


class ListSink:
    """An in-memory sink: records land in ``records``."""

    def __init__(self):
        self.records = []
        self.closed = False

    def write(self, record):
        self.records.append(record)

    def flush(self):
        pass

    def close(self):
        self.closed = True


def small_app():
    return synthetic_application(timesteps=8)


def small_setup(**kw):
    kw.setdefault("spec", crill())
    kw.setdefault("repeats", 1)
    kw.setdefault("seed", 3)
    return ExperimentSetup(**kw)


# ---------------------------------------------------------------------------
# bus semantics
# ---------------------------------------------------------------------------
class TestBus:
    def test_disabled_bus_records_nothing(self):
        tb = TelemetryBus(enabled=False)
        tb.emit("x", a=1)
        tb.count("c")
        tb.gauge("g", 1.0)
        tb.observe("h", 1.0)
        tb.span_finish("s", 0.0, 0, k="v")  # accepted and discarded
        tb.meta(run="r")
        assert len(tb.flight) == 0
        assert not tb.metrics.counters
        assert not tb.metrics.histograms

    def test_default_process_bus_is_disabled(self):
        assert bus().enabled is False

    def test_events_carry_monotone_seq_and_ts(self):
        tb = TelemetryBus(enabled=True)
        sink = ListSink()
        tb.add_sink(sink)
        sink_records = sink.records
        clock = iter([1.0, 2.0, 3.0])
        tb.bind_clock(lambda: next(clock))
        tb.emit("a")
        tb.emit("b")
        assert [r["name"] for r in sink_records] == ["a", "b"]
        assert sink_records[0]["seq"] < sink_records[1]["seq"]
        assert sink_records[0]["ts"] <= sink_records[1]["ts"]

    def test_clock_rebind_keeps_timeline_monotone(self):
        tb = TelemetryBus(enabled=True)
        tb.bind_clock(lambda: 5.0)
        assert tb.now() == pytest.approx(5.0)
        # a fresh repeat's node restarts its clock at zero; the bus
        # must pin the offset so time never goes backwards
        tb.bind_clock(lambda: 0.5)
        assert tb.now() == pytest.approx(5.5)

    def test_span_finish_matches_contextmanager_record(self):
        """A ``traced_span`` with no ambient trace writes the same
        record as a hand-rolled span_begin/span_finish pair."""
        traced, fast = ListSink(), ListSink()
        with telemetry_session(traced):
            with traced_span("omp.region", region="r") as attrs:
                attrs["time_s"] = 0.5

        tb = TelemetryBus(enabled=True)
        tb.add_sink(fast)
        begin, seq = tb.span_begin()
        tb.span_finish("omp.region", begin, seq, region="r", time_s=0.5)
        assert traced.records == fast.records

    def test_session_restores_previous_bus_when_body_raises(self):
        sink = ListSink()
        previous = bus()
        with pytest.raises(RuntimeError, match="boom"):
            with telemetry_session(sink) as tb:
                assert bus() is tb and tb.enabled
                raise RuntimeError("boom")
        assert bus() is previous
        assert sink.closed

    def test_session_stamps_meta_with_its_trace(self):
        sink = ListSink()
        root = root_context(command="test")
        with telemetry_session(sink, trace=root, command="test"):
            pass
        [meta] = sink.records
        assert meta["type"] == "meta"
        assert meta["attrs"] == {"command": "test"}
        assert meta["trace"] == {
            "trace_id": root.trace_id, "span_id": root.span_id,
        }

    def test_close_flushes_metrics_and_is_idempotent(self, tmp_path):
        tb = TelemetryBus(enabled=True)
        tb.add_sink(JsonlSink(tmp_path / "t.jsonl"))
        tb.count("c", 2)
        tb.close()
        tb.close()
        records = read_jsonl(tmp_path / "t.jsonl")
        metric = [r for r in records if r["type"] == "metric"]
        assert metric == [
            {
                "type": "metric", "kind": "counter", "name": "c",
                "value": 2, "ts": 0.0, "seq": 1,
            }
        ]


class TestMetricsRegistry:
    def test_snapshot_sorted_and_complete(self):
        m = MetricsRegistry()
        m.count("b")
        m.count("a", 2)
        m.gauge("g", 4.5)
        m.observe("h", 1.0)
        m.observe("h", 3.0)
        snap = m.snapshot()
        assert [r["name"] for r in snap] == ["a", "b", "g", "h"]
        hist = snap[-1]
        assert hist["count"] == 2
        assert hist["min"] == 1.0
        assert hist["max"] == 3.0
        assert hist["mean"] == pytest.approx(2.0)

    def test_snapshot_is_strict_json(self):
        m = MetricsRegistry()
        m.count("a")
        for record in m.snapshot():
            json.dumps(record, allow_nan=False)


class TestFlightRecorder:
    def test_bounded_to_last_n(self):
        fr = FlightRecorder(3)
        for i in range(10):
            fr.record({"type": "event", "name": f"e{i}", "ts": 0.0,
                       "seq": i, "attrs": {}})
        assert len(fr) == 3
        dump = fr.dump()
        assert len(dump) == 3
        assert "e9" in dump[-1]

    def test_run_aborted_error_carries_flight_dump(self):
        with telemetry_session() as tb:
            tb.emit("supervise.retry", region="r", attempt=1)
            err = RunAbortedError("r", "kept failing")
        assert any("supervise.retry" in line for line in err.flight)

    def test_sweep_task_error_carries_flight_dump(self):
        task = SweepTask(
            app=small_app(),
            setup=ExperimentSetup(spec=crill(), repeats=1),
            strategy="default",
        )
        with telemetry_session() as tb:
            tb.emit("sweep.task_retry", task="t", attempt=1)
            err = SweepTaskError(task, attempts=2, cause=ValueError("x"))
        assert any("sweep.task_retry" in line for line in err.flight)


# ---------------------------------------------------------------------------
# sinks and export
# ---------------------------------------------------------------------------
class TestSinks:
    def test_read_jsonl_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"a":1}\n{"b":2}\n{"tor')
        assert read_jsonl(path) == [{"a": 1}, {"b": 2}]

    def test_load_telemetry_dir_requires_files(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_telemetry_dir(tmp_path)

    def test_chrome_trace_structure(self, enabled_bus):
        tb, out = enabled_bus
        tb.meta(run="test")
        with traced_span("omp.region", region="r"):
            pass
        tb.emit("cap.change", cap_from="tdp", cap_to="85W")
        tb.count("c")
        tb.close()
        trace = json.loads(export_chrome_trace(out).read_text())
        events = trace["traceEvents"]
        phases = {e["ph"] for e in events}
        assert {"M", "X", "i", "C"} <= phases
        names = {e["name"] for e in events}
        assert {"process_name", "omp.region", "cap.change", "c"} <= names
        # every event is on a numbered process track
        assert all(isinstance(e["pid"], int) for e in events)


# ---------------------------------------------------------------------------
# end-to-end: run, determinism, equivalence
# ---------------------------------------------------------------------------
class TestEndToEnd:
    def _run_with_telemetry(self, out, seed=3):
        with telemetry_session(JsonlSink(out / "telemetry.jsonl")):
            return run_arcs_online(small_app(), small_setup(seed=seed))

    def test_event_taxonomy_present(self, tmp_path):
        self._run_with_telemetry(tmp_path)
        records = read_jsonl(tmp_path / "telemetry.jsonl")
        names = {r["name"] for r in records}
        assert "omp.region" in names        # spans
        assert "policy.apply" in names      # decisions
        assert "policy.report" in names     # objective feedback
        assert "harmony.tells" in names     # search metric
        assert "ompt.dispatch" in names     # dispatch counters
        assert "run.repeat" in names        # runner phases

    def test_same_seed_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        self._run_with_telemetry(a)
        self._run_with_telemetry(b)
        assert (
            (a / "telemetry.jsonl").read_bytes()
            == (b / "telemetry.jsonl").read_bytes()
        )

    def test_telemetry_does_not_change_results(self, tmp_path):
        baseline = run_arcs_online(small_app(), small_setup())
        traced = self._run_with_telemetry(tmp_path)
        assert result_to_json(traced) == result_to_json(baseline)

    def test_all_records_are_strict_json(self, tmp_path):
        self._run_with_telemetry(tmp_path)
        for line in (
            (tmp_path / "telemetry.jsonl").read_text().splitlines()
        ):
            json.loads(line)  # parse=strict; Infinity would raise below
            assert "Infinity" not in line and "NaN" not in line


# ---------------------------------------------------------------------------
# timeline / report rendering
# ---------------------------------------------------------------------------
class TestRendering:
    def _loaded(self, tmp_path):
        with telemetry_session(JsonlSink(tmp_path / "telemetry.jsonl")):
            run_arcs_online(small_app(), small_setup(cap_w=85.0))
        return load_telemetry_dir(tmp_path)

    def test_decision_timeline_pairs_apply_and_report(self, tmp_path):
        text = render_decision_timeline(self._loaded(tmp_path))
        assert "-> accept" in text or "-> reject" in text
        assert "objective=" in text
        assert "[cap=85W]" in text

    def test_region_filter(self, tmp_path):
        loaded = self._loaded(tmp_path)
        regions = {
            r["attrs"]["region"]
            for _, records in loaded
            for r in records
            if r.get("name") == "policy.apply"
        }
        pick = sorted(regions)[0]
        text = render_decision_timeline(loaded, region=pick)
        others = regions - {pick}
        assert pick in text
        assert not any(f" {other}:" in text for other in others)

    def test_metrics_summary_table(self, tmp_path):
        text = render_metrics_summary(self._loaded(tmp_path))
        assert "policy.applies" in text
        assert "counter" in text
        assert "histogram" in text


# ---------------------------------------------------------------------------
# CLI surfaces
# ---------------------------------------------------------------------------
class TestCli:
    def test_run_telemetry_writes_jsonl_and_trace(
        self, tmp_path, capsys
    ):
        out = tmp_path / "out"
        code = main(
            [
                "run", "--app", "synthetic", "--strategy",
                "arcs-online", "--repeats", "1",
                "--telemetry", str(out),
            ]
        )
        assert code == 0
        assert (out / "telemetry.jsonl").exists()
        trace = json.loads((out / "trace.json").read_text())
        assert trace["traceEvents"]
        # the meta header identifies the run
        meta = [
            r for r in read_jsonl(out / "telemetry.jsonl")
            if r["type"] == "meta"
        ]
        assert meta and meta[0]["attrs"]["strategy"] == "arcs-online"

    def test_trace_and_report_commands(self, tmp_path, capsys):
        out = tmp_path / "out"
        main(
            [
                "run", "--app", "synthetic", "--strategy",
                "arcs-online", "--repeats", "1",
                "--telemetry", str(out),
            ]
        )
        capsys.readouterr()
        assert main(["trace", str(out)]) == 0
        timeline = capsys.readouterr().out
        assert "objective=" in timeline
        assert main(["report", "--telemetry", str(out)]) == 0
        report = capsys.readouterr().out
        assert "policy.applies" in report

    def test_trace_missing_dir_is_friendly(self, tmp_path):
        with pytest.raises(SystemExit, match="error"):
            main(["trace", str(tmp_path / "nope")])

    def test_sweep_telemetry_writes_per_task_files(
        self, tmp_path, capsys
    ):
        out = tmp_path / "tel"
        code = main(
            [
                "sweep", "--app", "synthetic", "--repeats", "1",
                "--no-cache", "--telemetry", str(out),
            ]
        )
        assert code == 0
        assert (out / "sweep.jsonl").exists()
        assert list(out.glob("task-*.jsonl"))
        assert (out / "trace.json").exists()
        parent = read_jsonl(out / "sweep.jsonl")
        names = {r["name"] for r in parent}
        assert "sweep.task_start" in names
        assert "sweep.task_done" in names


# ---------------------------------------------------------------------------
# journal run-id stitching
# ---------------------------------------------------------------------------
class TestJournalRunIds:
    def test_journal_records_run_id_and_resume_reuses_it(
        self, tmp_path
    ):
        journal_path = tmp_path / "sweep.journal"
        telemetry = tmp_path / "tel"
        task = SweepTask(
            app=small_app(),
            setup=ExperimentSetup(spec=crill(), repeats=1),
            strategy="default",
            telemetry_dir=str(telemetry),
        )
        executor = ParallelSweepExecutor(
            journal=SweepJournal(journal_path)
        )
        executor.run([task])
        run_id = task_run_id(task)
        assert (telemetry / f"task-{run_id}.jsonl").exists()
        ids = SweepJournal(journal_path).run_ids()
        assert list(ids.values()) == [run_id]

        # a resumed executor serves the cell from the journal without
        # re-running it; the run_id mapping still ties the journaled
        # cell to its existing trace file
        resumed = ParallelSweepExecutor(
            journal=SweepJournal(journal_path)
        )
        results = resumed.run([task])
        assert len(results) == 1
        assert SweepJournal(journal_path).run_ids() == ids

    def test_telemetry_dir_does_not_change_digest(self):
        plain = SweepTask(
            app=small_app(),
            setup=ExperimentSetup(spec=crill(), repeats=1),
            strategy="default",
        )
        traced = SweepTask(
            app=small_app(),
            setup=ExperimentSetup(spec=crill(), repeats=1),
            strategy="default",
            telemetry_dir="/anywhere",
        )
        assert task_run_id(plain) == task_run_id(traced)

    def test_cell_telemetry_does_not_depend_on_the_memo(self, tmp_path):
        """The batched-evaluation memo is process-wide, so a cell run
        second in a process finds its records already computed; its
        JSONL must still match a cold run's byte for byte."""
        task = SweepTask(
            app=small_app(),
            setup=ExperimentSetup(spec=crill(), cap_w=85.0, repeats=1),
            strategy="arcs-offline",
        )
        name = f"task-{task_run_id(task)}.jsonl"
        batch.clear_memo()
        logs = []
        for run in ("cold", "warm"):
            out = tmp_path / run
            run_sweep_task(replace(task, telemetry_dir=str(out)))
            logs.append((out / name).read_bytes())
        assert b'"batch.prefetch"' in logs[0]
        assert logs[1] == logs[0]


# ---------------------------------------------------------------------------
# histogram percentile edge cases (property-based)
# ---------------------------------------------------------------------------
class TestHistogramPercentiles:
    def test_empty_histogram_returns_none(self):
        from repro.telemetry.metrics import HistogramStats

        hist = HistogramStats()
        assert hist.percentile(50) is None
        assert hist.percentile(99) is None

    def test_single_sample_is_every_percentile(self):
        from repro.telemetry.metrics import HistogramStats

        hist = HistogramStats()
        hist.observe(7.25)
        for p in (0, 1, 50, 95, 99, 100):
            assert hist.percentile(p) == 7.25

    def test_out_of_range_percentile_raises(self):
        from repro.telemetry.metrics import HistogramStats

        hist = HistogramStats()
        hist.observe(1.0)
        with pytest.raises(ValueError):
            hist.percentile(-0.1)
        with pytest.raises(ValueError):
            hist.percentile(100.1)

    def test_property_percentiles_across_sample_counts(self):
        """For every n in 0..200: never an index error, always a
        retained sample (or None when empty), monotone in p, and
        p0/p100 pin to min/max."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.telemetry.metrics import HistogramStats

        @settings(max_examples=60, deadline=None)
        @given(
            n=st.integers(min_value=0, max_value=200),
            p=st.floats(min_value=0.0, max_value=100.0),
            seed=st.integers(min_value=0, max_value=2**31),
        )
        def check(n, p, seed):
            import random

            rng = random.Random(seed)
            values = [rng.uniform(-50.0, 50.0) for _ in range(n)]
            hist = HistogramStats()
            for value in values:
                hist.observe(value)
            got = hist.percentile(p)
            if n == 0:
                assert got is None
                return
            assert got in values
            assert hist.percentile(0) == min(values)
            assert hist.percentile(100) == max(values)
            assert hist.percentile(0) <= got <= hist.percentile(100)
            # monotone in p
            assert got <= hist.percentile(min(100.0, p + 1.0))

        check()

    def test_metric_snapshot_carries_percentiles(self):
        registry = MetricsRegistry()
        for value in (1.0, 2.0, 3.0, 4.0):
            registry.observe("h", value)
        [record] = [
            r for r in registry.snapshot() if r["kind"] == "histogram"
        ]
        assert record["p50"] == 2.0
        assert record["p95"] == 4.0
        assert record["p99"] == 4.0


# ---------------------------------------------------------------------------
# sink flush at interpreter exit
# ---------------------------------------------------------------------------
class TestAtexitFlush:
    def test_tail_records_survive_exit_without_close(self, tmp_path):
        """A worker that dies right after its last event - without
        ever reaching bus.close() - must not lose the sub-batch tail:
        the atexit hook flushes every still-open sink."""
        import subprocess
        import sys

        out = tmp_path / "telemetry.jsonl"
        script = (
            "import sys\n"
            "from repro.telemetry.bus import TelemetryBus, install\n"
            "from repro.telemetry.sinks import JsonlSink\n"
            "tb = TelemetryBus(enabled=True)\n"
            f"tb.add_sink(JsonlSink({repr(str(out))}))\n"
            "install(tb)\n"
            "for i in range(5):\n"
            "    tb.emit('worker.event', index=i)\n"
            "sys.exit(0)  # no close(), no flush: 5 records pending\n"
        )
        env = dict(
            __import__("os").environ,
            PYTHONPATH=str(
                __import__("pathlib").Path(__file__).parent.parent
                / "src"
            ),
        )
        subprocess.run(
            [sys.executable, "-c", script],
            check=True,
            env=env,
            timeout=60,
        )
        records = read_jsonl(out)
        events = [r for r in records if r.get("type") == "event"]
        assert len(events) == 5
        assert events[-1]["attrs"]["index"] == 4  # the tail line

    def test_closed_sink_is_not_reflushed_at_exit(self, tmp_path):
        from repro.telemetry.sinks import _LIVE_SINKS

        sink = JsonlSink(tmp_path / "t.jsonl")
        assert sink in _LIVE_SINKS
        sink.close()
        assert sink not in _LIVE_SINKS
