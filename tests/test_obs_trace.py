"""Trace-context propagation: one end-to-end test per process/layer
boundary, asserting parent/child span linkage and stable trace ids
under the repro seed - including with ``service.*`` and ``fleet.*``
fault sites armed."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.experiments.journal import SweepJournal
from repro.experiments.parallel import (
    ParallelSweepExecutor,
    SweepTask,
    task_run_id,
)
from repro.experiments.runner import ExperimentSetup
from repro.faults.plan import FaultPlan, FaultSpec
from repro.machine.spec import crill
from repro.obs.trace import (
    TraceContext,
    build_trace_trees,
    child_context,
    render_trace_tree,
    root_context,
    traced_span,
)
from repro.service.client import ServiceClient
from repro.service.daemon import ThreadedDaemon
from repro.telemetry import (
    JsonlSink,
    TelemetryBus,
    bus,
    load_telemetry_dir,
    read_jsonl,
    telemetry_session,
)
from repro.workloads.synthetic import synthetic_application


def small_app():
    return synthetic_application(timesteps=8)


@pytest.fixture
def session(tmp_path):
    """An installed enabled bus with a rooted trace, as a CLI command
    opens one."""
    out = tmp_path / "tel"
    with telemetry_session(
        JsonlSink(out / "session.jsonl"),
        trace=root_context(command="test", seed=0),
        command="test",
        seed=0,
    ) as tb:
        yield tb, out


def spans_by_name(records, name):
    return [
        r
        for r in records
        if r.get("type") == "span" and r.get("name") == name
    ]


class TestTraceContext:
    def test_traceparent_round_trip(self):
        ctx = root_context(command="run", seed=3)
        parsed = TraceContext.from_traceparent(ctx.to_traceparent())
        assert parsed is not None
        assert parsed.trace_id == ctx.trace_id
        assert parsed.span_id == ctx.span_id

    def test_malformed_traceparent_is_none(self):
        for bad in (None, "", "garbage", "00-xyz-abc-01", 7):
            assert TraceContext.from_traceparent(bad) is None

    def test_root_context_is_deterministic(self):
        a = root_context(command="run", seed=3)
        b = root_context(seed=3, command="run")
        assert a == b  # identity is key-sorted, order-free

    def test_sibling_children_get_distinct_span_ids(self):
        tb = TelemetryBus(enabled=True)
        parent = root_context(command="x")
        a = child_context(tb, parent)
        b = child_context(tb, parent)
        assert a.trace_id == b.trace_id == parent.trace_id
        assert a.span_id != b.span_id
        assert a.parent_id == b.parent_id == parent.span_id


class TestCliToRunnerBoundary:
    def _run(self, out, seed=3):
        code = main(
            [
                "run", "--app", "synthetic", "--strategy",
                "arcs-online", "--repeats", "1", "--seed", str(seed),
                "--telemetry", str(out),
            ]
        )
        assert code == 0
        return load_telemetry_dir(out)

    def test_runner_spans_chain_to_session_root(self, tmp_path, capsys):
        loaded = self._run(tmp_path / "tel")
        trees = build_trace_trees(loaded)
        assert len(trees) == 1  # one CLI invocation, one trace
        (tree,) = trees.values()
        roots = tree["roots"]
        assert len(roots) == 1
        root = tree["nodes"][roots[0]]
        # the synthesized session node is labeled from the stamped meta
        assert root["name"] == "session:run"
        child_names = {
            tree["nodes"][c]["name"] for c in root["children"]
        }
        assert "run.strategy" in child_names
        strategy = next(
            tree["nodes"][c]
            for c in root["children"]
            if tree["nodes"][c]["name"] == "run.strategy"
        )
        grandchildren = {
            tree["nodes"][c]["name"] for c in strategy["children"]
        }
        assert "run.repeat" in grandchildren

    def test_trace_ids_stable_under_seed(self, tmp_path, capsys):
        a = self._run(tmp_path / "a")
        b = self._run(tmp_path / "b")
        assert set(build_trace_trees(a)) == set(build_trace_trees(b))

    def test_render_tree_cli(self, tmp_path, capsys):
        self._run(tmp_path / "tel")
        capsys.readouterr()
        assert main(["trace", str(tmp_path / "tel"), "--tree"]) == 0
        text = capsys.readouterr().out
        assert "session:run" in text
        assert "run.strategy" in text


class TestClientDaemonBoundary:
    def _exchange(self, tmp_path, fault_plan=None):
        """One get through a real daemon sharing the in-process bus;
        returns (client span record, serve span records, response)."""
        with ThreadedDaemon(
            tmp_path / "store", fault_plan=fault_plan
        ) as td:
            client = ServiceClient(td.address)
            client.put("some-key", {"payload": 1})
            with traced_span("test.op"):
                payload = client.get("some-key")
        assert payload == {"payload": 1}

    def test_serve_span_is_child_of_client_request(
        self, session, tmp_path
    ):
        tb, out = session
        self._exchange(tmp_path)
        tb.close()
        records = read_jsonl(out / "session.jsonl")
        [request] = [
            s
            for s in spans_by_name(records, "service.request")
            if s["attrs"].get("op") == "get"
        ]
        serves = [
            s
            for s in spans_by_name(records, "service.serve")
            if s["attrs"].get("op") == "get"
        ]
        assert serves, "daemon never recorded a serve span"
        req_trace = request["trace"]
        for serve in serves:
            assert serve["trace"]["trace_id"] == req_trace["trace_id"]
            assert serve["trace"]["parent_id"] == req_trace["span_id"]

    def test_linkage_survives_service_faults(self, session, tmp_path):
        tb, out = session
        faults = FaultPlan(
            specs=(
                FaultSpec(
                    "service.response", "hang", probability=0.4
                ),
                FaultSpec("service.payload", "torn", probability=0.3),
            ),
            seed=1789,
        )
        self._exchange(tmp_path, fault_plan=faults)
        tb.close()
        records = read_jsonl(out / "session.jsonl")
        [request] = [
            s
            for s in spans_by_name(records, "service.request")
            if s["attrs"].get("op") == "get"
        ]
        serves = [
            s
            for s in spans_by_name(records, "service.serve")
            if s["attrs"].get("op") == "get"
        ]
        # retries may produce several serve spans; every one is a
        # child of the SAME client request span
        assert serves
        for serve in serves:
            assert (
                serve["trace"]["parent_id"]
                == request["trace"]["span_id"]
            )

    def test_daemon_root_is_labelled_from_its_meta(self, tmp_path):
        """The daemon's meta record carries its trace root, so the
        stitcher labels that root ``session:serve``, not external."""
        tel = tmp_path / "tel"
        with ThreadedDaemon(tmp_path / "store", telemetry_dir=tel) as td:
            client = ServiceClient(td.address)
            client.put("some-key", {"payload": 1})
            client.get("some-key")
        [meta] = [
            r for r in read_jsonl(tel / "daemon.jsonl")
            if r["type"] == "meta"
        ]
        assert "trace" in meta
        tree = render_trace_tree(load_telemetry_dir(tel))
        assert "  - session:serve <daemon>" in tree
        assert "(external)" not in tree

    def test_response_carries_daemon_span(self, session, tmp_path):
        tb, out = session
        with ThreadedDaemon(tmp_path / "store") as td:
            client = ServiceClient(td.address)
            with traced_span("test.op"):
                response = client.ping()
        parsed = TraceContext.from_traceparent(response.get("trace"))
        assert parsed is not None
        assert parsed.trace_id == tb.trace.trace_id


class TestFleetBoundary:
    def _run_fleet(self, out, faults=None):
        argv = [
            "fleet", "run", "--nodes", "3", "--max-steps", "12",
            "--telemetry", str(out),
        ]
        if faults is not None:
            argv += ["--faults", faults]
        assert main(argv) == 0
        return read_jsonl(out / "fleet.jsonl")

    def test_tune_spans_nest_under_steps(self, tmp_path, capsys):
        records = self._run_fleet(tmp_path / "tel")
        steps = spans_by_name(records, "fleet.step")
        tunes = spans_by_name(records, "fleet.tune")
        assert steps and tunes
        step_ids = {s["trace"]["span_id"] for s in steps}
        trace_ids = {s["trace"]["trace_id"] for s in steps}
        assert len(trace_ids) == 1  # one invocation, one trace
        for tune in tunes:
            assert tune["trace"]["trace_id"] in trace_ids
            assert tune["trace"]["parent_id"] in step_ids

    def test_nesting_survives_fleet_faults(self, tmp_path, capsys):
        import json

        plan = {
            "seed": 11,
            "faults": [
                {"site": "fleet.node", "action": "crash",
                 "start": 2, "max_fires": 1},
                {"site": "fleet.telemetry", "action": "partition",
                 "start": 4, "max_fires": 1},
                {"site": "fleet.cap_write", "action": "reject",
                 "probability": 0.3},
            ],
        }
        path = tmp_path / "faults.json"
        path.write_text(json.dumps(plan))
        records = self._run_fleet(tmp_path / "tel", faults=str(path))
        steps = spans_by_name(records, "fleet.step")
        step_ids = {s["trace"]["span_id"] for s in steps}
        tunes = spans_by_name(records, "fleet.tune")
        assert tunes
        for tune in tunes:
            assert tune["trace"]["parent_id"] in step_ids

    def test_fleet_heartbeat_and_budget_events(self, tmp_path, capsys):
        records = self._run_fleet(tmp_path / "tel")
        names = {r.get("name") for r in records}
        assert "fleet.heartbeat" in names
        assert "fleet.budget_w" in names


class TestSweepWorkerBoundary:
    def _task(self, telemetry, trace=None):
        return SweepTask(
            app=small_app(),
            setup=ExperimentSetup(spec=crill(), repeats=1),
            strategy="default",
            telemetry_dir=str(telemetry), trace=trace,
        )

    def test_worker_adopts_parent_handoff(self, session, tmp_path):
        tb, out = session
        parent_trace_id = tb.trace.trace_id
        telemetry = tmp_path / "tel"
        executor = ParallelSweepExecutor()
        executor.run([self._task(telemetry)])
        tb.close()
        task = self._task(telemetry)
        records = read_jsonl(
            telemetry / f"task-{task_run_id(task)}.jsonl"
        )
        [strategy] = spans_by_name(records, "run.strategy")
        # the worker's spans join the parent sweep's trace
        assert strategy["trace"]["trace_id"] == parent_trace_id

    def test_trace_is_not_part_of_the_digest(self, tmp_path):
        plain = self._task(tmp_path / "a")
        handed = self._task(
            tmp_path / "a",
            trace=root_context(x=1).to_traceparent(),
        )
        assert task_run_id(plain) == task_run_id(handed)

    def test_journal_resume_reannounces_original_trace(
        self, session, tmp_path
    ):
        tb, out = session
        telemetry = tmp_path / "tel"
        journal_path = tmp_path / "sweep.journal"
        executor = ParallelSweepExecutor(
            journal=SweepJournal(journal_path)
        )
        executor.run([self._task(telemetry)])
        traces = SweepJournal(journal_path).traceparents()
        assert len(traces) == 1
        (original,) = traces.values()
        assert original.startswith("00-")
        assert (
            TraceContext.from_traceparent(original).trace_id
            == tb.trace.trace_id
        )

        resumed = ParallelSweepExecutor(
            journal=SweepJournal(journal_path)
        )
        results = resumed.run([self._task(telemetry)])
        assert len(results) == 1
        tb.close()
        records = read_jsonl(out / "session.jsonl")
        reuses = [
            r
            for r in records
            if r.get("name") == "sweep.task_reused"
        ]
        assert reuses
        assert reuses[-1]["attrs"]["trace_handoff"] == original


class TestCrossProcessSweep:
    def test_process_pool_workers_join_the_trace(
        self, session, tmp_path
    ):
        """Worker *processes* (not threads) adopt the handed-off
        context: the stitched tree spans os-level process
        boundaries."""
        tb, out = session
        telemetry = tmp_path / "tel"
        tasks = [
            SweepTask(
                app=small_app(),
                setup=ExperimentSetup(spec=crill(), repeats=1),
                strategy=strategy,
                telemetry_dir=str(telemetry),
            )
            for strategy in ("default", "arcs-online")
        ]
        ParallelSweepExecutor(max_workers=2).run(tasks)
        tb.close()
        loaded = load_telemetry_dir(telemetry)
        loaded.append(
            ("session", read_jsonl(out / "session.jsonl"))
        )
        trees = build_trace_trees(loaded)
        assert len(trees) == 1
        text = render_trace_tree(loaded)
        assert "run.strategy" in text
