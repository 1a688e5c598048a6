"""Tests for the fault-tolerant fleet simulation.

The heart of this file is the budget-invariant property test: under
*any* seeded fleet-tier fault plan - crashes, hangs, dropped and
partitioned heartbeats, rejected cap writes, flapping membership, and
the deaths / reclamations / quarantines they trigger - the accounted
fleet power must never exceed the global cap at any step.  Around it
sit deterministic unit tests for each fleet layer (plan, membership,
allocator, journal), the chaos/resume contract, the CLI surface and
the analysis converters.
"""

from __future__ import annotations

import json
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.records import (
    RecordTable,
    capsched_timeline_records,
    fleet_survival_records,
)
from repro.cli import build_parser, main
from repro.faults.plan import FaultPlan, FaultSpec
from repro.fleet import (
    BudgetAllocator,
    BudgetInvariantError,
    FleetJournal,
    FleetNodeSpec,
    FleetPlan,
    FleetPlanError,
    FleetSimulation,
    MembershipTracker,
    fleet_plan_fingerprint,
    fleet_result_to_json,
    load_fleet_plan,
    render_fleet,
    save_fleet_plan,
    synthesize_fleet,
)
from repro.fleet.allocator import NodeBudgetInfo
from repro.fleet.events import (
    DEGRADATION_KINDS,
    FAULT_DEGRADATIONS,
    FleetEvent,
)
from repro.telemetry.bus import telemetry_session

_EPS = 1e-6

#: every valid fleet-tier (site, action) pair.
_FLEET_FAULTS = sorted(FAULT_DEGRADATIONS)


def _result_json(result) -> str:
    return json.dumps(fleet_result_to_json(result), sort_keys=True)


# ---------------------------------------------------------------------------
# shared runs (module-scoped: the simulations are the expensive part)
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def crash_faults() -> FaultPlan:
    return FaultPlan(
        specs=(
            FaultSpec("fleet.node", "crash", start=3, max_fires=1),
            FaultSpec("fleet.telemetry", "drop", start=6, max_fires=2),
        ),
        seed=2,
    )


@pytest.fixture(scope="module")
def crash_run(tmp_path_factory, crash_faults):
    """One journaled 4-node run that loses a node to a crash."""
    plan = synthesize_fleet(4, seed=1, max_steps=80)
    journal = FleetJournal(
        tmp_path_factory.mktemp("fleet") / "fleet.jsonl"
    )
    result = FleetSimulation(
        plan, crash_faults, journal=journal
    ).run()
    return plan, journal, result


# ---------------------------------------------------------------------------
# the budget invariant, under any seeded fault plan
# ---------------------------------------------------------------------------
@st.composite
def fleet_fault_plans(draw) -> FaultPlan:
    pairs = draw(
        st.lists(
            st.sampled_from(_FLEET_FAULTS), min_size=0, max_size=4
        )
    )
    specs = tuple(
        FaultSpec(
            site=site,
            action=action,
            probability=draw(st.sampled_from([0.5, 1.0])),
            start=draw(st.integers(min_value=0, max_value=10)),
            max_fires=draw(st.sampled_from([1, 2, 3])),
        )
        for site, action in pairs
    )
    return FaultPlan(
        specs=specs, seed=draw(st.integers(min_value=0, max_value=5))
    )


class TestBudgetInvariantProperty:
    @settings(max_examples=8, deadline=None)
    @given(
        plan_seed=st.integers(min_value=0, max_value=3),
        n_nodes=st.integers(min_value=2, max_value=4),
        faults=fleet_fault_plans(),
    )
    def test_invariant_holds_every_step_under_any_faults(
        self, plan_seed, n_nodes, faults
    ):
        """The simulation checks the invariant itself each step
        (raising BudgetInvariantError on violation); the budget series
        is the per-step record of the accounted power, so both must
        agree that the cap was never exceeded - including through node
        death, power reclamation and quarantine."""
        plan = synthesize_fleet(
            n_nodes, seed=plan_seed, max_steps=14
        )
        result = FleetSimulation(plan, faults).run()
        assert len(result.budget_series) == result.steps
        for total in result.budget_series:
            assert total <= plan.global_cap_w + _EPS
        assert result.started == (
            result.completed + result.crashed + result.unfinished
        )
        assert 0.0 <= result.survival_rate <= 1.0
        for event in result.events:
            assert event.kind in DEGRADATION_KINDS or not (
                event.degradation
            )


# ---------------------------------------------------------------------------
# chaos: graceful degradation and crash-safe resume
# ---------------------------------------------------------------------------
class TestChaos:
    def test_survivors_complete_after_a_crash(self, crash_run):
        plan, _journal, result = crash_run
        assert result.crashed == 1
        assert result.survival_rate == pytest.approx(0.75)
        survivors = [
            n for n in result.nodes if n["status"] != "crashed"
        ]
        assert survivors and all(
            n["status"] == "done" for n in survivors
        )
        kinds = {e.kind for e in result.events}
        # the crash surfaced as its typed degradation, the failure
        # detector declared the death, and the share was reclaimed
        assert "node_crashed" in kinds
        assert "node_dead" in kinds
        assert "telemetry_drop" in kinds
        assert result.reaction_latencies
        for _node, latency in result.reaction_latencies:
            assert latency >= 1

    def test_every_degradation_is_typed(self, crash_run):
        _plan, _journal, result = crash_run
        for event in result.degradations():
            assert event.kind in DEGRADATION_KINDS

    def test_resume_is_byte_identical(
        self, tmp_path, crash_run, crash_faults
    ):
        plan, _journal, reference = crash_run
        for kill_at in (1, 6):
            journal = FleetJournal(tmp_path / f"kill{kill_at}.jsonl")
            FleetSimulation(
                plan, crash_faults, journal=journal,
                stop_after=kill_at,
            ).run()
            resumed = FleetSimulation(
                plan, crash_faults, journal=journal
            ).run()
            assert _result_json(resumed) == _result_json(reference)

    def test_resume_survives_a_torn_tail(
        self, tmp_path, crash_run, crash_faults
    ):
        plan, _journal, reference = crash_run
        journal = FleetJournal(tmp_path / "torn.jsonl")
        FleetSimulation(
            plan, crash_faults, journal=journal, stop_after=4
        ).run()
        with open(journal.path, "a", encoding="utf-8") as fh:
            fh.write('{"schema":1,"step":99,"sta')  # torn mid-write
        resumed = FleetSimulation(
            plan, crash_faults, journal=journal
        ).run()
        assert _result_json(resumed) == _result_json(reference)

    def test_foreign_journal_runs_clean(
        self, tmp_path, crash_run, crash_faults
    ):
        """Another fleet over a journal holding the reference run's
        snapshots restores none of them: it runs clean, byte-identical
        to a fresh run, and the reference run still replays."""
        plan, journal, reference = crash_run
        shared = FleetJournal(tmp_path / "shared.jsonl")
        shutil.copy(journal.path, shared.path)
        other = synthesize_fleet(4, seed=99, max_steps=80)
        fresh = FleetSimulation(
            other, crash_faults,
            journal=FleetJournal(tmp_path / "fresh.jsonl"),
        ).run()
        foreign = FleetSimulation(
            other, crash_faults, journal=shared
        ).run()
        assert _result_json(foreign) == _result_json(fresh)
        replayed = FleetSimulation(
            plan, crash_faults, journal=shared
        ).run()
        assert _result_json(replayed) == _result_json(reference)

    def test_stop_after_must_be_non_negative(self):
        plan = synthesize_fleet(2)
        with pytest.raises(ValueError, match="stop_after"):
            FleetSimulation(plan, stop_after=-1)
        # the fleet tunes serially: only a width of 1 is accepted
        FleetSimulation(plan, concurrency=1)
        with pytest.raises(ValueError, match="serially"):
            FleetSimulation(plan, concurrency=2)

    def test_traced_run_matches_untraced(
        self, tmp_path, crash_run, crash_faults
    ):
        """With the telemetry bus enabled the faulted fleet takes the
        same serial tuning path, so its result is byte-identical to
        the untraced run's."""
        plan, _journal, untraced = crash_run
        with telemetry_session():
            traced = FleetSimulation(
                plan,
                crash_faults,
                journal=FleetJournal(tmp_path / "traced.jsonl"),
            ).run()
        assert _result_json(traced) == _result_json(untraced)


class TestCleanRun:
    def test_all_nodes_complete_under_budget(self):
        plan = synthesize_fleet(3, seed=0, max_steps=60)
        result = FleetSimulation(plan).run()
        assert result.completed == result.started == 3
        assert result.crashed == 0
        assert result.survival_rate == 1.0
        assert result.peak_budget_w <= plan.global_cap_w + _EPS
        kinds = [e.kind for e in result.events]
        assert kinds.count("node_started") == 3
        assert kinds.count("node_done") == 3
        assert render_fleet(result).startswith("Fleet of 3 nodes")


# ---------------------------------------------------------------------------
# plan layer
# ---------------------------------------------------------------------------
class TestFleetPlan:
    def test_duplicate_node_ids_rejected(self):
        node = FleetNodeSpec(node_id="a")
        with pytest.raises(FleetPlanError, match="duplicate"):
            FleetPlan(nodes=(node, node), global_cap_w=100.0)

    def test_dead_after_must_exceed_suspect_after(self):
        with pytest.raises(FleetPlanError, match="dead_after"):
            FleetPlan(
                nodes=(FleetNodeSpec(node_id="a"),),
                global_cap_w=100.0,
                suspect_after=4,
                dead_after=4,
            )

    def test_unknown_machine_rejected(self):
        with pytest.raises(FleetPlanError, match="machine"):
            FleetNodeSpec(node_id="a", machine="cray-1")

    def test_min_cap_quantizes_up(self):
        plan = synthesize_fleet(2, quantum_w=10.0)
        spec = plan.nodes[0].spec  # crill: 115 W TDP, 0.5 fraction
        assert plan.min_cap_w(spec) == 60.0  # ceil(57.5 / 10) * 10

    def test_synthesized_roster_mixes_machines(self):
        plan = synthesize_fleet(8)
        machines = [n.machine for n in plan.nodes]
        assert machines.count("minotaur") == 2  # every 4th node
        assert plan.global_cap_w < sum(
            n.spec.tdp_w for n in plan.nodes
        )

    def test_plan_round_trips_with_stable_fingerprint(self, tmp_path):
        plan = synthesize_fleet(3, seed=5, max_steps=33)
        path = tmp_path / "plan.json"
        save_fleet_plan(plan, path)
        loaded = load_fleet_plan(path)
        assert loaded == plan
        assert fleet_plan_fingerprint(loaded) == fleet_plan_fingerprint(
            plan
        )

    def test_load_rejects_unknown_fields(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(
            '{"global_cap_w": 100, "nodes": [], "warp_factor": 9}'
        )
        with pytest.raises(FleetPlanError, match="warp_factor"):
            load_fleet_plan(path)


# ---------------------------------------------------------------------------
# membership layer
# ---------------------------------------------------------------------------
@pytest.fixture
def tracker():
    # suspect_after=2, dead_after=4, flap_window=8, flap_threshold=3,
    # quarantine_steps=6 (the plan defaults)
    return MembershipTracker(synthesize_fleet(2))


class TestMembership:
    def test_silence_escalates_suspect_then_dead(self, tracker):
        tracker.admit("a", 0)
        assert tracker.observe(1, set()) == []
        events = tracker.observe(2, set())
        assert [e.kind for e in events] == ["node_suspect"]
        assert tracker.state("a") == "suspect"
        assert "a" in tracker.live()  # keeps its allocation
        assert tracker.observe(3, set()) == []
        events = tracker.observe(4, set())
        assert [e.kind for e in events] == ["node_dead"]
        assert tracker.state("a") == "dead"
        assert "a" not in tracker.live()

    def test_dead_node_revives_on_heartbeat(self, tracker):
        tracker.admit("a", 0)
        for step in range(1, 5):
            tracker.observe(step, set())
        assert tracker.state("a") == "dead"
        events = tracker.observe(5, {"a"})
        assert [e.kind for e in events] == ["node_revived"]
        assert tracker.state("a") == "alive"

    def test_flapping_node_is_quarantined_with_hysteresis(
        self, tracker
    ):
        tracker.admit("a", 0)
        tracker.observe(2, set())       # flip 1: suspect
        tracker.observe(3, {"a"})       # flip 2: back alive
        tracker.observe(5, set())       # flip 3: suspect again
        events = tracker.observe(6, {"a"})  # 4th flip inside window
        assert [e.kind for e in events] == ["node_quarantined"]
        assert tracker.state("a") == "quarantined"
        assert "a" not in tracker.live()
        # hysteresis: heartbeats during quarantine do not readmit
        assert tracker.observe(8, {"a"}) == []
        assert tracker.state("a") == "quarantined"
        # expiry: re-admitted, flap history cleared
        events = tracker.observe(12, {"a"})
        assert [e.kind for e in events] == ["quarantine_lifted"]
        assert tracker.state("a") == "alive"

    def test_snapshot_round_trip(self, tracker):
        tracker.admit("a", 0)
        tracker.admit("b", 1)
        tracker.observe(3, {"b"})
        blob = json.loads(json.dumps(tracker.snapshot()))
        fresh = MembershipTracker(synthesize_fleet(2))
        fresh.restore(blob)
        assert fresh.snapshot() == tracker.snapshot()
        assert fresh.state("a") == "suspect"


# ---------------------------------------------------------------------------
# allocator layer
# ---------------------------------------------------------------------------
def _crill_plan(n: int, cap: float, **knobs) -> FleetPlan:
    nodes = tuple(
        FleetNodeSpec(node_id=f"n{i}") for i in range(n)
    )
    return FleetPlan(nodes=nodes, global_cap_w=cap, **knobs)


def _infos(plan: FleetPlan) -> list[NodeBudgetInfo]:
    return [
        NodeBudgetInfo(
            node_id=n.node_id,
            cappable=n.spec.supports_power_cap,
            tdp_w=n.spec.tdp_w,
            min_cap_w=plan.min_cap_w(n.spec),
        )
        for n in plan.nodes
    ]


class TestAllocator:
    def test_floors_guaranteed_and_quantized(self):
        plan = _crill_plan(3, 200.0)
        allocator = BudgetAllocator(plan)
        targets, _events = allocator.allocate(
            1, _infos(plan), {}, fresh_reports=3
        )
        # crill floor is 60 W; pool 200 leaves 20 W headroom shared 3
        # ways, quantized down to the 5 W grid
        assert targets == {"n0": 65.0, "n1": 65.0, "n2": 65.0}
        for cap in targets.values():
            assert cap % plan.quantum_w == 0
            assert cap >= 60.0

    def test_budget_parks_newest_when_floors_exceed_pool(self):
        plan = _crill_plan(3, 130.0)  # floors sum to 180 W
        allocator = BudgetAllocator(plan)
        targets, events = allocator.allocate(
            1, _infos(plan), {}, fresh_reports=3
        )
        assert set(targets) == {"n0", "n1"}
        parked = [
            e.node for e in events if e.kind == "node_parked"
        ]
        assert parked == ["n2"]  # newest first
        assert allocator.is_parked("n2", 1)
        assert not allocator.is_parked("n2", 2)  # one-round park

    def test_uncappable_tdp_comes_off_the_top(self):
        nodes = (
            FleetNodeSpec(node_id="cap0"),
            FleetNodeSpec(node_id="fix0", machine="minotaur"),
        )
        plan = FleetPlan(nodes=nodes, global_cap_w=280.0)
        allocator = BudgetAllocator(plan)
        infos = _infos(plan)
        targets, _events = allocator.allocate(
            1, infos, {}, fresh_reports=2
        )
        # minotaur draws its fixed 190 W; the crill node gets what is
        # left (90 W, floor 60 W respected)
        assert set(targets) == {"cap0"}
        assert targets["cap0"] == 90.0
        allocator.note_applied("cap0", targets["cap0"], 1)
        assert allocator.accounted_power(1, infos) == 280.0
        allocator.check_invariant(1, infos)  # exactly at the cap: ok

    def test_hysteresis_defers_then_coalesces(self):
        plan = _crill_plan(2, 200.0, hysteresis_steps=3)
        allocator = BudgetAllocator(plan)
        allocator.note_applied("n0", 70.0, 1)
        allocator.note_applied("n1", 70.0, 1)
        # a shifted utilization wants a different split immediately...
        targets, _events = allocator.allocate(
            2, _infos(plan), {"n0": 0.3, "n1": 1.0}, fresh_reports=2
        )
        # ...but step 2 is too soon after step 1: both held
        assert targets == {"n0": 70.0, "n1": 70.0}
        assert allocator.pending  # the deferred targets, coalesced
        later, _events = allocator.allocate(
            4, _infos(plan), {"n0": 0.3, "n1": 1.0}, fresh_reports=2
        )
        assert later != targets  # hysteresis window over: applied

    def test_hysteresis_never_overshoots_the_pool(self):
        plan = _crill_plan(2, 140.0, hysteresis_steps=5)
        allocator = BudgetAllocator(plan)
        # stale caps worth 150 W against a 140 W pool
        allocator.note_applied("n0", 75.0, 1)
        allocator.note_applied("n1", 75.0, 1)
        targets, _events = allocator.allocate(
            2, _infos(plan), {}, fresh_reports=2
        )
        assert sum(targets.values()) <= 140.0 + _EPS

    def test_blackout_holds_last_known_good_once(self):
        plan = _crill_plan(2, 200.0)
        allocator = BudgetAllocator(plan)
        infos = _infos(plan)
        first, _ = allocator.allocate(1, infos, {}, fresh_reports=2)
        for node_id, cap in first.items():
            allocator.note_applied(node_id, cap, 1)
        held, events = allocator.allocate(
            2, infos, {}, fresh_reports=0
        )
        assert held == first
        assert [e.kind for e in events] == ["allocation_held"]
        _again, events = allocator.allocate(
            3, infos, {}, fresh_reports=0
        )
        assert events == []  # the hold is reported once, not spammed

    def test_blackout_hold_yields_when_roster_outgrows_it(self):
        # regression: found by the budget-invariant property test.
        # An un-cappable node admitted *during* a blackout never
        # needed an applied cap, so the "all active nodes known"
        # hold condition passed - but its fixed TDP draw is real,
        # and holding the stale caps overshot the global cap.
        nodes = (
            FleetNodeSpec(node_id="n0"),
            FleetNodeSpec(node_id="n1"),
            FleetNodeSpec(node_id="fix", machine="minotaur"),
        )
        plan = FleetPlan(nodes=nodes, global_cap_w=402.0)
        allocator = BudgetAllocator(plan)
        infos = _infos(plan)
        first, _events = allocator.allocate(
            1, infos[:2], {}, fresh_reports=2
        )
        assert sum(first.values()) == 230.0  # the whole crill TDP
        for node_id, cap in first.items():
            allocator.note_applied(node_id, cap, 1)
        # blackout + the minotaur joins: 230 held + 190 fixed > 402,
        # so the hold must yield to a full reallocation
        targets, events = allocator.allocate(
            2, infos, {}, fresh_reports=0
        )
        assert "allocation_held" not in [e.kind for e in events]
        for node_id, cap in targets.items():
            allocator.note_applied(node_id, cap, 2)
        assert allocator.check_invariant(2, infos) <= 402.0 + _EPS

    def test_invariant_violation_raises(self):
        plan = _crill_plan(2, 100.0)
        allocator = BudgetAllocator(plan)
        allocator.note_applied("n0", 80.0, 1)
        allocator.note_applied("n1", 80.0, 1)
        with pytest.raises(BudgetInvariantError, match="exceeds"):
            allocator.check_invariant(1, _infos(plan))

    def test_snapshot_round_trip(self):
        plan = _crill_plan(2, 200.0)
        allocator = BudgetAllocator(plan)
        allocator.allocate(1, _infos(plan), {}, fresh_reports=2)
        allocator.note_applied("n0", 65.0, 1)
        allocator.park("n1", 1, 2)
        blob = json.loads(json.dumps(allocator.snapshot()))
        fresh = BudgetAllocator(plan)
        fresh.restore(blob)
        assert fresh.snapshot() == allocator.snapshot()


# ---------------------------------------------------------------------------
# journal layer
# ---------------------------------------------------------------------------
class TestFleetJournal:
    def test_missing_file_has_no_snapshot(self, tmp_path):
        journal = FleetJournal(tmp_path / "nope.jsonl")
        assert journal.load_last_snapshot("abc") is None

    def test_torn_tail_is_truncated_away(self, tmp_path):
        journal = FleetJournal(tmp_path / "fleet.jsonl")
        journal.append_snapshot("abc", 1, {"cells": {}})
        journal.append_snapshot("abc", 2, {"cells": {"x": 1}})
        with open(journal.path, "a", encoding="utf-8") as fh:
            fh.write('{"schema":1,"step":3,"st')
        step, state = journal.load_last_snapshot("abc")
        assert step == 2
        assert state == {"cells": {"x": 1}}
        # the torn bytes are gone: appends land on an intact prefix
        assert not journal.path.read_text().rstrip().endswith('"st')

    def test_snapshots_are_keyed_by_digest(self, tmp_path):
        journal = FleetJournal(tmp_path / "fleet.jsonl")
        journal.append_snapshot("abc", 1, {"run": "abc"})
        journal.append_snapshot("def", 1, {"run": "def"})
        journal.append_snapshot("abc", 2, {"run": "abc"})
        assert journal.load_last_snapshot("abc") == (2, {"run": "abc"})
        assert journal.load_last_snapshot("def") == (1, {"run": "def"})
        assert journal.load_last_snapshot("ghi") is None


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------
class TestFleetCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["fleet", "run"])
        assert args.command == "fleet"
        assert args.fleet_command == "run"
        assert args.nodes == 8
        assert args.global_cap is None
        assert args.journal is None

    def test_bad_plan_path_is_friendly(self):
        with pytest.raises(SystemExit, match="fleet plan"):
            main(["fleet", "run", "--plan", "/nonexistent/plan.json"])

    def test_bad_faults_path_is_friendly(self):
        with pytest.raises(SystemExit, match="fault plan"):
            main(
                ["fleet", "run", "--faults", "/nonexistent/f.json"]
            )

    def test_tiny_fleet_runs_end_to_end(self, tmp_path, capsys):
        plan = synthesize_fleet(2, seed=0, max_steps=40)
        path = tmp_path / "plan.json"
        save_fleet_plan(plan, path)
        main(["fleet", "run", "--plan", str(path)])
        out = capsys.readouterr().out
        assert "Fleet of 2 nodes" in out
        assert "survival rate" in out


# ---------------------------------------------------------------------------
# analysis converters
# ---------------------------------------------------------------------------
class TestFleetRecords:
    def test_survival_rows_from_result_json(self, crash_run):
        _plan, _journal, result = crash_run
        rows = fleet_survival_records(fleet_result_to_json(result))
        table = RecordTable(rows)
        assert table.columns == (
            "kind", "events", "nodes_affected", "nodes_survived",
            "survival_rate",
        )
        overall = rows[-1]
        assert overall["kind"] == "fleet"
        assert overall["survival_rate"] == pytest.approx(
            result.survival_rate
        )
        crashed = next(r for r in rows if r["kind"] == "node_crashed")
        assert crashed["nodes_survived"] == 0

    def test_journal_and_result_agree(self, crash_run):
        _plan, journal, result = crash_run
        from_journal = fleet_survival_records(journal.path)
        from_result = fleet_survival_records(
            fleet_result_to_json(result)
        )
        assert from_journal == from_result

    def test_empty_journal_yields_no_rows(self, tmp_path):
        assert fleet_survival_records(tmp_path / "nope.jsonl") == []

    def test_capsched_timeline_rows(self, tmp_path):
        records = [
            {"type": "event", "name": "cap.change", "seq": 4,
             "ts": 0.0, "attrs": {"invocation": 6, "cap_from": "115W",
                                  "cap_to": "85W"}},
            {"type": "event", "name": "other.event", "seq": 5,
             "ts": 0.0, "attrs": {}},
            {"type": "event", "name": "cap.change_rejected", "seq": 9,
             "ts": 0.0, "attrs": {"invocation": 14,
                                  "cap_from": "85W",
                                  "cap_to": "70W"}},
        ]
        path = tmp_path / "telemetry.jsonl"
        path.write_text(
            "".join(json.dumps(r) + "\n" for r in records)
        )
        rows = capsched_timeline_records(tmp_path)
        RecordTable(rows)
        assert [r["invocation"] for r in rows] == [6, 14]
        assert [r["applied"] for r in rows] == [True, False]
        assert rows[0]["cap_to"] == "85W"


class TestFleetEvents:
    def test_event_round_trip(self):
        event = FleetEvent(3, "node_dead", "n1", "details")
        assert FleetEvent.from_json(event.to_json()) == event
        assert event.degradation

    def test_every_fault_maps_to_a_degradation_kind(self):
        for kind in FAULT_DEGRADATIONS.values():
            assert kind in DEGRADATION_KINDS
