"""The fleet simulation loop: N ARCS nodes under one global budget.

One :class:`FleetSimulation` step is one heartbeat interval of the
cluster.  In strict, deterministic order it:

1. admits staggered nodes into the membership;
2. polls the ``fleet.node`` fault site per active node (crash / hang);
3. asks the :class:`~repro.fleet.allocator.BudgetAllocator` for this
   step's per-node caps (from live membership + last-known telemetry)
   and applies them - each cap write retried via
   :class:`~repro.util.retry.RetryPolicy` against injected
   ``fleet.cap_write`` rejections, with a node whose write cannot land
   power-gated ("parked") rather than left violating the budget;
4. checks the budget invariant and records the accounted power;
5. advances node-cells: cells needing a (re-)tune at their new cap
   level run ARCS locally, one node at a time (same-spec nodes at the
   same quantized cap share work through the process-wide evaluation
   memo), everyone else makes workload progress;
6. collects heartbeat reports, losing them to ``fleet.telemetry``
   (drop / partition) and ``fleet.membership`` (flap) faults;
7. feeds the delivered heartbeats to the
   :class:`~repro.fleet.membership.MembershipTracker` and records
   allocator reaction latency for every declared death.

Everything observable - every fault consequence, membership
transition, budget action - is a typed
:class:`~repro.fleet.events.FleetEvent` (mirrored onto the telemetry
bus when enabled), and after every step the full fleet state is
journaled durably so a killed run resumes byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.serialize import context_digest
from repro.faults.inject import FaultInjector, make_injector
from repro.faults.plan import (
    DEFAULT_FLEET_FLAP_STEPS,
    DEFAULT_FLEET_HANG_STEPS,
    DEFAULT_FLEET_PARTITION_STEPS,
    FaultPlan,
    plan_fingerprint,
)
from repro.fleet.allocator import BudgetAllocator, NodeBudgetInfo
from repro.fleet.events import FleetEvent
from repro.fleet.journal import FLEET_JOURNAL_SCHEMA, FleetJournal
from repro.fleet.membership import (
    DEAD,
    QUARANTINED,
    MembershipTracker,
)
from repro.fleet.node import TERMINAL, NodeCell
from repro.fleet.plan import FleetPlan, fleet_plan_fingerprint
from repro.obs.trace import traced_span
from repro.telemetry.bus import bus
from repro.util.retry import RetryPolicy
from repro.util.tables import format_table

#: attempts per fleet cap write before power-gating the node.
_FLEET_CAP_WRITE_RETRY = RetryPolicy(attempts=3)


class _FleetCapWriteRejected(RuntimeError):
    """Internal: an injected ``fleet.cap_write``/``reject`` firing."""


@dataclass
class FleetResult:
    """Summary of one fleet run (JSON-stable via
    :func:`fleet_result_to_json`)."""

    plan_fingerprint: str
    faults_fingerprint: str | None
    seed: int
    global_cap_w: float
    steps: int
    nodes: list[dict]
    events: list[FleetEvent]
    budget_series: list[float]
    reaction_latencies: list[list]
    started: int
    completed: int
    crashed: int
    unfinished: int
    retunes: int = 0

    @property
    def survival_rate(self) -> float:
        """Fraction of started nodes that did not crash."""
        if not self.started:
            return 1.0
        return (self.started - self.crashed) / self.started

    @property
    def completion_rate(self) -> float:
        """Fraction of started nodes that finished their workload."""
        if not self.started:
            return 1.0
        return self.completed / self.started

    @property
    def peak_budget_w(self) -> float:
        return max(self.budget_series, default=0.0)

    def degradations(self) -> list[FleetEvent]:
        return [e for e in self.events if e.degradation]


def fleet_result_to_json(result: FleetResult) -> dict:
    """Deterministic full-fidelity JSON (the resume-equivalence
    currency: byte-identical for byte-identical runs)."""
    return {
        "plan": result.plan_fingerprint,
        "faults": result.faults_fingerprint,
        "seed": result.seed,
        "global_cap_w": result.global_cap_w,
        "steps": result.steps,
        "started": result.started,
        "completed": result.completed,
        "crashed": result.crashed,
        "unfinished": result.unfinished,
        "retunes": result.retunes,
        "survival_rate": result.survival_rate,
        "completion_rate": result.completion_rate,
        "nodes": result.nodes,
        "events": [e.to_json() for e in result.events],
        "budget_series": result.budget_series,
        "reaction_latencies": result.reaction_latencies,
    }


class FleetSimulation:
    """One fleet run: plan + faults -> :class:`FleetResult`."""

    def __init__(
        self,
        plan: FleetPlan,
        fault_plan: FaultPlan | None = None,
        *,
        journal: FleetJournal | None = None,
        concurrency: int | None = None,
        stop_after: int | None = None,
    ) -> None:
        if stop_after is not None and stop_after < 0:
            raise ValueError(
                f"stop_after must be >= 0, got {stop_after}"
            )
        self.plan = plan
        self.fault_plan = fault_plan
        self.journal = journal
        # Tunes run one node at a time.  The keyword survives only for
        # callers that spell that out (the host-time benchmark passes
        # ``concurrency=1``); any other width is refused.
        if concurrency not in (None, 1):
            raise ValueError(
                f"the fleet tunes serially; concurrency must be 1, "
                f"got {concurrency}"
            )
        self.roster = [spec.node_id for spec in plan.nodes]
        self.cells = {
            spec.node_id: NodeCell(spec, plan) for spec in plan.nodes
        }
        self.membership = MembershipTracker(plan)
        self.allocator = BudgetAllocator(plan)
        self.injector: FaultInjector | None = make_injector(
            fault_plan, salt="fleet"
        )
        self.events: list[FleetEvent] = []
        self.budget_series: list[float] = []
        self.reaction_latencies: list[list] = []
        self.last_report: dict[str, dict] = {}
        self.unreachable_since: dict[str, int] = {}
        self.step = 0
        self._fresh_reports = 0
        #: harness-only kill switch (the chaos tests' simulated
        #: ``kill -9``): stop after journaling this many steps.  Not
        #: part of the plan, so it never touches the journal digest.
        self.stop_after = stop_after
        #: what the journal keys this run's snapshots by.
        self.digest = context_digest(
            FLEET_JOURNAL_SCHEMA,
            {
                "plan": fleet_plan_fingerprint(plan),
                "faults": plan_fingerprint(fault_plan),
                "seed": plan.seed,
                "global_cap_w": plan.global_cap_w,
                "nodes": len(plan.nodes),
            },
        )

    # ------------------------------------------------------------------
    def run(self) -> FleetResult:
        """Run to completion, first restoring the newest snapshot of
        this run the journal holds (running again is the resume)."""
        if self.journal is not None:
            snap = self.journal.load_last_snapshot(self.digest)
            if snap is not None:
                self.step, state = snap
                self._restore(state)
        while self.step < self.plan.max_steps and not self._finished():
            if (
                self.stop_after is not None
                and self.step >= self.stop_after
            ):
                break
            self.step += 1
            self._run_step(self.step)
            if self.journal is not None:
                self.journal.append_snapshot(
                    self.digest, self.step, self._snapshot()
                )
        return self._build_result()

    def _finished(self) -> bool:
        return all(
            cell.status in TERMINAL for cell in self.cells.values()
        )

    # ------------------------------------------------------------------
    def _emit(self, event: FleetEvent) -> None:
        self.events.append(event)
        tb = bus()
        if tb.enabled:
            if event.degradation:
                tb.count("fleet.degradations")
            tb.emit(
                "fleet.event",
                step=event.step,
                kind=event.kind,
                node=event.node,
                detail=event.detail,
            )

    def _active(self, node_id: str) -> bool:
        return self.cells[node_id].status not in ("pending",) + TERMINAL

    def _run_step(self, step: int) -> None:
        with traced_span("fleet.step", step=step):
            self._step_phases(step)

    def _step_phases(self, step: int) -> None:
        plan = self.plan
        # 1) staggered admissions.
        for node_id in self.roster:
            cell = self.cells[node_id]
            if (
                cell.status == "pending"
                and step >= cell.node_spec.start_step
            ):
                cell.status = "waiting"
                self.membership.admit(node_id, step)
                self._emit(
                    FleetEvent(
                        step, "node_started", node_id,
                        cell.machine.name,
                    )
                )

        # 2) whole-node faults, roster order (determinism contract).
        if self.injector is not None:
            for node_id in self.roster:
                if not self._active(node_id):
                    continue
                cell = self.cells[node_id]
                spec = self.injector.draw("fleet.node")
                if spec is None:
                    continue
                if spec.action == "crash":
                    cell.status = "crashed"
                    self.unreachable_since.setdefault(node_id, step)
                    self._emit(
                        FleetEvent(
                            step, "node_crashed", node_id,
                            "node process died (injected)",
                        )
                    )
                else:  # hang: a straggler that recovers
                    steps = int(
                        spec.magnitude or DEFAULT_FLEET_HANG_STEPS
                    )
                    cell.hang_until = max(
                        cell.hang_until, step + steps
                    )
                    self.unreachable_since.setdefault(node_id, step)
                    self._emit(
                        FleetEvent(
                            step, "node_hang", node_id,
                            f"straggling for {steps} steps",
                        )
                    )

        # 3) allocation + cap writes.
        infos = self._live_infos(step)
        utilization = {}
        for info in infos:
            if not info.cappable:
                continue
            applied = self.allocator.applied.get(info.node_id)
            report = self.last_report.get(info.node_id)
            if applied and report and report["power_w"] is not None:
                utilization[info.node_id] = (
                    report["power_w"] / applied
                )
        targets, alloc_events = self.allocator.allocate(
            step, infos, utilization, self._fresh_reports
        )
        for event in alloc_events:
            self._emit(event)
        for node_id in self.roster:
            if node_id not in targets:
                continue
            cell = self.cells[node_id]
            target = targets[node_id]
            if cell.cap_w == target:
                continue
            before = cell.current_label()
            try:
                self._write_cap(node_id, target)
            except _FleetCapWriteRejected:
                self._emit(
                    FleetEvent(
                        step, "cap_write_failed", node_id,
                        f"cap write {before} -> {target:g}W rejected "
                        f"{_FLEET_CAP_WRITE_RETRY.attempts} times",
                    )
                )
                self.allocator.park(node_id, step, plan.park_steps)
                self._emit(
                    FleetEvent(
                        step, "node_parked", node_id,
                        "cap write rejected; power-gated for "
                        f"{plan.park_steps} steps",
                    )
                )
                continue
            cell.cap_w = target
            self.allocator.note_applied(node_id, target, step)
            self._emit(
                FleetEvent(
                    step, "cap_changed", node_id,
                    f"{before} -> {cell.current_label()}",
                )
            )

        # 4) the invariant, every step, no exceptions.
        infos = self._live_infos(step)
        total = self.allocator.check_invariant(step, infos)
        self.budget_series.append(total)
        tb = bus()
        if tb.enabled:
            tb.gauge("fleet.budget_w", total)
            # the gauge only survives as a last-value metric at close;
            # the per-step value-event is what lets the SLO engine
            # check every step against the global cap.
            tb.emit("fleet.budget_w", step=step, value=total)

        # 5) advance cells: due tunes run one node at a time (their
        # events are emitted once the step's last tune is done); the
        # rest make progress.
        advancing: list[NodeCell] = []
        for node_id in self.roster:
            cell = self.cells[node_id]
            if cell.status not in ("waiting", "running"):
                continue
            if self.allocator.is_parked(node_id, step):
                continue
            if self.membership.state(node_id) in (DEAD, QUARANTINED):
                continue  # fenced until membership readmits it
            if step < cell.hang_until:
                continue
            if cell.status == "waiting":
                if cell.cappable and cell.cap_w is None:
                    continue  # still awaiting its first cap
                cell.status = "running"
            advancing.append(cell)
        tuning = [cell for cell in advancing if cell.needs_tune()]
        tune_events: list[FleetEvent] = []
        for cell in tuning:
            with traced_span("fleet.tune", node=cell.node_id):
                tune_events.extend(cell.tune())
        for event in tune_events:
            self._emit(
                FleetEvent(step, event.kind, event.node, event.detail)
            )
        for cell in advancing:
            if cell in tuning:
                continue  # the tune was this step's work
            cell.progress_step()
            if cell.status == "done":
                self._emit(
                    FleetEvent(
                        step, "node_done", cell.node_id,
                        f"workload complete at {cell.current_label()}",
                    )
                )
                self.membership.remove(cell.node_id)
                self.allocator.release(cell.node_id)

        # 6) heartbeats, through the telemetry fault sites.
        delivered: list[str] = []
        for node_id in self.roster:
            if not self._active(node_id):
                continue
            cell = self.cells[node_id]
            if step < cell.hang_until:
                continue  # hung nodes are silent
            if self.injector is not None and step >= cell.flap_until:
                spec = self.injector.draw("fleet.membership")
                if spec is not None:
                    steps = int(
                        spec.magnitude or DEFAULT_FLEET_FLAP_STEPS
                    )
                    cell.flap_until = step + steps
                    cell.flap_start = step
                    self._emit(
                        FleetEvent(
                            step, "membership_flap", node_id,
                            f"heartbeats flapping for {steps} steps",
                        )
                    )
            suppressed = False
            if step < cell.partition_until:
                suppressed = True
            elif self.injector is not None:
                spec = self.injector.draw("fleet.telemetry")
                if spec is not None and spec.action == "drop":
                    suppressed = True
                    self._emit(
                        FleetEvent(
                            step, "telemetry_drop", node_id,
                            "heartbeat report lost",
                        )
                    )
                elif spec is not None:  # partition
                    steps = int(
                        spec.magnitude
                        or DEFAULT_FLEET_PARTITION_STEPS
                    )
                    cell.partition_until = step + steps
                    suppressed = True
                    self._emit(
                        FleetEvent(
                            step, "telemetry_partition", node_id,
                            f"unreachable for {steps} steps "
                            "(still running)",
                        )
                    )
            if (
                not suppressed
                and step < cell.flap_until
                and (step - cell.flap_start) % 2 == 1
            ):
                suppressed = True  # the flap window's silent phase
            if suppressed:
                continue
            self.last_report[node_id] = cell.report(step)
            delivered.append(node_id)
            if tb.enabled:
                tb.emit("fleet.heartbeat", step=step, node=node_id)
        self._fresh_reports = len(delivered)
        for node_id in delivered:
            self.unreachable_since.pop(node_id, None)
        for node_id in self.membership.members():
            if node_id not in delivered:
                self.unreachable_since.setdefault(node_id, step)

        # 7) failure detection; deaths feed reaction-latency metrics.
        for event in self.membership.observe(step, set(delivered)):
            self._emit(event)
            if event.kind == "node_dead":
                since = self.unreachable_since.get(event.node, step)
                # the share is excluded from the next allocate call,
                # hence the +1: silence start -> budget reclaimed.
                self.reaction_latencies.append(
                    [event.node, step - since + 1]
                )

    # ------------------------------------------------------------------
    def _live_infos(self, step: int) -> list[NodeBudgetInfo]:
        """Live (alive/suspect, admitted, non-terminal) nodes in
        admission order - the allocator's whole world view."""
        infos = []
        for node_id in self.roster:
            if not self._active(node_id):
                continue
            if self.membership.state(node_id) in (DEAD, QUARANTINED):
                continue
            cell = self.cells[node_id]
            infos.append(
                NodeBudgetInfo(
                    node_id=node_id,
                    cappable=cell.cappable,
                    tdp_w=cell.machine.tdp_w,
                    min_cap_w=self.plan.min_cap_w(cell.machine),
                )
            )
        return infos

    def _write_cap(self, node_id: str, target: float) -> None:
        """One simulated management-plane cap write, retried against
        injected rejections."""

        def write() -> None:
            if self.injector is not None:
                spec = self.injector.draw("fleet.cap_write")
                if spec is not None:
                    raise _FleetCapWriteRejected(node_id)

        _FLEET_CAP_WRITE_RETRY.run(
            write,
            retry_on=_FleetCapWriteRejected,
            site="fleet.cap_write",
            salt=(node_id,),
        )

    # ------------------------------------------------------------------
    def _snapshot(self) -> dict:
        return {
            "cells": {
                node_id: self.cells[node_id].snapshot()
                for node_id in self.roster
            },
            "membership": self.membership.snapshot(),
            "allocator": self.allocator.snapshot(),
            "injector": (
                None
                if self.injector is None
                else self.injector.snapshot()
            ),
            "events": [e.to_json() for e in self.events],
            "budget_series": list(self.budget_series),
            "reaction_latencies": [
                list(pair) for pair in self.reaction_latencies
            ],
            "last_report": {
                node_id: dict(report)
                for node_id, report in sorted(
                    self.last_report.items()
                )
            },
            "unreachable_since": dict(
                sorted(self.unreachable_since.items())
            ),
            "fresh_reports": self._fresh_reports,
        }

    def _restore(self, state: dict) -> None:
        for node_id, blob in state["cells"].items():
            self.cells[node_id].restore(blob)
        self.membership.restore(state["membership"])
        self.allocator.restore(state["allocator"])
        if state["injector"] is not None and self.injector is not None:
            self.injector.restore(state["injector"])
        self.events = [
            FleetEvent.from_json(blob) for blob in state["events"]
        ]
        self.budget_series = [
            float(v) for v in state["budget_series"]
        ]
        self.reaction_latencies = [
            [str(node), int(latency)]
            for node, latency in state["reaction_latencies"]
        ]
        self.last_report = {
            str(node_id): dict(report)
            for node_id, report in state["last_report"].items()
        }
        self.unreachable_since = {
            str(node_id): int(step)
            for node_id, step in state["unreachable_since"].items()
        }
        self._fresh_reports = int(state["fresh_reports"])

    # ------------------------------------------------------------------
    def _build_result(self) -> FleetResult:
        nodes = []
        started = completed = crashed = retunes = 0
        for node_id in self.roster:
            cell = self.cells[node_id]
            if cell.status != "pending":
                started += 1
            if cell.status == "done":
                completed += 1
            if cell.status == "crashed":
                crashed += 1
            retunes += cell.retunes
            nodes.append(
                {
                    "node": node_id,
                    "machine": cell.machine.name,
                    "status": cell.status,
                    "progress": cell.progress,
                    "work_steps": cell.node_spec.work_steps,
                    "cap_w": cell.cap_w,
                    "tuned_levels": sorted(cell.tuned),
                    "retunes": cell.retunes,
                }
            )
        return FleetResult(
            plan_fingerprint=fleet_plan_fingerprint(self.plan),
            faults_fingerprint=plan_fingerprint(self.fault_plan),
            seed=self.plan.seed,
            global_cap_w=self.plan.global_cap_w,
            steps=self.step,
            nodes=nodes,
            events=list(self.events),
            budget_series=list(self.budget_series),
            reaction_latencies=[
                list(pair) for pair in self.reaction_latencies
            ],
            started=started,
            completed=completed,
            crashed=crashed,
            unfinished=started - completed - crashed,
            retunes=retunes,
        )


def run_fleet(
    plan: FleetPlan,
    fault_plan: FaultPlan | None = None,
    **kwargs,
) -> FleetResult:
    """Convenience wrapper: build and run one simulation."""
    return FleetSimulation(plan, fault_plan, **kwargs).run()


def render_fleet(result: FleetResult) -> str:
    """Human-readable fleet summary (the ``repro fleet run`` output)."""
    rows = []
    for node in result.nodes:
        cap = node["cap_w"]
        rows.append(
            [
                node["node"],
                node["machine"],
                node["status"],
                f"{node['progress']:.2f}/{node['work_steps']}",
                "TDP" if cap is None else f"{cap:g}W",
                str(len(node["tuned_levels"])),
                str(node["retunes"]),
            ]
        )
    table = format_table(
        ["node", "machine", "status", "progress", "cap", "levels",
         "retunes"],
        rows,
        title=(
            f"Fleet of {len(result.nodes)} nodes under "
            f"{result.global_cap_w:g}W global cap"
        ),
    )
    by_kind: dict[str, int] = {}
    for event in result.degradations():
        by_kind[event.kind] = by_kind.get(event.kind, 0) + 1
    lines = [
        table,
        "",
        f"steps: {result.steps}   peak accounted power: "
        f"{result.peak_budget_w:g}W / {result.global_cap_w:g}W",
        f"started: {result.started}  completed: {result.completed}  "
        f"crashed: {result.crashed}  unfinished: {result.unfinished}",
        f"survival rate: {result.survival_rate:.3f}   "
        f"completion rate: {result.completion_rate:.3f}",
    ]
    if result.reaction_latencies:
        mean = sum(
            latency for _, latency in result.reaction_latencies
        ) / len(result.reaction_latencies)
        lines.append(
            f"allocator reaction latency: mean {mean:.1f} steps over "
            f"{len(result.reaction_latencies)} death(s)"
        )
    if by_kind:
        summary = ", ".join(
            f"{kind} x{count}"
            for kind, count in sorted(by_kind.items())
        )
        lines.append(f"degradations: {summary}")
    else:
        lines.append("degradations: none (clean run)")
    return "\n".join(lines) + "\n"
