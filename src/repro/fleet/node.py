"""One fleet node-cell: a simulated machine driving ARCS locally.

A cell owns everything node-local: the machine spec, the (reduced)
application its workload runs, the per-cap tuned results and the
workload progress counter.  When the allocator hands the node a new
cap level the cell re-tunes with ARCS-Offline at that level - the
per-node memo below plus the process-wide content-keyed evaluation
memo (:mod:`repro.openmp.batch`) make a re-tune at a previously seen
(spec, cap) pair nearly free, across *and within* nodes, which is why
the allocator quantizes caps to a small set of levels.

Tuning that fails to converge degrades to the default configuration
(recorded as a ``tuning_degraded`` event) instead of killing the node:
a fleet member with a sick search is still a fleet member.

Cells are deliberately snapshot-friendly: every field round-trips
through JSON scalars so the fleet journal can persist the whole fleet
each step.
"""

from __future__ import annotations

import dataclasses

from repro.core.capschedule import cap_label
from repro.experiments.runner import (
    ExperimentSetup,
    TuningDidNotConverge,
    run_strategy,
)
from repro.fleet.events import FleetEvent
from repro.fleet.plan import FleetNodeSpec, FleetPlan
from repro.machine.spec import MachineSpec
from repro.util.rng import derive_seed
from repro.workloads.registry import application_by_name

#: terminal statuses: the node is out of the fleet for good.
TERMINAL = ("done", "crashed")


class NodeCell:
    """Runtime state of one fleet node."""

    def __init__(self, spec: FleetNodeSpec, plan: FleetPlan) -> None:
        self.node_spec = spec
        self.plan = plan
        self.machine: MachineSpec = spec.spec
        #: pending -> waiting (admitted, no cap yet) -> running ->
        #: done | crashed.
        self.status = "pending"
        #: confirmed cap (W); None for un-cappable nodes (TDP runs).
        self.cap_w: float | None = None
        #: cap label -> tuned measurement at that level.
        self.tuned: dict[str, dict] = {}
        self.progress = 0.0
        self.retunes = 0
        #: fault windows, maintained by the simulation loop.
        self.hang_until = 0
        self.partition_until = 0
        self.flap_until = 0
        self.flap_start = 0

    # ------------------------------------------------------------------
    @property
    def node_id(self) -> str:
        return self.node_spec.node_id

    @property
    def cappable(self) -> bool:
        return self.machine.supports_power_cap

    def current_label(self) -> str:
        return cap_label(self.cap_w)

    def needs_tune(self) -> bool:
        if self.status != "running":
            return False
        return self.current_label() not in self.tuned

    def done(self) -> bool:
        return self.progress + 1e-9 >= self.node_spec.work_steps

    # ------------------------------------------------------------------
    def tune(self) -> list[FleetEvent]:
        """Tune locally (ARCS-Offline) at the current cap level.

        Touches only this cell plus the process-wide evaluation memo,
        whose hit/miss equivalence is proven by the batch test wall.
        """
        label = self.current_label()
        app = application_by_name(
            self.node_spec.app, self.node_spec.workload
        )
        if app.timesteps > self.node_spec.timesteps:
            app = dataclasses.replace(
                app, timesteps=self.node_spec.timesteps
            )
        setup = ExperimentSetup(
            spec=self.machine,
            cap_w=self.cap_w,
            repeats=1,
            seed=derive_seed(
                self.plan.seed, "fleet-node", self.node_id, label
            ),
        )
        events: list[FleetEvent] = []
        first = not self.tuned
        try:
            result = run_strategy("arcs-offline", app, setup)
            degraded = False
        except TuningDidNotConverge as exc:
            result = run_strategy("default", app, setup)
            degraded = True
            events.append(
                FleetEvent(
                    0, "tuning_degraded", self.node_id,
                    f"{label}: {type(exc).__name__}; pinned to the "
                    "default configuration",
                )
            )
        power = None
        if result.energy_j is not None and result.time_s > 0:
            power = result.energy_j / result.time_s
            if self.cap_w is not None:
                power = min(power, self.cap_w)
        self.tuned[label] = {
            "time_s": result.time_s,
            "power_w": power,
            "tuning_runs": result.tuning_runs,
            "degraded": degraded,
        }
        if not first:
            self.retunes += 1
        return events

    # ------------------------------------------------------------------
    def progress_step(self) -> None:
        """One fleet step of workload at the current tuned speed.

        Progress is normalized so a node at its fastest known cap
        level advances one work-step per fleet step; lower caps run
        proportionally slower (the tuned times encode exactly that
        trade-off).
        """
        entry = self.tuned.get(self.current_label())
        if entry is None:  # not tuned yet: no progress this step
            return
        best = min(t["time_s"] for t in self.tuned.values())
        speed = best / entry["time_s"] if entry["time_s"] > 0 else 1.0
        self.progress = round(self.progress + speed, 9)
        if self.done():
            self.status = "done"

    def report(self, step: int) -> dict:
        """The node's heartbeat/telemetry record for this step."""
        entry = self.tuned.get(self.current_label())
        if entry is not None and entry["power_w"] is not None:
            power = entry["power_w"]
        elif self.cap_w is not None:
            power = self.cap_w
        else:
            power = self.machine.tdp_w
        return {
            "node": self.node_id,
            "step": step,
            "power_w": power,
            "progress": self.progress,
            "status": self.status,
        }

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "status": self.status,
            "cap_w": self.cap_w,
            "tuned": {
                label: dict(entry)
                for label, entry in sorted(self.tuned.items())
            },
            "progress": self.progress,
            "retunes": self.retunes,
            "hang_until": self.hang_until,
            "partition_until": self.partition_until,
            "flap_until": self.flap_until,
            "flap_start": self.flap_start,
        }

    def restore(self, blob: dict) -> None:
        self.status = str(blob["status"])
        cap = blob["cap_w"]
        self.cap_w = None if cap is None else float(cap)
        self.tuned = {
            str(label): {
                "time_s": float(entry["time_s"]),
                "power_w": (
                    None
                    if entry["power_w"] is None
                    else float(entry["power_w"])
                ),
                "tuning_runs": int(entry["tuning_runs"]),
                "degraded": bool(entry["degraded"]),
            }
            for label, entry in blob["tuned"].items()
        }
        self.progress = float(blob["progress"])
        self.retunes = int(blob["retunes"])
        self.hang_until = int(blob["hang_until"])
        self.partition_until = int(blob["partition_until"])
        self.flap_until = int(blob["flap_until"])
        self.flap_start = int(blob["flap_start"])
