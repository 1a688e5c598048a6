"""Fleet plans: the declarative description of one cluster run.

A :class:`FleetPlan` is to the fleet simulation what
:class:`~repro.experiments.runner.ExperimentSetup` is to one node: it
fully determines the run.  It names every node (machine spec,
application, staggered start, per-node seed salt), the global power
budget, and the allocator / membership tuning knobs.  Plans serialize
to JSON (``repro fleet run --plan fleetplan.json``,
``examples/fleetplan.json``) and carry a content fingerprint that is
part of the fleet journal's snapshot digest, so a run never restores
a snapshot another fleet wrote.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from repro.machine.spec import MachineSpec, machine_by_name


class FleetPlanError(ValueError):
    """A fleet plan (or plan file) is malformed."""


@dataclass(frozen=True)
class FleetNodeSpec:
    """One node of the fleet.

    ``start_step`` staggers admission; ``work_steps`` is how much
    workload the node must complete (in steps of full-speed progress)
    after its local ARCS tuning; ``timesteps`` bounds the application
    used for the node's local tuning runs (small by default - fleet
    steps are coarse next to region invocations).
    """

    node_id: str
    machine: str = "crill"
    app: str = "synthetic"
    workload: str | None = None
    start_step: int = 0
    work_steps: int = 10
    timesteps: int = 6

    def __post_init__(self) -> None:
        if not self.node_id:
            raise FleetPlanError("node_id must be non-empty")
        try:
            machine_by_name(self.machine)
        except ValueError as exc:
            raise FleetPlanError(str(exc)) from exc
        if self.start_step < 0:
            raise FleetPlanError(
                f"start_step must be >= 0, got {self.start_step}"
            )
        if self.work_steps < 1:
            raise FleetPlanError(
                f"work_steps must be >= 1, got {self.work_steps}"
            )
        if self.timesteps < 1:
            raise FleetPlanError(
                f"timesteps must be >= 1, got {self.timesteps}"
            )

    @property
    def spec(self) -> MachineSpec:
        return machine_by_name(self.machine)

    def to_json(self) -> dict:
        return {
            "node_id": self.node_id,
            "machine": self.machine,
            "app": self.app,
            "workload": self.workload,
            "start_step": self.start_step,
            "work_steps": self.work_steps,
            "timesteps": self.timesteps,
        }

    @classmethod
    def from_json(cls, blob: dict) -> "FleetNodeSpec":
        if not isinstance(blob, dict):
            raise FleetPlanError(
                f"node spec must be an object, got {type(blob).__name__}"
            )
        unknown = set(blob) - {
            "node_id", "machine", "app", "workload", "start_step",
            "work_steps", "timesteps",
        }
        if unknown:
            raise FleetPlanError(
                f"unknown node-spec field(s): {sorted(unknown)}"
            )
        try:
            return cls(
                node_id=str(blob["node_id"]),
                machine=str(blob.get("machine", "crill")),
                app=str(blob.get("app", "synthetic")),
                workload=(
                    None
                    if blob.get("workload") is None
                    else str(blob["workload"])
                ),
                start_step=int(blob.get("start_step", 0)),
                work_steps=int(blob.get("work_steps", 10)),
                timesteps=int(blob.get("timesteps", 6)),
            )
        except KeyError as exc:
            raise FleetPlanError(
                f"node spec is missing required field {exc.args[0]!r}"
            ) from None


@dataclass(frozen=True)
class FleetPlan:
    """Everything defining one fleet run (the unit the CLI loads)."""

    nodes: tuple[FleetNodeSpec, ...]
    global_cap_w: float
    max_steps: int = 200
    seed: int = 0
    #: budget allocator knobs: caps are quantized down to multiples of
    #: ``quantum_w`` (keeps the per-(spec, cap) evaluation memo hot
    #: across nodes), each cappable node is guaranteed
    #: ``min_cap_fraction * TDP``, and changes smaller than
    #: ``hysteresis_w`` or sooner than ``hysteresis_steps`` after the
    #: node's last change are deferred and coalesced to the latest
    #: target (the :mod:`repro.core.capschedule` semantics).
    quantum_w: float = 5.0
    min_cap_fraction: float = 0.5
    hysteresis_w: float = 5.0
    hysteresis_steps: int = 2
    #: membership knobs: heartbeats missed before suspect / dead, the
    #: window and transition count that flag a flapping node, and how
    #: long a flapper stays quarantined.
    suspect_after: int = 2
    dead_after: int = 4
    flap_window: int = 8
    flap_threshold: int = 3
    quarantine_steps: int = 6
    #: steps a node stays power-gated after a failed cap write.
    park_steps: int = 2

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if not self.nodes:
            raise FleetPlanError("a fleet needs at least one node")
        ids = [n.node_id for n in self.nodes]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise FleetPlanError(f"duplicate node_id(s): {dupes}")
        if self.global_cap_w <= 0:
            raise FleetPlanError(
                f"global_cap_w must be positive, got {self.global_cap_w}"
            )
        if self.max_steps < 1:
            raise FleetPlanError(
                f"max_steps must be >= 1, got {self.max_steps}"
            )
        if self.quantum_w <= 0:
            raise FleetPlanError(
                f"quantum_w must be positive, got {self.quantum_w}"
            )
        if not 0.0 < self.min_cap_fraction <= 1.0:
            raise FleetPlanError(
                "min_cap_fraction must be in (0, 1], got "
                f"{self.min_cap_fraction}"
            )
        for name in (
            "hysteresis_steps", "suspect_after", "dead_after",
            "flap_window", "flap_threshold", "quarantine_steps",
            "park_steps",
        ):
            if getattr(self, name) < 1:
                raise FleetPlanError(
                    f"{name} must be >= 1, got {getattr(self, name)}"
                )
        if self.hysteresis_w < 0:
            raise FleetPlanError(
                f"hysteresis_w must be >= 0, got {self.hysteresis_w}"
            )
        if self.dead_after <= self.suspect_after:
            raise FleetPlanError(
                "dead_after must exceed suspect_after "
                f"({self.dead_after} <= {self.suspect_after})"
            )

    # ------------------------------------------------------------------
    def min_cap_w(self, spec: MachineSpec) -> float:
        """Guaranteed floor for a cappable node: ``min_cap_fraction *
        TDP`` rounded *up* to the quantum (so quantizing a share down
        never dips below the floor)."""
        raw = spec.tdp_w * self.min_cap_fraction
        return math.ceil(raw / self.quantum_w) * self.quantum_w

    def to_json(self) -> dict:
        return {
            "global_cap_w": self.global_cap_w,
            "max_steps": self.max_steps,
            "seed": self.seed,
            "quantum_w": self.quantum_w,
            "min_cap_fraction": self.min_cap_fraction,
            "hysteresis_w": self.hysteresis_w,
            "hysteresis_steps": self.hysteresis_steps,
            "suspect_after": self.suspect_after,
            "dead_after": self.dead_after,
            "flap_window": self.flap_window,
            "flap_threshold": self.flap_threshold,
            "quarantine_steps": self.quarantine_steps,
            "park_steps": self.park_steps,
            "nodes": [n.to_json() for n in self.nodes],
        }

    @classmethod
    def from_json(cls, blob: dict) -> "FleetPlan":
        if not isinstance(blob, dict):
            raise FleetPlanError(
                f"fleet plan must be a JSON object, got "
                f"{type(blob).__name__}"
            )
        known = {
            "global_cap_w", "max_steps", "seed", "quantum_w",
            "min_cap_fraction", "hysteresis_w", "hysteresis_steps",
            "suspect_after", "dead_after", "flap_window",
            "flap_threshold", "quarantine_steps", "park_steps", "nodes",
        }
        unknown = set(blob) - known
        if unknown:
            raise FleetPlanError(
                f"unknown fleet-plan field(s): {sorted(unknown)}"
            )
        nodes = blob.get("nodes")
        if not isinstance(nodes, list):
            raise FleetPlanError("'nodes' must be a list of node specs")
        try:
            cap = float(blob["global_cap_w"])
        except KeyError:
            raise FleetPlanError(
                "fleet plan is missing required field 'global_cap_w'"
            ) from None
        defaults = {
            f.name: f.default
            for f in cls.__dataclass_fields__.values()
            if f.name not in ("nodes", "global_cap_w")
        }
        kwargs = {
            name: type(default)(blob.get(name, default))
            for name, default in defaults.items()
        }
        return cls(
            nodes=tuple(FleetNodeSpec.from_json(n) for n in nodes),
            global_cap_w=cap,
            **kwargs,
        )


def load_fleet_plan(path: str | Path) -> FleetPlan:
    """Load a :class:`FleetPlan` from JSON, raising
    :class:`FleetPlanError` naming the path on any problem."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise FleetPlanError(
            f"cannot read fleet plan {path}: {exc}"
        ) from exc
    try:
        blob = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FleetPlanError(
            f"fleet plan {path} is not valid JSON: {exc}"
        ) from exc
    try:
        return FleetPlan.from_json(blob)
    except FleetPlanError as exc:
        raise FleetPlanError(f"fleet plan {path}: {exc}") from None


def save_fleet_plan(plan: FleetPlan, path: str | Path) -> None:
    Path(path).write_text(json.dumps(plan.to_json(), indent=2) + "\n")


def fleet_plan_fingerprint(plan: FleetPlan) -> str:
    """Short content fingerprint (part of the journal digest)."""
    blob = json.dumps(
        plan.to_json(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def synthesize_fleet(
    n_nodes: int,
    global_cap_w: float | None = None,
    *,
    seed: int = 0,
    max_steps: int = 200,
    **knobs,
) -> FleetPlan:
    """A deterministic mixed roster for ``repro fleet run --nodes N``.

    Every fourth node is Minotaur-like (no capping privilege - it is
    accounted at fixed TDP), the rest Crill-like; starts are staggered
    over the first few steps and workloads vary slightly in length so
    completions spread out.  The default global budget is ~75% of the
    roster's summed TDP: enough for every node to run, tight enough
    that the allocator has real redistribution work to do.
    """
    if n_nodes < 1:
        raise FleetPlanError(f"n_nodes must be >= 1, got {n_nodes}")
    nodes = []
    width = len(str(n_nodes - 1))
    for i in range(n_nodes):
        machine = "minotaur" if i % 4 == 3 else "crill"
        nodes.append(
            FleetNodeSpec(
                node_id=f"node{i:0{width}d}",
                machine=machine,
                start_step=(i % 5) + 1,
                work_steps=8 + 2 * (i % 3),
            )
        )
    if global_cap_w is None:
        total_tdp = sum(n.spec.tdp_w for n in nodes)
        global_cap_w = math.ceil(0.75 * total_tdp)
    return FleetPlan(
        nodes=tuple(nodes),
        global_cap_w=float(global_cap_w),
        max_steps=max_steps,
        seed=seed,
        **knobs,
    )
