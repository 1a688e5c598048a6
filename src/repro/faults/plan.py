"""Typed fault plans.

The paper's Section IV-D exists because real RAPL is not a clean
oracle: energy-status counters only refresh about once a millisecond,
wrap at 32 bits, caps need a warm-up interval after being written, and
per-region timings under a cap are noisy.  A :class:`FaultPlan` is a
declarative, seedable description of those misbehaviours (plus harness
level failures - crashed or hung sweep workers) that the simulator's
injection points consult at runtime.

A plan is a tuple of :class:`FaultSpec` entries.  Every spec names an
*injection site* (where in the stack the fault can fire) and an
*action* (what goes wrong there):

========================  =======================================
site                      actions
========================  =======================================
``rapl.read``             ``error`` / ``stale`` / ``wraparound``
``rapl.cap_write``        ``reject``
``ompt.timer_start``      ``drop``
``ompt.timer_stop``       ``drop``
``measure.noise``         ``spike``
``sweep.worker``          ``crash`` / ``hang``
``region.exec``           ``crash`` / ``hang``
``service.connect``       ``refused``
``service.response``      ``hang`` / ``slow``
``service.payload``       ``torn`` / ``corrupt``
``service.server``        ``crash``
``fleet.node``            ``crash`` / ``hang``
``fleet.telemetry``       ``drop`` / ``partition``
``fleet.cap_write``       ``reject``
``fleet.membership``      ``flap``
``surrogate.corpus``      ``torn`` / ``corrupt``
``surrogate.fit``         ``nonfinite``
========================  =======================================

The ``service.*`` sites model the network between a tuning-service
client and the ``repro serve`` daemon (:mod:`repro.service`):
connection refused, a response that hangs past the client deadline (or
is merely ``slow`` by ``magnitude`` seconds), a payload torn mid-byte
or bit-flipped into invalid JSON, and the server dying halfway through
writing a response.  They are consulted by the client transport and
the daemon writer, and every one of them must degrade the client to
the next :class:`~repro.service.source.ConfigSource` tier, never to an
error.

``region.exec`` faults fire *inside* a run, at individual region
executions, and are handled by the watchdog layer in
:mod:`repro.supervise` (retry, pin to default, abort) rather than by
the sweep executor.

The ``surrogate.*`` sites model damage to the learned-surrogate
pipeline (:mod:`repro.surrogate`): a training record torn mid-write or
bit-flipped on disk (``surrogate.corpus``, drawn once per candidate
record during corpus folding - the record is skipped and counted, the
fold never raises) and a model fit whose solve blows up into
non-finite weights (``surrogate.fit``, drawn once per fit).  Either
way the surrogate run must degrade to the Nelder-Mead fallback with a
typed degradation note, never to a crash.

The ``fleet.*`` sites model failures of whole nodes inside a
:mod:`repro.fleet` simulation: a node process dying permanently
(``crash``) or stalling as a straggler for ``magnitude`` fleet steps
(``hang``), the telemetry channel losing a single heartbeat report
(``drop``) or partitioning the node away for ``magnitude`` steps while
it keeps working (``partition``), a per-node cap write being rejected
by the node's firmware (``cap_write``/``reject``) and a flapping
member whose heartbeats alternate for ``magnitude`` steps
(``membership``/``flap``).  They are polled once per node per fleet
step by :class:`~repro.fleet.sim.FleetSimulation`, in roster order, so
a faulted fleet run replays bit-for-bit.

Plans serialize to/from JSON (the CLI's ``--faults plan.json``), are
frozen/hashable (they ride inside :class:`~repro.experiments.runner.
ExperimentSetup` and picklable sweep tasks) and carry their own seed,
so a plan file fully determines which occurrences fire.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

#: injection site -> allowed actions.
FAULT_SITES: dict[str, tuple[str, ...]] = {
    "rapl.read": ("error", "stale", "wraparound"),
    "rapl.cap_write": ("reject",),
    "ompt.timer_start": ("drop",),
    "ompt.timer_stop": ("drop",),
    "measure.noise": ("spike",),
    "sweep.worker": ("crash", "hang"),
    "region.exec": ("crash", "hang"),
    "service.connect": ("refused",),
    "service.response": ("hang", "slow"),
    "service.payload": ("torn", "corrupt"),
    "service.server": ("crash",),
    "fleet.node": ("crash", "hang"),
    "fleet.telemetry": ("drop", "partition"),
    "fleet.cap_write": ("reject",),
    "fleet.membership": ("flap",),
    "surrogate.corpus": ("torn", "corrupt"),
    "surrogate.fit": ("nonfinite",),
}

#: default spike factor for ``measure.noise``: a timer glitch on a
#: millisecond-granular counter can mis-report by orders of magnitude.
DEFAULT_SPIKE_FACTOR = 1.0e4

#: default simulated hang duration for ``sweep.worker``/``hang``.
DEFAULT_HANG_S = 2.0

#: default fleet-step durations for the ``fleet.*`` window faults
#: (used when the spec carries no ``magnitude``).
DEFAULT_FLEET_HANG_STEPS = 3
DEFAULT_FLEET_PARTITION_STEPS = 4
DEFAULT_FLEET_FLAP_STEPS = 6


class FaultPlanError(ValueError):
    """A fault plan (or plan file) is malformed."""


@dataclass(frozen=True)
class FaultSpec:
    """One fault class armed at one injection site.

    ``start`` and ``max_fires`` bound the occurrence window: the spec
    is eligible from the ``start``-th event at its site (0-based) and
    fires at most ``max_fires`` times (``None`` = unbounded).
    ``probability`` < 1 draws a deterministic per-occurrence coin from
    the plan seed.  ``magnitude`` parameterizes the action: the spike
    factor for ``measure.noise``, the hang seconds for
    ``sweep.worker``/``hang``.
    """

    site: str
    action: str
    probability: float = 1.0
    start: int = 0
    max_fires: int | None = None
    magnitude: float | None = None

    def __post_init__(self) -> None:
        allowed = FAULT_SITES.get(self.site)
        if allowed is None:
            raise FaultPlanError(
                f"unknown fault site {self.site!r}; known sites: "
                f"{sorted(FAULT_SITES)}"
            )
        if self.action not in allowed:
            raise FaultPlanError(
                f"site {self.site!r} does not support action "
                f"{self.action!r}; allowed: {list(allowed)}"
            )
        if not 0.0 < self.probability <= 1.0:
            raise FaultPlanError(
                f"probability must be in (0, 1], got {self.probability}"
            )
        if self.start < 0:
            raise FaultPlanError(f"start must be >= 0, got {self.start}")
        if self.max_fires is not None and self.max_fires < 1:
            raise FaultPlanError(
                f"max_fires must be >= 1 or None, got {self.max_fires}"
            )
        if self.magnitude is not None and self.magnitude <= 0:
            raise FaultPlanError(
                f"magnitude must be > 0, got {self.magnitude}"
            )

    def to_json(self) -> dict:
        blob: dict = {"site": self.site, "action": self.action}
        if self.probability != 1.0:
            blob["probability"] = self.probability
        if self.start:
            blob["start"] = self.start
        if self.max_fires is not None:
            blob["max_fires"] = self.max_fires
        if self.magnitude is not None:
            blob["magnitude"] = self.magnitude
        return blob

    @classmethod
    def from_json(cls, blob: dict) -> "FaultSpec":
        if not isinstance(blob, dict):
            raise FaultPlanError(
                f"fault spec must be an object, got {type(blob).__name__}"
            )
        unknown = set(blob) - {
            "site", "action", "probability", "start", "max_fires",
            "magnitude",
        }
        if unknown:
            raise FaultPlanError(
                f"unknown fault-spec field(s): {sorted(unknown)}"
            )
        try:
            return cls(
                site=str(blob["site"]),
                action=str(blob["action"]),
                probability=float(blob.get("probability", 1.0)),
                start=int(blob.get("start", 0)),
                max_fires=(
                    None
                    if blob.get("max_fires") is None
                    else int(blob["max_fires"])
                ),
                magnitude=(
                    None
                    if blob.get("magnitude") is None
                    else float(blob["magnitude"])
                ),
            )
        except KeyError as exc:
            raise FaultPlanError(
                f"fault spec is missing required field {exc.args[0]!r}"
            ) from None


@dataclass(frozen=True)
class FaultPlan:
    """A seedable set of fault specs; the unit the CLI loads from JSON."""

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def __bool__(self) -> bool:
        return bool(self.specs)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "faults": [spec.to_json() for spec in self.specs],
        }

    @classmethod
    def from_json(cls, blob: dict) -> "FaultPlan":
        if not isinstance(blob, dict):
            raise FaultPlanError(
                f"fault plan must be a JSON object, got "
                f"{type(blob).__name__}"
            )
        unknown = set(blob) - {"seed", "faults"}
        if unknown:
            raise FaultPlanError(
                f"unknown fault-plan field(s): {sorted(unknown)}"
            )
        faults = blob.get("faults", [])
        if not isinstance(faults, list):
            raise FaultPlanError("'faults' must be a list of specs")
        return cls(
            specs=tuple(FaultSpec.from_json(s) for s in faults),
            seed=int(blob.get("seed", 0)),
        )


def load_fault_plan(path: str | Path) -> FaultPlan:
    """Load a :class:`FaultPlan` from a JSON file.

    Raises :class:`FaultPlanError` naming the path on any problem, so
    the CLI can surface a one-line actionable message.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise FaultPlanError(
            f"cannot read fault plan {path}: {exc}"
        ) from exc
    try:
        blob = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FaultPlanError(
            f"fault plan {path} is not valid JSON: {exc}"
        ) from exc
    try:
        return FaultPlan.from_json(blob)
    except FaultPlanError as exc:
        raise FaultPlanError(f"fault plan {path}: {exc}") from None


def save_fault_plan(plan: FaultPlan, path: str | Path) -> None:
    Path(path).write_text(json.dumps(plan.to_json(), indent=2) + "\n")


def plan_fingerprint(plan: FaultPlan | None) -> str | None:
    """Short content fingerprint of a plan; ``None`` for empty/absent
    plans so clean-run digests and journal headers omit the key."""
    if plan is None or not plan:
        return None
    blob = json.dumps(
        plan.to_json(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
