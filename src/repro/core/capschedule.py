"""Dynamic power-cap schedules.

Section II of the paper motivates ARCS with cluster-level power
management: "the resource manager may ... adjust [nodes'] power level
dynamically.  To get the best per node performance at each power
level, the runtime configurations need to be changed dynamically."  A
:class:`CapSchedule` is the harness-side half of that story - a
declarative list of ``(after_region_invocations, cap_w)`` events that
the runner applies to the simulated RAPL interface mid-run, exercising
the policy's ``cap_aware`` warm-start path end-to-end.

JSON form (the CLI's ``--cap-schedule schedule.json``)::

    {
      "hysteresis_invocations": 4,
      "events": [
        {"after_region_invocations": 30, "cap_w": 70},
        {"after_region_invocations": 60, "cap_w": null}
      ]
    }

``cap_w: null`` means uncapped (TDP-limited).  ``hysteresis_invocations``
defers any further cap change until that many region invocations have
passed since the last applied change; a thrashing schedule therefore
coalesces to its latest target instead of restarting the per-level
tuning sessions on every flip.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from repro.machine.rapl import CapWriteRejectedError
from repro.openmp.runtime import OpenMPRuntime
from repro.telemetry.bus import bus
from repro.util.retry import RetryPolicy

#: attempts per cap-change write before giving up on the event (the
#: same bounded-retry discipline the runner uses for the initial cap).
_CAP_EVENT_WRITE_ATTEMPTS = 3

#: no sleeping: backing off happens in simulated time via
#: ``settle_after_cap`` after every rejection.
_CAP_EVENT_RETRY = RetryPolicy(attempts=_CAP_EVENT_WRITE_ATTEMPTS)


class CapScheduleError(ValueError):
    """A cap schedule (or schedule file) is malformed."""


def cap_label(cap_w: float | None) -> str:
    """Human-readable cap value (``"tdp"`` for uncapped)."""
    return "tdp" if cap_w is None else f"{cap_w:g}W"


@dataclass(frozen=True)
class CapEvent:
    """One scheduled cap change: after ``after_invocations`` region
    invocations have completed, set the package cap to ``cap_w``
    (``None`` = uncapped)."""

    after_invocations: int
    cap_w: float | None

    def __post_init__(self) -> None:
        if self.after_invocations < 1:
            raise CapScheduleError(
                f"after_region_invocations must be >= 1, got "
                f"{self.after_invocations}"
            )
        if self.cap_w is not None and self.cap_w <= 0:
            raise CapScheduleError(
                f"cap_w must be > 0 or null, got {self.cap_w}"
            )


@dataclass(frozen=True)
class CapSchedule:
    """A seedless, deterministic cap timetable for one run."""

    events: tuple[CapEvent, ...] = ()
    hysteresis_invocations: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        if self.hysteresis_invocations < 0:
            raise CapScheduleError(
                f"hysteresis_invocations must be >= 0, got "
                f"{self.hysteresis_invocations}"
            )
        last = 0
        for event in self.events:
            if event.after_invocations <= last:
                raise CapScheduleError(
                    "events must have strictly increasing "
                    "after_region_invocations; "
                    f"{event.after_invocations} follows {last}"
                )
            last = event.after_invocations

    def __bool__(self) -> bool:
        return bool(self.events)

    def to_json(self) -> dict:
        return {
            "hysteresis_invocations": self.hysteresis_invocations,
            "events": [
                {
                    "after_region_invocations": e.after_invocations,
                    "cap_w": e.cap_w,
                }
                for e in self.events
            ],
        }

    @classmethod
    def from_json(cls, blob: dict) -> "CapSchedule":
        if not isinstance(blob, dict):
            raise CapScheduleError(
                f"cap schedule must be a JSON object, got "
                f"{type(blob).__name__}"
            )
        unknown = set(blob) - {"hysteresis_invocations", "events"}
        if unknown:
            raise CapScheduleError(
                f"unknown cap-schedule field(s): {sorted(unknown)}"
            )
        events = blob.get("events", [])
        if not isinstance(events, list):
            raise CapScheduleError("'events' must be a list")
        parsed = []
        for entry in events:
            if not isinstance(entry, dict):
                raise CapScheduleError(
                    f"cap event must be an object, got "
                    f"{type(entry).__name__}"
                )
            extra = set(entry) - {"after_region_invocations", "cap_w"}
            if extra:
                raise CapScheduleError(
                    f"unknown cap-event field(s): {sorted(extra)}"
                )
            try:
                after = int(entry["after_region_invocations"])
            except KeyError:
                raise CapScheduleError(
                    "cap event is missing required field "
                    "'after_region_invocations'"
                ) from None
            cap = entry.get("cap_w")
            parsed.append(
                CapEvent(after, None if cap is None else float(cap))
            )
        return cls(
            events=tuple(parsed),
            hysteresis_invocations=int(
                blob.get("hysteresis_invocations", 0)
            ),
        )

    def fingerprint(self) -> str:
        """Short content fingerprint (cache digests, checkpoint meta)."""
        blob = json.dumps(
            self.to_json(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def load_cap_schedule(path: str | Path) -> CapSchedule:
    """Load a :class:`CapSchedule` from a JSON file; raises
    :class:`CapScheduleError` naming the path on any problem."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise CapScheduleError(
            f"cannot read cap schedule {path}: {exc}"
        ) from exc
    try:
        blob = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CapScheduleError(
            f"cap schedule {path} is not valid JSON: {exc}"
        ) from exc
    try:
        return CapSchedule.from_json(blob)
    except CapScheduleError as exc:
        raise CapScheduleError(f"cap schedule {path}: {exc}") from None


class CapScheduleApplier:
    """Stateful cursor that walks one run through a schedule.

    Driven once per completed region invocation.  When several events
    have fallen due (or hysteresis deferred earlier ones), only the
    *latest* target is applied - intermediate flips of a thrashing
    schedule collapse away instead of each restarting the per-level
    tuning sessions.
    """

    def __init__(self, schedule: CapSchedule) -> None:
        self.schedule = schedule
        self._applied_idx = -1
        self._last_change_n: int | None = None
        #: human-readable record of every applied change, surfaced as
        #: ``StrategyRunResult.cap_changes``.
        self.log: list[str] = []

    def on_invocation(self, n: int, runtime: OpenMPRuntime) -> None:
        """Apply any due cap event; ``n`` is the 1-based count of
        completed region invocations this run."""
        target_idx = self._applied_idx
        for idx, event in enumerate(self.schedule.events):
            if event.after_invocations <= n:
                target_idx = max(target_idx, idx)
        if target_idx <= self._applied_idx:
            return
        if (
            self._last_change_n is not None
            and n - self._last_change_n
            < self.schedule.hysteresis_invocations
        ):
            return  # deferred; re-examined on the next invocation
        node = runtime.node
        target = self.schedule.events[target_idx]
        before = node.effective_cap_w(0)
        if target.cap_w == before:
            # flipping back to the level already in force: nothing to
            # write, and no hysteresis clock restart either.
            self._applied_idx = target_idx
            return
        try:
            _CAP_EVENT_RETRY.run(
                lambda: node.set_power_cap(target.cap_w),
                retry_on=CapWriteRejectedError,
                site="cap.schedule_write",
                on_failure=lambda _attempt, _exc: node.settle_after_cap(),
            )
        except CapWriteRejectedError:
            runtime.degradations.append(
                f"cap schedule: change to {cap_label(target.cap_w)} at "
                f"invocation {n} was rejected "
                f"{_CAP_EVENT_WRITE_ATTEMPTS} times; keeping "
                f"{cap_label(before)}"
            )
            self._applied_idx = target_idx
            bus().emit(
                "cap.change_rejected",
                invocation=n,
                cap_from=cap_label(before),
                cap_to=cap_label(target.cap_w),
            )
            return
        node.settle_after_cap()
        self._applied_idx = target_idx
        self._last_change_n = n
        self.log.append(
            f"invocation {n}: power cap {cap_label(before)} -> "
            f"{cap_label(target.cap_w)}"
        )
        tb = bus()
        if tb.enabled:
            tb.count("cap.changes")
            tb.emit(
                "cap.change",
                invocation=n,
                cap_from=cap_label(before),
                cap_to=cap_label(target.cap_w),
            )
