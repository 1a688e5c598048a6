"""Watchdog supervision for region measurement.

PR 2 taught the simulator to *inject* hangs and crashes; this layer
adds *recovery*.  Every region execution in a supervised run goes
through :meth:`RegionSupervisor.execute`, which consults the
``region.exec`` fault site and applies an escalating ladder when a
measurement fails or stalls:

1. **bounded retry** - a crashed execution is retried up to
   ``max_retries`` times (the candidate configuration stays
   outstanding in its tuning session, so the retry re-measures it);
2. **pin to default** - a region that keeps failing is pinned to the
   default configuration for the rest of the run via
   :meth:`~repro.core.policy.ArcsPolicy.pin_region`, and the
   degradation is recorded on the existing
   ``AppRunResult.degraded`` channel so it surfaces in CLI output;
3. **abort** - a region that *still* fails after being pinned aborts
   the run with :class:`RunAbortedError`.  The last run checkpoint
   (written at the previous repeat boundary) remains valid, so the
   operator can resume after fixing the environment.

With no fault injector and no deadline the supervisor is a pass-through:
it adds zero simulated time and zero RNG draws, so supervised clean
runs are byte-identical to unsupervised ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.plan import DEFAULT_HANG_S
from repro.openmp.records import RegionExecutionRecord
from repro.openmp.region import RegionProfile
from repro.openmp.runtime import OpenMPRuntime
from repro.telemetry.bus import bus


class RunAbortedError(RuntimeError):
    """The watchdog gave up on a region that kept failing even after
    being pinned to the default configuration."""

    def __init__(self, region: str, reason: str) -> None:
        self.region = region
        self.reason = reason
        #: the telemetry flight recorder's last-N events at abort time
        #: (empty when telemetry is disabled) - the post-mortem context
        #: for what the control loop saw right before giving up.
        self.flight: tuple[dict, ...] = bus().flight.dump()
        super().__init__(
            f"run aborted: region {region!r} kept failing after being "
            f"pinned to the default configuration ({reason}); the last "
            "checkpoint remains valid for --resume-from"
        )


@dataclass(frozen=True)
class SuperviseConfig:
    """Watchdog knobs.

    ``deadline_s`` is the per-execution wall-time budget (``None`` =
    no deadline; crashes are still handled).  ``max_retries`` bounds
    the consecutive failures tolerated before escalating.
    """

    deadline_s: float | None = None
    max_retries: int = 2

    def __post_init__(self) -> None:
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(
                f"deadline_s must be > 0 or None, got {self.deadline_s}"
            )
        if self.max_retries < 1:
            raise ValueError(
                f"max_retries must be >= 1, got {self.max_retries}"
            )


@dataclass
class _RegionHealth:
    consecutive_failures: int = 0
    pinned: bool = False


class RegionSupervisor:
    """Wraps ``runtime.parallel_for`` with deadline + escalation.

    ``pin`` is the policy hook called at the pin-to-default rung
    (normally :meth:`ArcsPolicy.pin_region`); ``None`` means the
    degradation note is recorded but no policy is told (non-tuning
    strategies, which already run the default configuration).
    """

    def __init__(
        self,
        runtime: OpenMPRuntime,
        config: SuperviseConfig | None = None,
        pin=None,
    ) -> None:
        self.runtime = runtime
        self.config = config or SuperviseConfig()
        self.pin = pin
        self._health: dict[str, _RegionHealth] = {}

    # ------------------------------------------------------------------
    def _attempt(
        self, region: RegionProfile
    ) -> tuple[RegionExecutionRecord | None, str | None]:
        """One supervised execution attempt: ``(record, failure)``.
        ``record is None`` means the execution never completed (crash);
        a record plus a failure means it completed but stalled past the
        deadline (the measurement itself is still trustworthy)."""
        node = self.runtime.node
        spec = None
        if node.faults is not None:
            spec = node.faults.draw("region.exec")
        if spec is not None and spec.action == "crash":
            return None, "injected execution crash"
        before = node.now_s
        record = self.runtime.parallel_for(region)
        wall = node.now_s - before
        if spec is not None and spec.action == "hang":
            hang_s = (
                DEFAULT_HANG_S
                if spec.magnitude is None
                else spec.magnitude
            )
            node.advance(hang_s)
            wall += hang_s
        deadline = self.config.deadline_s
        if deadline is not None and wall > deadline:
            return record, (
                f"execution stalled: {wall:g}s exceeded the {deadline:g}s "
                "deadline"
            )
        return record, None

    def execute(self, region: RegionProfile) -> RegionExecutionRecord:
        """Execute ``region`` under supervision (the runner passes this
        as ``run_application``'s ``execute`` hook)."""
        health = self._health.setdefault(region.name, _RegionHealth())
        attempts = 0
        while True:
            attempts += 1
            record, failure = self._attempt(region)
            if failure is None:
                if attempts > 1:
                    self.runtime.degradations.append(
                        f"region {region.name}: recovered after "
                        f"{attempts - 1} failed attempt(s)"
                    )
                health.consecutive_failures = 0
                return record
            health.consecutive_failures += 1
            if record is not None:
                # completed-but-stalled: the measurement is usable, so
                # never re-run it - but sustained stalling escalates.
                if health.consecutive_failures > self.config.max_retries:
                    self._escalate(region.name, failure)
                    health.consecutive_failures = 0
                return record
            if attempts <= self.config.max_retries:
                bus().emit(
                    "supervise.retry",
                    region=region.name,
                    attempt=attempts,
                    failure=failure,
                )
                continue
            self._escalate(region.name, failure)
            attempts = 0
            health.consecutive_failures = 0

    def _escalate(self, region_name: str, failure: str) -> None:
        health = self._health[region_name]
        if not health.pinned:
            health.pinned = True
            self.runtime.degradations.append(
                f"region {region_name}: {failure} persisted past "
                f"{self.config.max_retries} retries; pinned to the "
                "default configuration"
            )
            bus().emit(
                "supervise.pin", region=region_name, failure=failure
            )
            if self.pin is not None:
                self.pin(region_name, failure)
            return
        bus().emit(
            "supervise.abort", region=region_name, failure=failure
        )
        raise RunAbortedError(region_name, failure)
