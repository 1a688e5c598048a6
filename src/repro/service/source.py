"""``ConfigSource``: the degradation-ordered tuned-config chain.

ARCS-Offline needs tuned per-region configurations before its measured
runs.  The runner reads its local :class:`~repro.core.history.
HistoryStore` first; only when that misses does it ask this chain,
whose tiers are *ordered by degradation*:

1. :class:`ServiceSource` - the shared ``repro serve`` daemon (other
   tenants' tuning, survives every process);
2. :class:`MemoSource`   - a process-wide warm memo (free once any
   strategy in this process tuned the context);
3. an optional surrogate cold-start tier (model predictions, never
   promoted upward);
4. fresh tuning - not a source: it is what the runner does when the
   whole chain misses.

:class:`ChainedConfigSource` walks the tiers in order.  A tier that
*fails* (network fault, corrupt entry, open breaker) records a
degradation note and falls through - the chain as a whole never
raises, so every injected network fault degrades to a correct local
answer.  Hits are promoted back up into the tiers that missed, so a
recovered daemon is re-warmed by its clients.

Keys are :class:`ConfigKey` pairs: the human-readable experiment key
(local history files) plus a content-addressed digest over the tuning
context (:func:`~repro.experiments.serialize.tuning_context`: app
fingerprint, machine, cap, seed, noise, fault plan), so multi-tenant
sharing can never collide two different experiments that happen to
share a label.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.history import (
    experiment_key,
    region_from_json,
    region_to_json,
)
from repro.openmp.types import OMPConfig
from repro.obs.trace import traced_span
from repro.service.client import (
    CircuitBreaker,
    ServiceClient,
    ServiceError,
)
from repro.telemetry.bus import bus

if TYPE_CHECKING:  # avoid the runner <-> source import cycle
    from repro.experiments.runner import ExperimentSetup
    from repro.workloads.base import Application

#: bump when the shared-knowledge payload layout or digest inputs
#: change; old service entries then simply miss.
KNOWLEDGE_SCHEMA_VERSION = 1

#: bound on the process-wide memo tier (FIFO admission, like the
#: evaluation memo in :mod:`repro.openmp.batch`).
MEMO_CAPACITY = 512

#: Entry = (configs per region, objective values per region).
Entry = tuple[dict[str, OMPConfig], dict[str, float | None]]


@dataclass(frozen=True)
class ConfigKey:
    """One tuning context, in both keying schemes."""

    experiment: str  #: human-readable ``app|machine|cap|workload``
    digest: str      #: content-addressed digest (service / memo key)


def config_key(app: "Application", setup: "ExperimentSetup") -> ConfigKey:
    """Key for the tuned knowledge of one (app, machine, cap) context.

    One field list, two schema stamps: the digest covers the same
    tuning context as a store's shared-history key, stamped with
    :data:`KNOWLEDGE_SCHEMA_VERSION` so the service payload schema can
    evolve without invalidating local stores.
    """
    from repro.experiments.serialize import context_digest, tuning_context

    return ConfigKey(
        experiment=experiment_key(
            app.name, setup.spec.name, setup.cap_w, app.workload
        ),
        digest=context_digest(
            KNOWLEDGE_SCHEMA_VERSION, tuning_context(app, setup)
        ),
    )


# ---------------------------------------------------------------------------
# entry <-> payload
# ---------------------------------------------------------------------------
def entry_to_payload(key: ConfigKey, entry: Entry) -> dict:
    configs, values = entry
    return {
        "schema": KNOWLEDGE_SCHEMA_VERSION,
        "experiment": key.experiment,
        "regions": {
            region: region_to_json(cfg, values.get(region))
            for region, cfg in configs.items()
        },
    }


def payload_to_entry(payload: dict) -> Entry:
    """Inverse of :func:`entry_to_payload`; raises ``KeyError`` /
    ``ValueError`` / ``TypeError`` on malformed payloads (the caller
    treats those as a failed tier, not a crash)."""
    if payload.get("schema") != KNOWLEDGE_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported knowledge schema {payload.get('schema')!r}"
        )
    regions = payload["regions"]
    if not isinstance(regions, dict) or not regions:
        raise ValueError("knowledge entry holds no regions")
    configs: dict[str, OMPConfig] = {}
    values: dict[str, float | None] = {}
    for region, blob in regions.items():
        configs[region], values[region] = region_from_json(blob)
    return configs, values


# ---------------------------------------------------------------------------
# the source tiers
# ---------------------------------------------------------------------------
class ConfigSource(ABC):
    """One tier of tuned-config knowledge.

    ``lookup``/``publish`` NEVER raise for operational failures - a
    failing tier appends a degradation note to ``self.notes`` (drained
    by the caller into ``StrategyRunResult.degradations``) and reports
    a miss, so the chain above it can fall through.
    """

    name: str = "?"
    #: whether a hit from this tier may be promoted into the tiers
    #: above it.  False for *derived* knowledge (the surrogate
    #: cold-start tier): predictions must never be written into the
    #: measured-knowledge tiers as if they had been tuned.
    promote: bool = True

    def __init__(self) -> None:
        self.notes: list[str] = []

    @abstractmethod
    def lookup(self, key: ConfigKey) -> Entry | None:
        """Tuned entry for ``key``, or ``None`` (miss or failure)."""

    @abstractmethod
    def publish(self, key: ConfigKey, entry: Entry) -> None:
        """Best-effort write-through of freshly tuned knowledge."""

    def drain_notes(self) -> list[str]:
        notes, self.notes = self.notes, []
        return notes

    def _note(self, text: str) -> None:
        note = f"config source {self.name}: {text}"
        if note not in self.notes:
            self.notes.append(note)


#: the process-wide memo tier's backing map (digest -> payload).
_PROCESS_MEMO: dict[str, dict] = {}


class MemoSource(ConfigSource):
    """Process-wide warm memo: tuned entries survive across sweeps and
    strategies within one process, FIFO-bounded."""

    name = "memo"

    def __init__(
        self,
        memo: dict[str, dict] | None = None,
        capacity: int = MEMO_CAPACITY,
    ) -> None:
        super().__init__()
        self.memo = _PROCESS_MEMO if memo is None else memo
        self.capacity = capacity

    def lookup(self, key: ConfigKey) -> Entry | None:
        payload = self.memo.get(key.digest)
        if payload is None:
            return None
        try:
            return payload_to_entry(payload)
        except (KeyError, TypeError, ValueError):
            self.memo.pop(key.digest, None)
            self._note("held a malformed entry; discarded it")
            return None

    def publish(self, key: ConfigKey, entry: Entry) -> None:
        if key.digest not in self.memo:
            while len(self.memo) >= self.capacity:
                self.memo.pop(next(iter(self.memo)))
        self.memo[key.digest] = entry_to_payload(key, entry)


class ServiceSource(ConfigSource):
    """The remote daemon tier: every failure mode - refused, timed
    out, torn, corrupt, mid-write crash, open breaker - reports a
    miss plus a degradation note.  Notes carry only the failure *type*
    (never addresses or ports), so degradation lists stay byte-stable
    across runs bound to different ephemeral ports."""

    name = "service"

    def __init__(
        self,
        client: ServiceClient,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        super().__init__()
        self.client = client
        self.breaker = breaker if breaker is not None else CircuitBreaker()

    def _guarded(self, what: str, fn) -> object | None:
        """Run one client op under the breaker; ``None`` on failure."""
        if not self.breaker.allow():
            self._note(
                f"circuit open; skipped remote {what} and fell back"
            )
            return None
        try:
            result = fn()
        except ServiceError as exc:
            self.breaker.record_failure()
            self._note(
                f"remote {what} failed ({type(exc).__name__}); "
                "fell back to next tier"
            )
            tb = bus()
            if tb.enabled:
                tb.count("service.fallbacks")
                tb.emit(
                    "service.fallback",
                    op=what,
                    error=type(exc).__name__,
                )
            return None
        self.breaker.record_success()
        return result

    def lookup(self, key: ConfigKey) -> Entry | None:
        payload = self._guarded(
            "lookup", lambda: self.client.get(key.digest)
        )
        if payload is None:
            return None
        try:
            return payload_to_entry(payload)  # type: ignore[arg-type]
        except (KeyError, TypeError, ValueError):
            self._note(
                "returned a malformed entry; fell back to next tier"
            )
            return None

    def publish(self, key: ConfigKey, entry: Entry) -> None:
        payload = entry_to_payload(key, entry)
        self._guarded(
            "publish", lambda: self.client.put(key.digest, payload)
        )


# ---------------------------------------------------------------------------
# the chain
# ---------------------------------------------------------------------------
class ChainedConfigSource(ConfigSource):
    """Walk tiers in degradation order; never raise; promote hits."""

    name = "chain"

    def __init__(self, sources: list[ConfigSource]) -> None:
        super().__init__()
        self.sources = list(sources)

    def lookup(self, key: ConfigKey) -> Entry | None:
        tb = bus()
        with traced_span(
            "config_source.lookup", experiment=key.experiment
        ) as span_attrs:
            missed: list[ConfigSource] = []
            for source in self.sources:
                entry = source.lookup(key)
                if entry is not None:
                    span_attrs["tier"] = source.name
                    if tb.enabled:
                        tb.count(f"config_source.hits.{source.name}")
                        tb.emit(
                            "config_source.hit",
                            tier=source.name,
                            experiment=key.experiment,
                        )
                    # re-warm the tiers above that missed (or failed):
                    # a recovered daemon gets its knowledge back from
                    # the clients that kept it alive locally.  Tiers
                    # serving derived (unmeasured) knowledge opt out.
                    if source.promote:
                        for upper in missed:
                            upper.publish(key, entry)
                    return entry
                missed.append(source)
            if tb.enabled:
                tb.count("config_source.misses")
                tb.emit(
                    "config_source.miss", experiment=key.experiment
                )
            return None

    def publish(self, key: ConfigKey, entry: Entry) -> None:
        for source in self.sources:
            source.publish(key, entry)

    def drain_notes(self) -> list[str]:
        notes = super().drain_notes()
        for source in self.sources:
            notes.extend(source.drain_notes())
        return notes


def default_chain(
    service: str | tuple[str, int] | None = None,
    *,
    faults=None,
    deadline_s: float | None = None,
    memo: dict[str, dict] | None = None,
    breaker: CircuitBreaker | None = None,
    surrogate: ConfigSource | None = None,
) -> ChainedConfigSource:
    """The standard degradation order: service -> memo -> surrogate
    cold start.

    Every part is optional; the chain always contains the memo tier,
    so even a bare chain shares tuning within the process.
    ``surrogate`` (a :class:`~repro.surrogate.source.
    SurrogateColdStartSource`) goes last: model predictions only serve
    when every measured-knowledge tier missed, and they are never
    promoted upward.
    """
    from repro.service.client import DEFAULT_DEADLINE_S

    sources: list[ConfigSource] = []
    if service is not None:
        client = ServiceClient(
            service,
            deadline_s=(
                DEFAULT_DEADLINE_S if deadline_s is None else deadline_s
            ),
            faults=faults,
        )
        sources.append(ServiceSource(client, breaker=breaker))
    sources.append(MemoSource(memo=memo))
    if surrogate is not None:
        sources.append(surrogate)
    return ChainedConfigSource(sources)
