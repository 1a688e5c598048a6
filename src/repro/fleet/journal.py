"""Crash-safe fleet journal: resume a killed fleet run byte-identically.

A :class:`~repro.util.jsonlog.JsonLog` whose header identifies the
fleet run (fleet-plan and fault-plan fingerprints, seed, global cap)
and whose records are one *complete* simulation snapshot per finished
step - node cells, allocator, membership, fault-injector counters and
the cumulative event log - fsynced before the step is considered done.

Because every snapshot is self-contained, resume only needs the last
verified record: restore it, continue from ``step + 1``, and the final
:class:`~repro.fleet.sim.FleetResult` JSON is byte-identical to an
uninterrupted run.
"""

from __future__ import annotations

from repro.util.jsonlog import JsonLog

#: bump when the snapshot layout changes; a journal of another schema
#: has no valid header, so ``--resume`` refuses it.
FLEET_JOURNAL_SCHEMA = 2


class FleetJournal(JsonLog):
    """Append-only per-step snapshot log for one fleet invocation."""

    schema = FLEET_JOURNAL_SCHEMA
    name = "fleet"

    @staticmethod
    def last_snapshot(records: list[dict]) -> tuple[int, dict] | None:
        """The newest ``(step, state)`` snapshot among ``records``."""
        if not records:
            return None
        return int(records[-1]["step"]), records[-1]["state"]

    def load_last_snapshot(self) -> tuple[int, dict] | None:
        """The newest snapshot on disk, after repairing damage."""
        return self.last_snapshot(self.load_records())

    def append_snapshot(self, step: int, state: dict) -> None:
        """Record one finished step durably (flush + fsync)."""
        self.append_records([{"step": step, "state": state}])
