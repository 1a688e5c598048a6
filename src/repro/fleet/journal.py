"""Crash-safe fleet journal: resume a killed fleet run byte-identically.

A :class:`~repro.util.jsonlog.JsonLog` of one *complete* simulation
snapshot per finished step - node cells, allocator, membership,
fault-injector counters and the cumulative event log - fsynced before
the step is considered done.  Each snapshot carries the ``digest`` of
the fleet context that produced it (fleet-plan and fault-plan
fingerprints, seed, global cap, node count), so one journal can hold
several runs and a run only ever restores its own snapshots.

Because every snapshot is self-contained, resume only needs the newest
verified record with a matching digest: restore it, continue from
``step + 1``, and the final :class:`~repro.fleet.sim.FleetResult` JSON
is byte-identical to an uninterrupted run.  Running again against the
same journal is the resume; a run with no matching snapshot starts
clean and appends.
"""

from __future__ import annotations

from repro.util.jsonlog import JsonLog

#: bump when the snapshot layout changes; lines of another schema are
#: never restored and are quarantined on load.
FLEET_JOURNAL_SCHEMA = 3


class FleetJournal(JsonLog):
    """Append-only per-step snapshot log of fleet runs."""

    schema = FLEET_JOURNAL_SCHEMA

    def load_last_snapshot(self, digest: str) -> tuple[int, dict] | None:
        """The newest ``(step, state)`` snapshot of run ``digest`` on
        disk, after repairing damage."""
        for record in reversed(self.load_records()):
            if record["digest"] == digest:
                return int(record["step"]), record["state"]
        return None

    def append_snapshot(self, digest: str, step: int, state: dict) -> None:
        """Record one finished step of run ``digest`` durably (flush +
        fsync)."""
        self.append_records(
            [{"digest": digest, "step": step, "state": state}]
        )
