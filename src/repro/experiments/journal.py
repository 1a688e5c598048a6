"""Crash-safe sweep journal: resume interrupted sweeps cell by cell.

The result cache (:mod:`repro.experiments.cache`) already memoizes
completed cells, but it is optional, shared across sweeps, and keyed
only by experiment digest - it cannot say *which sweep* a result
belongs to or whether a sweep finished.  The journal is the
sweep-scoped complement: a :class:`~repro.util.jsonlog.JsonLog` whose
header identifies the sweep (task-grid fingerprint, seeds, fault
plans) and where the executor records each completed cell (digest +
full-fidelity result) the moment it finishes, fsynced so a ``kill -9``
never loses a completed cell.

On resume (``ParallelSweepExecutor(..., resume=True)``) completed
cells are served from the journal and only the remainder executes.
Because results round-trip through the same serializer as the cache
(floats via ``repr``), a killed-and-resumed sweep produces output
byte-identical to an uninterrupted run at the same seed.  Every line
is checksummed, so a torn tail or a flipped bit is quarantined and
that cell re-runs instead of being replayed.
"""

from __future__ import annotations

from repro.experiments.cache import result_from_json, result_to_json
from repro.experiments.runner import StrategyRunResult
from repro.util.jsonlog import JsonLog

#: bump when the journal record layout changes; a journal of another
#: schema has no valid header, so ``--resume`` refuses it.
JOURNAL_SCHEMA_VERSION = 2


class SweepJournal(JsonLog):
    """Append-only completed-cell log for one sweep invocation."""

    schema = JOURNAL_SCHEMA_VERSION
    name = "sweep"

    @staticmethod
    def cells(records: list[dict]) -> dict[str, StrategyRunResult]:
        """Completed cells keyed by experiment digest."""
        return {r["digest"]: result_from_json(r["result"]) for r in records}

    def load(self) -> dict[str, StrategyRunResult]:
        """Completed cells keyed by digest, after repairing damage."""
        return self.cells(self.load_records())

    def run_ids(self) -> dict[str, str]:
        """Telemetry run-ids of journaled cells, keyed by digest.

        Lets ``sweep --resume`` (and ``repro trace``) associate each
        completed cell with its ``task-<run_id>.jsonl`` trace file.
        Cells journaled without telemetry are absent.
        """
        return self._field_by_digest("run_id")

    def traceparents(self) -> dict[str, str]:
        """Trace-context handoffs of journaled cells, keyed by digest.

        A resumed sweep re-announces each reused cell with the
        traceparent the original sweep assigned it, so the stitched
        trace tree stays whole across the kill/resume boundary.
        """
        return self._field_by_digest("trace")

    def _field_by_digest(self, field: str) -> dict[str, str]:
        records = self.scan().records
        return {r["digest"]: r[field] for r in records if field in r}

    def append(
        self,
        digest: str,
        label: str,
        result: StrategyRunResult,
        run_id: str | None = None,
        trace: str | None = None,
    ) -> None:
        """Record one completed cell durably (flush + fsync) so the
        entry survives the process dying immediately after.

        ``run_id`` is the cell's telemetry run identifier; carrying it
        here lets a resumed sweep stitch the per-cell trace files of a
        killed sweep into one timeline.  ``trace`` is the traceparent
        handed to the cell's worker, preserved for the same
        cross-resume stitching.
        """
        record = {
            "digest": digest,
            "task": label,
            "result": result_to_json(result),
        }
        if run_id is not None:
            record["run_id"] = run_id
        if trace is not None:
            record["trace"] = trace
        self.append_records([record])
