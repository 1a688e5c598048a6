"""The one store of completed measurements.

A sweep cell, and one repeat of an ARCS-Online run, are pure
functions of their measurement context (see
:func:`~repro.experiments.serialize.measurement_context`), so a
completed one can be replayed instead of measured again.  The
:class:`SweepJournal` is that memo: a content-addressed
:class:`~repro.util.jsonlog.JsonLog` holding two kinds of record,
each keyed by a digest of its context:

* a **cell** - ``digest`` (:func:`~repro.experiments.cache.
  experiment_digest`), ``task``, the full-fidelity ``result`` and, when
  the cell ran with telemetry, its ``run_id`` and ``trace`` handoff;
* an **ARCS-Online repeat** - ``digest`` of the run's checkpoint key,
  ``repeat`` index, and that repeat's ``run``, ``configs``,
  ``overhead``, ``cap_changes``, ``fallbacks`` and ``dropouts``.

Each record is appended and fsynced the moment its measurement
finishes, so a ``kill -9`` never loses a completed one.  There is no
header: a changed setup digests differently and misses by
construction, and re-running against the same log is the resume.
Results round-trip through the same serializer everywhere (floats via
``repr``), so a killed-and-resumed sweep or run produces output
byte-identical to an uninterrupted one.  Every line is checksummed:
loading for use quarantines a torn tail or a flipped bit, and that
cell or repeat re-runs instead of being replayed.
"""

from __future__ import annotations

from pathlib import Path

from repro.experiments.cache import result_from_json, result_to_json
from repro.experiments.runner import StrategyRunResult
from repro.util.jsonlog import JsonLog

#: bump when the record layout changes; lines of another schema are
#: never replayed and are quarantined on load.
JOURNAL_SCHEMA_VERSION = 2

#: the journal's file name inside a store directory (``--cache-dir``).
CELLS_FILE = "cells.jsonl"


class SweepJournal(JsonLog):
    """Append-only log of completed cells and ARCS-Online repeats."""

    schema = JOURNAL_SCHEMA_VERSION

    @classmethod
    def in_dir(cls, directory: str | Path) -> "SweepJournal":
        """The journal of the store directory ``directory``."""
        return cls(Path(directory) / CELLS_FILE)

    @staticmethod
    def cells(records: list[dict]) -> dict[str, StrategyRunResult]:
        """Completed cells keyed by experiment digest."""
        return {
            r["digest"]: result_from_json(r["result"])
            for r in records
            if "result" in r
        }

    def load(self) -> dict[str, StrategyRunResult]:
        """Completed cells keyed by digest, after repairing damage."""
        return self.cells(self.load_records())

    def run_ids(self) -> dict[str, str]:
        """Telemetry run-ids of journaled cells, keyed by digest.

        Lets a re-run sweep (and ``repro trace``) associate each
        completed cell with its ``task-<run_id>.jsonl`` trace file.
        Cells journaled without telemetry are absent.
        """
        return self.field_by_digest(self.scan().records, "run_id")

    def traceparents(self) -> dict[str, str]:
        """Trace-context handoffs of journaled cells, keyed by digest.

        A re-run sweep re-announces each reused cell with the
        traceparent the original sweep assigned it, so the stitched
        trace tree stays whole across the kill/resume boundary.
        """
        return self.field_by_digest(self.scan().records, "trace")

    @staticmethod
    def field_by_digest(records: list[dict], field: str) -> dict[str, str]:
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

    def append_repeat(self, digest: str, repeat: int, state: dict) -> None:
        """Record one completed ARCS-Online repeat durably."""
        self.append_records([{"digest": digest, "repeat": repeat, **state}])

    def repeats(self, digest: str) -> list[dict]:
        """The completed repeats ``0..k-1`` of the run keyed ``digest``
        (the contiguous prefix), after repairing damage."""
        found: dict[int, dict] = {}
        for record in self.load_records():
            if record.get("digest") == digest and "repeat" in record:
                found.setdefault(record["repeat"], record)
        prefix: list[dict] = []
        while len(prefix) in found:
            prefix.append(found[len(prefix)])
        return prefix
