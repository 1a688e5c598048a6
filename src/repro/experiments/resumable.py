"""Run-checkpoint persistence for crash-recoverable measurements.

The experiment runner writes an ARCS-Online run's checkpoint at repeat
boundaries: once before the first repeat and again after every
completed repeat.  A checkpoint is a :class:`~repro.util.jsonlog.
JsonLog` whose header is the run's measurement context (see
:func:`~repro.experiments.serialize.measurement_context`; resume
refuses a mismatch) and whose single record is::

    {
      "runs": [...],         # completed repeats (full AppRunResults)
      "fallbacks": {...},    # per-region tuning fallbacks so far
      "dropouts": N,
      "configs": {...},      # chosen configs after the last repeat
      "overhead": {...},
      "cap_changes": [...],
      "next_run": R          # first repeat not yet completed
    }

Resume re-runs repeat ``R`` from the start.  A repeat is a pure
function of (application, setup, repeat index) - its node, runtime,
fault stream and tuning seed all derive from them - so re-executing
the interrupted repeat reproduces it exactly.  Freezing the system
mid-repeat instead would cost more per region invocation than
re-running a whole repeat does.

Every write rewrites the log atomically, so a kill at any instant
leaves either the previous checkpoint or the new one on disk - never a
torn file - and a checkpoint with any damaged or foreign line is
refused, never resumed.
"""

from __future__ import annotations

from pathlib import Path

from repro.telemetry.bus import bus
from repro.util.jsonlog import JsonLog

#: bump whenever the checkpoint layout changes; resuming from an older
#: schema fails loudly instead of mis-restoring.
RUN_CHECKPOINT_SCHEMA = 3


class CheckpointError(RuntimeError):
    """A checkpoint could not be restored (unreadable, missing, empty,
    torn, damaged or foreign)."""


class RunCheckpoint(JsonLog):
    """One run's checkpoint: header ``meta``, one boundary record."""

    schema = RUN_CHECKPOINT_SCHEMA
    name = "ARCS-Online"


class SimulatedKill(RuntimeError):
    """Raised by the runner's ``kill_after`` test hook once the target
    invocation completes, simulating a process killed at that exact
    point; the file left behind is the last repeat-boundary
    checkpoint.  The chaos soak and the checkpoint tests catch it and
    resume from that file."""

    def __init__(self, measurements: int, path: Path) -> None:
        self.measurements = measurements
        self.path = path
        super().__init__(
            f"simulated kill after {measurements} completed "
            f"measurement(s); checkpoint left at {path}"
        )


def write_run_checkpoint(
    path: str | Path, meta: dict, record: dict
) -> None:
    """Atomically persist one checkpoint (non-finite floats in the
    record fail the write loudly, see :func:`~repro.util.jsonlog.
    encode`)."""
    written = RunCheckpoint(path).rewrite([record], header=meta)
    tb = bus()
    if tb.enabled:
        tb.count("checkpoint.writes")
        tb.emit("checkpoint.write", bytes=written)


def load_run_checkpoint(path: str | Path) -> dict:
    """The checkpoint's record.  Raises :class:`CheckpointError`
    naming the path when the file is unreadable, missing, empty,
    damaged or foreign."""
    log = RunCheckpoint(path)
    try:
        scan = log.scan()
    except OSError as exc:
        raise CheckpointError(
            f"cannot read checkpoint {log.path}: {exc}"
        ) from exc
    if not scan.size:
        raise CheckpointError(f"checkpoint {log.path} is missing or empty")
    if scan.damaged or scan.foreign or len(scan.records) != 1:
        raise CheckpointError(
            f"checkpoint {log.path} is damaged ({scan.damaged} damaged, "
            f"{scan.foreign} foreign line(s), {len(scan.records)} "
            "record(s)); re-run without --resume-from"
        )
    return scan.records[0]
