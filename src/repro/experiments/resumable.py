"""Run-checkpoint persistence for crash-recoverable measurements.

The experiment runner writes one checkpoint after every completed
region invocation of an ARCS-Online run (and at every repeat
boundary).  A checkpoint is a :class:`~repro.util.jsonlog.JsonLog`
whose header is the run's ``meta`` (identifies the experiment; resume
refuses a mismatch) and whose single record is the snapshot::

    {
      "runs": [...],         # completed repeats (full AppRunResults)
      "fallbacks": {...},    # per-region tuning fallbacks so far
      "dropouts": N,
      "configs": {...},      # chosen configs after the last repeat
      "overhead": {...},
      "cap_changes": [...],
      "next_run": R,         # first repeat not fully completed
      "active": {...} | null # mid-repeat state (progress, node,
                             # runtime, injector, controller,
                             # supervisor, capsched snapshots)
    }

Every write rewrites the log atomically, so a kill at any instant
leaves either the previous checkpoint or the new one on disk - never a
torn file - and a checkpoint with any damaged or foreign line is
refused, never resumed.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.checkpoint import CheckpointError
from repro.telemetry.bus import bus
from repro.util.jsonlog import JsonLog

#: bump whenever the checkpoint layout or any snapshot format changes;
#: resuming from an older schema fails loudly instead of mis-restoring.
RUN_CHECKPOINT_SCHEMA = 2


class RunCheckpoint(JsonLog):
    """One run's checkpoint: header ``meta``, one snapshot record."""

    schema = RUN_CHECKPOINT_SCHEMA
    name = "ARCS-Online"


class SimulatedKill(RuntimeError):
    """Raised by the runner's ``kill_after`` test hook *after* the
    checkpoint write for the target invocation, simulating a process
    killed at that exact point.  The chaos soak and the checkpoint
    tests catch it and resume from the file left behind."""

    def __init__(self, measurements: int, path: Path) -> None:
        self.measurements = measurements
        self.path = path
        super().__init__(
            f"simulated kill after {measurements} completed "
            f"measurement(s); checkpoint left at {path}"
        )


def write_run_checkpoint(
    path: str | Path, meta: dict, snapshot: dict
) -> None:
    """Atomically persist one checkpoint (non-finite floats in a
    snapshot fail the write loudly, see :func:`~repro.util.jsonlog.
    encode`)."""
    written = RunCheckpoint(path).rewrite([snapshot], header=meta)
    tb = bus()
    if tb.enabled:
        tb.count("checkpoint.writes")
        tb.emit("checkpoint.write", bytes=written)


def load_run_checkpoint(path: str | Path) -> dict:
    """The checkpoint's snapshot.  Raises :class:`CheckpointError`
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
            "snapshot(s)); re-run without --resume-from"
        )
    return scan.records[0]
