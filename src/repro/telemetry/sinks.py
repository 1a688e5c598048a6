"""Telemetry sinks: fsync-batched JSONL and a Chrome-trace exporter.

The JSONL log is the source of truth: one JSON object per line, strict
JSON (``allow_nan=False`` - a non-finite value in a record is a bug,
not something to smuggle past the parser), sorted keys so byte-identity
is a meaningful determinism check.  The Chrome-trace exporter is a pure
function over those lines; ``trace.json`` can always be regenerated
from the JSONL.
"""

from __future__ import annotations

import atexit
import json
import os
import weakref
from pathlib import Path

#: Records buffered before a write+fsync batch.  Each fsync costs
#: ~0.5 ms; at per-invocation record rates a small batch dominates the
#: telemetry overhead budget.  A crash loses at most one batch - and
#: the flight recorder attached to the abort exception covers exactly
#: that tail.
JSONL_BATCH_SIZE = 512

#: one reusable encoder: ``json.dumps`` with non-default options
#: constructs a fresh ``JSONEncoder`` per call, which is measurable at
#: record rates.
_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False
)


#: Live sinks flushed at interpreter exit.  Weak references: a sink
#: that was properly closed (or garbage-collected) drops out on its
#: own; only sinks still open when the process exits are flushed.
_LIVE_SINKS: "weakref.WeakSet[JsonlSink]" = weakref.WeakSet()


def _flush_live_sinks() -> None:
    """atexit hook: a short-lived worker that exits between batches
    must not lose its final (< ``JSONL_BATCH_SIZE``) tail of records."""
    for sink in list(_LIVE_SINKS):
        try:
            sink.close()
        except OSError:
            pass  # exit path: a torn flush is no worse than no flush


atexit.register(_flush_live_sinks)


class JsonlSink:
    """Append telemetry records to a JSONL file, fsyncing in batches."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "w", encoding="utf-8")
        self._pending = 0
        _LIVE_SINKS.add(self)

    def write(self, record: dict) -> None:
        self._fh.write(_ENCODER.encode(record) + "\n")
        self._pending += 1
        if self._pending >= JSONL_BATCH_SIZE:
            self.flush()

    def flush(self) -> None:
        if self._fh.closed:
            return
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._pending = 0

    def close(self) -> None:
        _LIVE_SINKS.discard(self)
        if self._fh.closed:
            return
        self.flush()
        self._fh.close()


def read_jsonl(path: str | Path) -> list[dict]:
    """Records from one JSONL file, tolerating a torn final line (a
    killed run may die mid-write; everything before the tear is good)."""
    records: list[dict] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                break  # torn tail - keep the prefix
    return records


def telemetry_files(directory: str | Path) -> list[Path]:
    """All telemetry JSONL files under ``directory``, sorted by name so
    the merge order (and thus trace.json) is deterministic."""
    return sorted(Path(directory).glob("*.jsonl"))


def load_telemetry_dir(directory: str | Path) -> list[tuple[str, list[dict]]]:
    """``(stem, records)`` per JSONL file in ``directory``.

    A run directory holds one ``telemetry.jsonl``; a sweep directory
    holds the parent's ``sweep.jsonl`` plus one ``task-<runid>.jsonl``
    per cell (including cells from a killed sweep stitched back in by
    running it again).
    """
    loaded = []
    for path in telemetry_files(directory):
        loaded.append((path.stem, read_jsonl(path)))
    if not loaded:
        raise FileNotFoundError(
            f"no telemetry JSONL files found in {directory}"
        )
    return loaded


# ----------------------------------------------------------------------
# Chrome trace / Perfetto export
# ----------------------------------------------------------------------
def export_chrome_trace(
    directory: str | Path, out_path: str | Path | None = None
) -> Path:
    """Convert a telemetry directory into a Perfetto-loadable
    ``trace.json`` (Chrome trace event format, JSON-array flavour).

    Each JSONL file becomes one "process" in the viewer (pid = its
    sorted position) so a sweep's cells land on parallel tracks.  Spans
    become complete ("X") events, point events become instants ("i"),
    timestamps are virtual seconds scaled to microseconds.
    """
    directory = Path(directory)
    if out_path is None:
        out_path = directory / "trace.json"
    events: list[dict] = []
    for pid, (stem, records) in enumerate(load_telemetry_dir(directory)):
        events.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "name": "process_name",
                "args": {"name": stem},
            }
        )
        for record in records:
            events.extend(_trace_events(record, pid))
    out_path = Path(out_path)
    out_path.write_text(
        json.dumps(
            {"traceEvents": events, "displayTimeUnit": "ms"},
            sort_keys=True,
            separators=(",", ":"),
            allow_nan=False,
        )
        + "\n",
        encoding="utf-8",
    )
    return out_path


def _trace_events(record: dict, pid: int) -> list[dict]:
    kind = record.get("type")
    ts_us = float(record.get("ts", 0.0)) * 1e6
    name = record.get("name", "?")
    args = dict(record.get("attrs") or {})
    if kind == "span":
        return [
            {
                "ph": "X",
                "pid": pid,
                "tid": 0,
                "name": name,
                "cat": name.split(".", 1)[0],
                "ts": ts_us,
                "dur": float(record.get("dur", 0.0)) * 1e6,
                "args": args,
            }
        ]
    if kind == "event":
        return [
            {
                "ph": "i",
                "pid": pid,
                "tid": 0,
                "name": name,
                "cat": name.split(".", 1)[0],
                "ts": ts_us,
                "s": "t",
                "args": args,
            }
        ]
    if kind == "meta":
        return [
            {
                "ph": "i",
                "pid": pid,
                "tid": 0,
                "name": name,
                "cat": "meta",
                "ts": ts_us,
                "s": "p",
                "args": args,
            }
        ]
    # aggregated metrics land as counter samples at close time
    if kind == "metric" and record.get("kind") in ("counter", "gauge"):
        return [
            {
                "ph": "C",
                "pid": pid,
                "tid": 0,
                "name": record.get("name", "?"),
                "ts": ts_us,
                "args": {"value": record.get("value", 0.0)},
            }
        ]
    return []
