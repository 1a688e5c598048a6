"""Append-only, checksummed JSONL logs: the one format for durable state.

Every store that must outlive the process keeps its state in this one
file format: the sweep journal (completed sweep cells and ARCS-Online
repeats), the fleet journal, the tuning service's store shards and
the tuned ARCS history.  This module owns the format; those four are
thin typed adapters over :class:`JsonLog`.

Every line has one fixed layout (pure ASCII)::

    {"crc":"<8 hex>","schema":<int>,"rec":<record object>}

``crc`` is the CRC-32 of the line's bytes after the ``"crc"`` field,
exactly as they were written, so verifying a line hashes one slice and
never re-serializes it.  Every read verifies every line.  A line is
*damaged* when it fails its checksum, is blank, is not a record, or is
the unterminated tail a crash mid-append leaves behind; it is
*foreign* when it verifies but carries another schema (a layout change
bumps ``schema``).  Records must be finite: ``encode`` refuses
``NaN``/``inf`` (``ValueError``) before anything is written.

One repair rule covers every kind of damage: the file is moved aside
to ``quarantine/<file name>.<n>`` next to it (numbered, never
overwritten, kept for post-mortem) and the lines that verify are
rewritten atomically, byte for byte.  A torn tail is just one more
damaged line, and damage mid-file keeps the lines on both sides.

One resume rule covers both run logs (the sweep journal and the fleet
journal): a record carries a digest of the context that produced it, a
reader uses only the records whose digest matches its own context, and
running again against the same log is the resume.  A changed context
misses by construction, so no log has a header to check.

A store rewritten whole (the tuned history) never repairs: its reader
rejects the file on any damaged or foreign line (DESIGN.md section 8,
"Whole-file rule").
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.util.atomicio import atomic_write_text

#: length of the ``{"crc":"<8 hex>",`` prefix the checksum does not cover.
_PREFIX_LEN = 18


def encode(record: dict, schema: int) -> bytes:
    """One log line, newline included.

    Raises ``ValueError`` on a non-finite float: strict JSON only."""
    body = b'"schema":%d,"rec":%s}' % (
        schema,
        json.dumps(
            record, separators=(",", ":"), allow_nan=False
        ).encode(),
    )
    return b'{"crc":"%08x",%s\n' % (zlib.crc32(body), body)


def _verify(line: bytes) -> dict | None:
    """The parsed line, or ``None`` when it does not verify."""
    body = line[_PREFIX_LEN:]
    if line[:_PREFIX_LEN] != b'{"crc":"%08x",' % zlib.crc32(body):
        return None
    try:
        return json.loads(line)
    except ValueError:
        return None


@dataclass
class Scan:
    """What one read-only pass over a log found."""

    records: list[dict] = field(default_factory=list)
    #: the verified lines, byte for byte: what a repair rewrites.
    kept: list[bytes] = field(default_factory=list)
    damaged: int = 0
    foreign: int = 0
    #: bytes on disk; 0 for a missing or empty log.
    size: int = 0


class JsonLog:
    """One append-only checksummed JSONL file (see the module doc)."""

    #: bump when the record layout changes; lines stamped with another
    #: schema are never returned and are quarantined on repair.
    schema = 1

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def scan(self) -> Scan:
        """Verify every line; read-only (a missing log scans empty)."""
        scan = Scan()
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return scan
        scan.size = len(data)
        lines = data.split(b"\n")
        if lines.pop():
            scan.damaged += 1  # unterminated tail: an append cut short
        for line in lines:
            blob = _verify(line)
            if blob is None:
                scan.damaged += 1
            elif blob.get("schema") != self.schema:
                scan.foreign += 1
            elif "rec" in blob:
                scan.records.append(blob["rec"])
                scan.kept.append(line + b"\n")
            else:
                scan.damaged += 1
        return scan

    def repair(self, scan: Scan) -> bool:
        """Quarantine the log when ``scan`` found damaged or foreign
        lines and rewrite the verified ones; returns whether it did."""
        if not (scan.damaged or scan.foreign):
            return False
        qdir = self.path.parent / "quarantine"
        qdir.mkdir(parents=True, exist_ok=True)
        n = 0
        while (qdir / f"{self.path.name}.{n}").exists():
            n += 1
        os.replace(self.path, qdir / f"{self.path.name}.{n}")
        atomic_write_text(self.path, b"".join(scan.kept).decode())
        return True

    def load_records(self) -> list[dict]:
        """The log's records, after repairing any damage."""
        scan = self.scan()
        self.repair(scan)
        return scan.records

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def append_records(
        self, records: list[dict], *, fsync: bool = True
    ) -> None:
        """Append ``records`` in one write, flushed and (unless
        ``fsync=False``) fsynced so they survive the process dying
        immediately after."""
        data = b"".join(encode(r, self.schema) for r in records)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "ab") as handle:
            handle.write(data)
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())

    def rewrite(self, records: list[dict]) -> int:
        """Replace the whole log with ``records`` atomically; returns
        the bytes written."""
        data = b"".join(encode(r, self.schema) for r in records)
        atomic_write_text(self.path, data.decode())
        return len(data)

    def clear(self) -> None:
        """Start the log over, empty."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_bytes(b"")
