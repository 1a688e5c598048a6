"""Append-only, checksummed JSONL logs: the one format for durable state.

The sweep journal, the fleet journal and the tuning service's store
shards all keep their state as an append-only JSONL file that must
outlive the process.  This module owns that file format; those three
are thin typed adapters over :class:`JsonLog`.

Every line has one fixed layout (pure ASCII)::

    {"crc":"<8 hex>","schema":<int>,"head":<header object>}   first line only
    {"crc":"<8 hex>","schema":<int>,"rec":<record object>}

``crc`` is the CRC-32 of the line's bytes after the ``"crc"`` field,
exactly as they were written, so verifying a line hashes one slice and
never re-serializes it.  Every read verifies every line.  A line is
*damaged* when it fails its checksum, is blank, is a header anywhere
but first, or is the unterminated tail a crash mid-append leaves
behind; it is *foreign* when it verifies but carries another schema
(a layout change bumps ``schema``).

One repair rule covers every kind of damage: the file is moved aside
to ``quarantine/<file name>.<n>`` next to it (numbered, never
overwritten, kept for post-mortem) and the lines that verify are
rewritten atomically, byte for byte.  A torn tail is just one more
damaged line, and damage mid-file keeps the lines on both sides.

A log that identifies a run starts with a header.  :meth:`JsonLog.open`
applies one rule to it: a fresh run, or a resume onto a missing or
empty log, starts the log over with its header; a resume onto a
non-empty log whose header is absent or differs raises
:class:`LogMismatchError` naming the mismatched keys, and leaves the
file untouched.
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


class LogMismatchError(ValueError):
    """The log on disk was written by a different run (other task grid,
    seeds, plan or fault plan); resuming would silently mix
    incompatible results, so it is refused instead."""


def encode(record: dict, schema: int, *, kind: str = "rec") -> bytes:
    """One log line, newline included (``kind="head"`` for a header)."""
    body = b'"schema":%d,"%s":%s}' % (
        schema,
        kind.encode(),
        json.dumps(record, separators=(",", ":")).encode(),
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

    header: dict | None = None
    records: list[dict] = field(default_factory=list)
    #: the verified lines, byte for byte (header first): what a repair
    #: rewrites.
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
    #: what wrote the log, for header-mismatch messages.
    name = "log"

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
        for index, line in enumerate(lines):
            blob = _verify(line)
            if blob is None:
                scan.damaged += 1
            elif blob.get("schema") != self.schema:
                scan.foreign += 1
            elif "rec" in blob:
                scan.records.append(blob["rec"])
                scan.kept.append(line + b"\n")
            elif "head" in blob and index == 0:
                scan.header = blob["head"]
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
    # the header rule
    # ------------------------------------------------------------------
    def open(self, header: dict, *, resume: bool) -> list[dict]:
        """Start the log for the run ``header`` identifies; returns the
        records to resume from (none unless ``resume``)."""
        if resume:
            scan = self.scan()
            if scan.size:
                self.check_header(header, scan)
                self.repair(scan)
                return scan.records
        self.clear()
        self.write_header(header)
        return []

    def read_header(self) -> dict | None:
        """The header, or ``None`` when the first line is not one."""
        return self.scan().header

    def write_header(self, header: dict) -> None:
        """Record the run identity as the log's first line."""
        self._append([encode(header, self.schema, kind="head")])

    def check_header(self, expected: dict, scan: Scan | None = None) -> None:
        """Raise :class:`LogMismatchError` naming every key where the
        log's header differs from ``expected`` (all of them when the
        log has no header)."""
        found = (scan or self.scan()).header
        seen = found or {}
        mismatched = sorted(
            key
            for key in expected.keys() | seen.keys()
            if expected.get(key) != seen.get(key)
        )
        if found is None or mismatched:
            problem = (
                f"has no {self.name} header"
                if found is None
                else f"was written by a different {self.name} run"
            )
            raise LogMismatchError(
                f"journal {self.path} {problem} (mismatched: "
                f"{', '.join(mismatched)}); resuming would mix "
                "incompatible results - use a fresh path or re-run "
                "without resume"
            )

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def append_records(
        self, records: list[dict], *, fsync: bool = True
    ) -> None:
        """Append ``records`` in one write, flushed and (unless
        ``fsync=False``) fsynced so they survive the process dying
        immediately after."""
        self._append([encode(r, self.schema) for r in records], fsync)

    def _append(self, lines: list[bytes], fsync: bool = True) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "ab") as handle:
            handle.write(b"".join(lines))
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())

    def rewrite(self, records: list[dict]) -> None:
        """Replace the whole log with ``records`` atomically."""
        atomic_write_text(
            self.path,
            b"".join(encode(r, self.schema) for r in records).decode(),
        )

    def clear(self) -> None:
        """Start the log over, empty."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_bytes(b"")
