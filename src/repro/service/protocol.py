"""The newline-delimited JSON wire protocol.

One request per line, one response per line, both schema-stamped.
Requests::

    {"schema": 1, "op": "ping"}
    {"schema": 1, "op": "get",  "key": "<digest>"}
    {"schema": 1, "op": "put",  "key": "<digest>", "payload": {...}}
    {"schema": 1, "op": "stats"}
    {"schema": 1, "op": "shutdown"}            # orderly close + fsync

Responses always carry ``ok``; a ``get`` adds ``hit`` and (on a hit)
``payload``.  Errors come back as ``{"ok": false, "error": "..."}`` -
a *protocol*-level problem (malformed JSON, unknown op, foreign
schema) is answered, never crashed on, so one bad tenant cannot take
the daemon down for the others.

The module is dependency-free in both directions (no store, no
asyncio) so the daemon, the blocking client and the tests share one
source of truth for framing and validation.
"""

from __future__ import annotations

import json
import math

#: bump when the wire layout changes; daemon and client refuse
#: mismatched peers instead of mis-parsing them.
PROTOCOL_VERSION = 1

#: maximum accepted line length (a malformed / hostile peer cannot
#: balloon daemon memory with an unterminated line).
MAX_LINE_BYTES = 4 * 1024 * 1024

#: ops a request may carry.
OPS = ("ping", "get", "put", "stats", "shutdown")


class ProtocolError(ValueError):
    """A frame violated the wire protocol."""


def encode(message: dict) -> bytes:
    """One frame: compact JSON + newline.  Insertion order is kept
    (NOT sorted): payload dicts round-trip byte-identically, which the
    determinism contract of served tuning entries depends on."""
    return (
        json.dumps(message, separators=(",", ":")) + "\n"
    ).encode()


def _non_finite(literal: str) -> float:
    raise ProtocolError(f"frame holds a non-finite number {literal}")


def _finite_float(literal: str) -> float:
    value = float(literal)
    if not math.isfinite(value):
        _non_finite(literal)
    return value


def decode(line: bytes | str) -> dict:
    """Parse one frame; raises :class:`ProtocolError` on anything that
    is not a JSON object, and on ``NaN``/``Infinity`` or a float that
    overflows: the store's logs hold strict JSON only, so a
    non-finite payload is refused here, where it enters."""
    if isinstance(line, bytes):
        line = line.decode(errors="replace")
    try:
        blob = json.loads(
            line, parse_constant=_non_finite, parse_float=_finite_float
        )
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from exc
    if not isinstance(blob, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(blob).__name__}"
        )
    return blob


def request(op: str, **fields: object) -> dict:
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; known: {OPS}")
    return {"schema": PROTOCOL_VERSION, "op": op, **fields}


def validate_request(blob: dict) -> tuple[str, dict]:
    """Check an incoming request frame; returns ``(op, blob)``."""
    if blob.get("schema") != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol schema {blob.get('schema')!r} "
            f"(this daemon speaks {PROTOCOL_VERSION})"
        )
    op = blob.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; known: {OPS}")
    if op in ("get", "put") and not isinstance(blob.get("key"), str):
        raise ProtocolError(f"op {op!r} needs a string 'key'")
    if op == "put" and not isinstance(blob.get("payload"), dict):
        raise ProtocolError("op 'put' needs an object 'payload'")
    return op, blob


def ok(**fields: object) -> dict:
    return {"schema": PROTOCOL_VERSION, "ok": True, **fields}


def error(message: str) -> dict:
    return {"schema": PROTOCOL_VERSION, "ok": False, "error": message}


def validate_response(blob: dict) -> dict:
    """Check a response frame client-side; raises on foreign schemas
    and malformed shapes (a torn or bit-flipped payload surfaces here,
    not as a silent mis-read)."""
    if blob.get("schema") != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported response schema {blob.get('schema')!r}"
        )
    if not isinstance(blob.get("ok"), bool):
        raise ProtocolError("response is missing boolean 'ok'")
    return blob
