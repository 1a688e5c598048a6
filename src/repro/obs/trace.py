"""W3C-traceparent-style trace context over the telemetry bus.

A :class:`TraceContext` is an immutable (trace_id, span_id, parent_id)
triple.  One *root* context is derived per entrypoint (CLI session,
daemon process, sweep worker) from its run identity, and
:func:`traced_span` derives child contexts as control flows through
the layers — including across process boundaries, where the context
rides as a ``00-<trace_id>-<span_id>-01`` traceparent string in wire
frames (:mod:`repro.service`), :class:`~repro.experiments.parallel.SweepTask`
fields, and journal records.

Determinism contract
--------------------
Ids never come from randomness or wall-clock.  A root id is the sha256
of the canonical JSON of the entrypoint's identity attrs (run_id, seed,
...); a child span id is the sha256 of ``trace_id:parent_span_id:n``
where ``n`` is the parent bus's per-process child counter.  Two runs at
the same seed therefore produce byte-identical trace ids, which is what
lets the propagation tests pin exact linkage.

Record conventions
------------------
* A span opened by :func:`traced_span` carries a **3-key** trace dict
  ``{"trace_id", "span_id", "parent_id"}`` — it is a *node* in the tree.
* Every other record emitted while a context is ambient is stamped by
  the bus with a **2-key** dict ``{"trace_id", "span_id"}`` — it
  *belongs to* that span but is not itself a tree node.
"""

from __future__ import annotations

import hashlib
import json
import re
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.telemetry.bus import bus

_TRACEPARENT_RE = re.compile(
    r"^00-([0-9a-f]{32})-([0-9a-f]{16})-[0-9a-f]{2}$"
)


@dataclass(frozen=True)
class TraceContext:
    """One node identity in a cross-process trace tree."""

    trace_id: str  # 32 lowercase hex chars, constant across the tree
    span_id: str  # 16 lowercase hex chars, unique per node
    parent_id: str | None = None  # span_id of the parent node, if known

    def to_traceparent(self) -> str:
        """Serialize for a wire frame / task field (W3C shape)."""
        return f"00-{self.trace_id}-{self.span_id}-01"

    @staticmethod
    def from_traceparent(value: object) -> "TraceContext | None":
        """Parse a traceparent string; ``None`` on anything malformed.

        The parent_id of the resulting context is unknown (the string
        only carries the sender's own span id), matching W3C semantics.
        """
        if not isinstance(value, str):
            return None
        m = _TRACEPARENT_RE.match(value)
        if m is None:
            return None
        return TraceContext(trace_id=m.group(1), span_id=m.group(2))


def _digest(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def root_context(**identity: object) -> TraceContext:
    """Derive the deterministic root context for an entrypoint.

    ``identity`` should be the same attrs stamped into the run's meta
    record (run_id, seed, app...), so the trace id is stable across
    reruns at the same seed and recoverable from the meta record.
    """
    canonical = json.dumps(identity, sort_keys=True, default=str)
    return TraceContext(
        trace_id=_digest("trace:" + canonical)[:32],
        span_id=_digest("span:" + canonical)[:16],
    )


def child_context(tb, parent: TraceContext) -> TraceContext:
    """Derive the next child of ``parent`` on bus ``tb``.

    The per-bus counter makes sibling ids distinct; including the
    parent span id makes ids distinct across worker processes whose
    counters both start at zero.
    """
    n = tb.next_trace_index()
    span_id = _digest(f"{parent.trace_id}:{parent.span_id}:{n}")[:16]
    return TraceContext(
        trace_id=parent.trace_id,
        span_id=span_id,
        parent_id=parent.span_id,
    )


@contextmanager
def traced_span(name: str, **attrs: object) -> Iterator[dict]:
    """A bus span that is also a trace-tree node.

    Pushes a child of the ambient context for the duration of the
    body (so nested records are stamped as belonging to it), then
    writes the span record with the full 3-key trace dict.  Yields a
    mutable attribute dict: attributes added inside the body land on
    the span record.  On a disabled bus this yields a throwaway dict
    and records nothing; with no ambient context the span is written
    without a trace dict.
    """
    tb = bus()
    if not tb.enabled:
        yield {}
        return
    parent = tb.trace
    ctx = None if parent is None else child_context(tb, parent)
    tb.trace = ctx
    span_attrs = dict(attrs)
    begin, seq = tb.span_begin()
    try:
        yield span_attrs
    finally:
        # restore the parent *before* writing the node record: the
        # explicit trace= dict below must win over ambient stamping
        tb.trace = parent
        tb.span_finish(
            name,
            begin,
            seq,
            trace=None if ctx is None else {
                "trace_id": ctx.trace_id,
                "span_id": ctx.span_id,
                "parent_id": ctx.parent_id,
            },
            **span_attrs,
        )


# ----------------------------------------------------------------------
# tree stitching
# ----------------------------------------------------------------------
def _fmt_dur(dur: object) -> str:
    if not isinstance(dur, (int, float)):
        return ""
    return f" [{dur:.3f}s]"


def build_trace_trees(loaded: list[tuple[str, list[dict]]]) -> dict:
    """Stitch records from many files into per-trace span trees.

    ``loaded`` is ``[(stem, records)]`` as returned by
    :func:`repro.telemetry.sinks.load_telemetry_dir`.  Returns
    ``{trace_id: {"nodes": {span_id: node}, "roots": [span_id]}}``
    where each node is ``{"name", "ts", "seq", "dur", "stem",
    "attrs", "parent_id", "children": [span_id], "events": int}``.

    Span ids referenced as parents but never written as nodes (e.g. a
    worker's handoff parent living in another process that emitted no
    node record, or a CLI session root that only appears in meta) are
    synthesized as placeholder nodes, labeled from the file's meta
    record when one matches.
    """
    trees: dict[str, dict] = {}
    meta_by_span: dict[tuple[str, str], dict] = {}
    for stem, records in loaded:
        for rec in records:
            trace = rec.get("trace")
            if not isinstance(trace, dict):
                continue
            trace_id = trace.get("trace_id")
            span_id = trace.get("span_id")
            if not trace_id or not span_id:
                continue
            tree = trees.setdefault(trace_id, {"nodes": {}, "roots": []})
            nodes = tree["nodes"]
            if rec.get("type") == "span" and "parent_id" in trace:
                node = nodes.setdefault(span_id, _blank_node())
                node.update(
                    name=rec.get("name", "?"),
                    ts=rec.get("ts", 0.0),
                    seq=rec.get("seq", 0),
                    dur=rec.get("dur"),
                    stem=stem,
                    attrs=rec.get("attrs", {}),
                    parent_id=trace.get("parent_id"),
                    synthetic=False,
                )
            else:
                node = nodes.setdefault(span_id, _blank_node())
                node["events"] += 1
                if rec.get("type") == "meta":
                    meta_by_span[(trace_id, span_id)] = {
                        "stem": stem,
                        "attrs": rec.get("attrs", {}),
                    }
    for trace_id, tree in trees.items():
        nodes = tree["nodes"]
        # synthesize parents referenced but never written
        for span_id in list(nodes):
            parent_id = nodes[span_id].get("parent_id")
            if parent_id and parent_id not in nodes:
                nodes[parent_id] = _blank_node()
        for span_id, node in nodes.items():
            if node["synthetic"]:
                meta = meta_by_span.get((trace_id, span_id))
                if meta is not None:
                    node["stem"] = meta["stem"]
                    attrs = meta["attrs"]
                    label = attrs.get("command") or attrs.get("task")
                    node["name"] = (
                        f"session:{label}" if label else "session"
                    )
                    node["attrs"] = dict(attrs)
        for span_id, node in nodes.items():
            parent_id = node.get("parent_id")
            if parent_id and parent_id in nodes:
                nodes[parent_id]["children"].append(span_id)
            else:
                tree["roots"].append(span_id)

        def order(sid: str) -> tuple:
            n = nodes[sid]
            return (n.get("ts", 0.0), n.get("seq", 0), n.get("stem", ""))

        for node in nodes.values():
            node["children"].sort(key=order)
        tree["roots"].sort(key=order)
    return trees


def _blank_node() -> dict:
    return {
        "name": "(external)",
        "ts": 0.0,
        "seq": 0,
        "dur": None,
        "stem": "",
        "attrs": {},
        "parent_id": None,
        "children": [],
        "events": 0,
        "synthetic": True,
    }


def render_trace_tree(loaded: list[tuple[str, list[dict]]]) -> str:
    """Render every stitched trace tree as indented ASCII."""
    trees = build_trace_trees(loaded)
    if not trees:
        return "no trace-correlated records found\n"
    lines: list[str] = []
    for trace_id in sorted(trees):
        tree = trees[trace_id]
        nodes = tree["nodes"]
        lines.append(f"trace {trace_id}")

        def walk(span_id: str, depth: int) -> None:
            node = nodes[span_id]
            indent = "  " * depth
            attrs = node["attrs"]
            attr_bits = " ".join(
                f"{k}={attrs[k]}"
                for k in sorted(attrs)
                if isinstance(attrs[k], (str, int, float, bool))
            )
            extra = f"  {attr_bits}" if attr_bits else ""
            stem = f" <{node['stem']}>" if node["stem"] else ""
            events = (
                f" (+{node['events']} records)" if node["events"] else ""
            )
            lines.append(
                f"{indent}- {node['name']}"
                f"{_fmt_dur(node['dur'])}{stem}{events}{extra}"
            )
            for child in node["children"]:
                walk(child, depth + 1)

        for root in tree["roots"]:
            walk(root, 1)
        lines.append("")
    return "\n".join(lines)
