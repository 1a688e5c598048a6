"""Text rendering of a telemetry log: decision timeline + metrics.

``render_decision_timeline`` answers the post-mortem question the
paper's Section V-C analysis needed: *what did the controller see,
decide and do, in order, and what did it cost?*  It walks the merged
event stream and prints, per region invocation, the config the policy
applied (and why), the objective the measurement produced, whether the
search accepted it, and the power cap in force at the time.
"""

from __future__ import annotations

from repro.util.tables import format_table

#: Event names consumed by the timeline renderer.  Instrumentation and
#: rendering share this module-level contract.
POLICY_APPLY = "policy.apply"
POLICY_REPORT = "policy.report"

#: Non-policy events worth interleaving into the timeline because they
#: change what the controller sees (cap moves, faults, supervision).
TIMELINE_EVENTS = (
    "cap.change",
    "cap.change_rejected",
    "fault.fired",
    "supervise.retry",
    "supervise.pin",
    "supervise.abort",
    "harmony.restart",
    "harmony.reject",
    "harmony.failed",
    "run.aborted",
)


def merged_records(
    loaded: list[tuple[str, list[dict]]]
) -> list[tuple[str, dict]]:
    """Merge per-file record lists into one ``(stem, record)`` stream
    in (ts, file, seq) order.

    Records from different files (sweep cells) interleave by virtual
    time; the per-file seq breaks ties within a file.  Shared by the
    timeline renderer and the :mod:`repro.obs` stream aggregator.
    """
    merged = [
        (float(record.get("ts", 0.0)), file_index,
         int(record.get("seq", 0)), stem, record)
        for file_index, (stem, records) in enumerate(loaded)
        for record in records
    ]
    merged.sort(key=lambda item: item[:3])
    return [(stem, record) for _, _, _, stem, record in merged]


def render_decision_timeline(
    loaded: list[tuple[str, list[dict]]], region: str | None = None
) -> str:
    """The per-region decision timeline as aligned text lines.

    ``loaded`` is the output of
    :func:`repro.telemetry.sinks.load_telemetry_dir`.  ``region``
    restricts the view to one parallel region.
    """
    lines: list[str] = []
    for meta in _meta_records(loaded):
        attrs = meta.get("attrs") or {}
        parts = [f"{k}={attrs[k]}" for k in sorted(attrs)]
        lines.append("# " + " ".join(parts))
    pending: dict[str, dict] = {}
    n_decisions = 0
    for _, record in merged_records(loaded):
        if record.get("type") != "event":
            continue
        name = record.get("name")
        attrs = record.get("attrs") or {}
        rgn = attrs.get("region")
        if region is not None and rgn is not None and rgn != region:
            continue
        ts = float(record.get("ts", 0.0))
        if name == POLICY_APPLY:
            if rgn is not None:
                pending[rgn] = record
            continue
        if name == POLICY_REPORT:
            apply_attrs = (pending.pop(rgn, None) or {}).get("attrs") or {}
            config = apply_attrs.get("config", attrs.get("config", "?"))
            source = apply_attrs.get("source", "?")
            objective = attrs.get("objective")
            obj_text = (
                f"{objective:.6g}"
                if isinstance(objective, (int, float))
                else "-"
            )
            verdict = _verdict(attrs)
            cap = attrs.get("cap_w", apply_attrs.get("cap_w"))
            cap_text = f"cap={cap:g}W" if isinstance(cap, (int, float)) else "uncapped"
            lines.append(
                f"[{ts:10.6f}] {rgn}: {config} ({source}) "
                f"-> objective={obj_text} -> {verdict} [{cap_text}]"
            )
            n_decisions += 1
            continue
        if name in TIMELINE_EVENTS:
            detail = " ".join(
                f"{k}={attrs[k]}" for k in sorted(attrs) if k != "region"
            )
            prefix = f"{rgn}: " if rgn else ""
            lines.append(f"[{ts:10.6f}] ** {name} ** {prefix}{detail}")
    if not n_decisions:
        lines.append("(no policy decisions recorded)")
    return "\n".join(lines)


def _verdict(attrs: dict) -> str:
    accepted = attrs.get("accepted")
    if accepted is True:
        return "accept"
    if accepted is False:
        return "reject"
    return "recorded"


def _meta_records(loaded: list[tuple[str, list[dict]]]) -> list[dict]:
    metas = []
    for _, records in loaded:
        metas.extend(r for r in records if r.get("type") == "meta")
    return metas


def render_metrics_summary(loaded: list[tuple[str, list[dict]]]) -> str:
    """Aggregated metrics across every file as one ASCII table.

    Counters and histogram counts/sums add across files; gauges keep
    the last value seen (file order is the deterministic sorted-name
    order from ``load_telemetry_dir``).
    """
    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    hists: dict[str, dict] = {}
    for _, records in loaded:
        for record in records:
            if record.get("type") != "metric":
                continue
            kind = record.get("kind")
            name = record.get("name", "?")
            if kind == "counter":
                counters[name] = counters.get(name, 0.0) + float(
                    record.get("value", 0.0)
                )
            elif kind == "gauge":
                gauges[name] = float(record.get("value", 0.0))
            elif kind == "histogram":
                agg = hists.setdefault(
                    name, {"count": 0, "sum": 0.0, "min": None, "max": None}
                )
                agg["count"] += int(record.get("count", 0))
                agg["sum"] += float(record.get("sum", 0.0))
                for key, pick in (("min", min), ("max", max)):
                    value = record.get(key)
                    if value is None:
                        continue
                    agg[key] = (
                        value
                        if agg[key] is None
                        else pick(agg[key], value)
                    )
    rows: list[list[object]] = []
    for name in sorted(counters):
        rows.append(["counter", name, f"{counters[name]:g}", "", ""])
    for name in sorted(gauges):
        rows.append(["gauge", name, f"{gauges[name]:g}", "", ""])
    for name in sorted(hists):
        agg = hists[name]
        mean = agg["sum"] / agg["count"] if agg["count"] else 0.0
        rows.append(
            [
                "histogram",
                name,
                f"n={agg['count']} mean={mean:.6g}",
                "-" if agg["min"] is None else f"{agg['min']:.6g}",
                "-" if agg["max"] is None else f"{agg['max']:.6g}",
            ]
        )
    if not rows:
        return "(no metrics recorded)"
    return format_table(
        ["kind", "name", "value", "min", "max"],
        rows,
        title="telemetry metrics",
    )
