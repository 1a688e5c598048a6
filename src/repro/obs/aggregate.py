"""Streaming aggregation of telemetry JSONL into rollups.

:class:`StreamAggregator` consumes ``(stem, record)`` pairs - post-hoc
from :func:`repro.telemetry.sinks.load_telemetry_dir`, or live from a
:class:`TailReader` following files a sweep/fleet/daemon is still
writing - and maintains:

* **counter totals**: flushed ``metric`` counter records plus a derived
  ``events.<name>`` count per point-event name;
* **gauges**: last value wins (merge order is the deterministic
  (ts, file, seq) order);
* **sample series**: any event carrying a numeric ``value`` attr feeds
  a histogram under the event name (e.g. the per-step
  ``fleet.budget_w`` series), and every span feeds ``span.<name>`` with
  its duration - both backed by
  :class:`~repro.telemetry.metrics.HistogramStats`, so p50/p95/p99 come
  from the same nearest-rank estimator the bus flushes;
* **windowed rollups** keyed by ``(window, layer)`` where the layer is
  the record-name prefix before the first dot (``service``, ``fleet``,
  ``run``, ``sweep``, ``config_source``...) - per-layer health for the
  monitor;
* **per-group event tick lists** (``group_by`` attr, e.g. heartbeats
  per node) for gap/staleness rules;
* **top-k slowest spans** and the run's meta attributes.

Everything is a pure fold over records: aggregating a directory twice
yields identical state, and aggregation never writes anything back, so
it cannot perturb results.
"""

from __future__ import annotations

import heapq
from pathlib import Path

from repro.telemetry.metrics import HistogramStats
from repro.telemetry.sinks import telemetry_files
from repro.telemetry.timeline import merged_records

#: default rollup window, in virtual seconds.
DEFAULT_WINDOW_S = 1.0

#: slowest spans retained.
DEFAULT_TOP_K = 10


def record_layer(name: str) -> str:
    """The layer a record name belongs to: its first dotted segment."""
    return name.split(".", 1)[0] if name else "?"


class StreamAggregator:
    """Fold telemetry records into queryable rollup state."""

    def __init__(
        self,
        *,
        window_s: float = DEFAULT_WINDOW_S,
        top_k: int = DEFAULT_TOP_K,
    ) -> None:
        if window_s <= 0:
            raise ValueError(f"window_s must be > 0, got {window_s}")
        self.window_s = window_s
        self.top_k = top_k
        self.records_seen = 0
        #: counter name -> total (metric flushes + events.<name>).
        self.counters: dict[str, float] = {}
        #: gauge name -> last value.
        self.gauges: dict[str, float] = {}
        #: series name -> histogram (value-events and span durations).
        self.samples: dict[str, HistogramStats] = {}
        #: (window index, layer) -> {"events": n, "spans": n,
        #: "dur_sum": s, "names": {name: n}}.
        self.windows: dict[tuple[int, str], dict] = {}
        #: (event name, group value) -> sorted-append list of ticks
        #: [(ts, step)] for gap rules.
        self.group_ticks: dict[tuple[str, str], list[tuple[float, int]]] = {}
        #: merged meta attrs across files (first writer wins per key -
        #: the session meta precedes task metas in merge order).
        self.meta: dict[str, object] = {}
        #: min-heap of (dur, seq#, span summary), size <= top_k.
        self._slowest: list[tuple[float, int, dict]] = []
        self._heap_tiebreak = 0

    # ------------------------------------------------------------------
    def consume(self, stem: str, record: dict) -> None:
        """Fold one record into the rollups."""
        self.records_seen += 1
        rtype = record.get("type")
        name = str(record.get("name", "?"))
        ts = float(record.get("ts", 0.0))
        if rtype == "metric":
            kind = record.get("kind")
            value = record.get("value")
            if kind == "counter" and isinstance(value, (int, float)):
                self.counters[name] = (
                    self.counters.get(name, 0.0) + float(value)
                )
            elif kind == "gauge" and isinstance(value, (int, float)):
                self.gauges[name] = float(value)
            elif kind == "histogram":
                # re-hydrate flushed summaries into the sample series
                # (count/sum/min/max merge exactly; percentiles of the
                # merged view then come from the retained endpoints).
                hist = self._series(name)
                hist.count += int(record.get("count", 0))
                hist.sum += float(record.get("sum", 0.0))
                for key, pick in (("min", min), ("max", max)):
                    value = record.get(key)
                    if not isinstance(value, (int, float)):
                        continue
                    current = getattr(hist, key)
                    setattr(
                        hist,
                        key,
                        value if current is None else pick(current, value),
                    )
                    hist.samples.append(float(value))
            return
        if rtype == "meta":
            for key, value in (record.get("attrs") or {}).items():
                self.meta.setdefault(key, value)
            return
        if rtype not in ("event", "span"):
            return
        attrs = record.get("attrs") or {}
        window = self._window(ts, record_layer(name))
        if rtype == "event":
            window["events"] += 1
            window["names"][name] = window["names"].get(name, 0) + 1
            self.counters[f"events.{name}"] = (
                self.counters.get(f"events.{name}", 0.0) + 1.0
            )
            value = attrs.get("value")
            if isinstance(value, (int, float)) and not isinstance(
                value, bool
            ):
                self._series(name).observe(float(value))
            group = attrs.get("node") or attrs.get("tenant")
            if group is not None:
                step = attrs.get("step")
                self.group_ticks.setdefault(
                    (name, str(group)), []
                ).append(
                    (ts, int(step) if isinstance(step, int) else 0)
                )
            return
        # span
        dur = float(record.get("dur", 0.0))
        window["spans"] += 1
        window["dur_sum"] += dur
        window["names"][name] = window["names"].get(name, 0) + 1
        self._series(f"span.{name}").observe(dur)
        self._note_slow_span(stem, name, ts, dur, attrs)

    def consume_loaded(
        self, loaded: list[tuple[str, list[dict]]]
    ) -> "StreamAggregator":
        """Fold a whole :func:`load_telemetry_dir` result in
        :func:`~repro.telemetry.timeline.merged_records` order."""
        for stem, record in merged_records(loaded):
            self.consume(stem, record)
        return self

    # ------------------------------------------------------------------
    def _series(self, name: str) -> HistogramStats:
        hist = self.samples.get(name)
        if hist is None:
            hist = HistogramStats()
            self.samples[name] = hist
        return hist

    def _window(self, ts: float, layer: str) -> dict:
        index = int(ts // self.window_s)
        window = self.windows.get((index, layer))
        if window is None:
            window = {
                "events": 0,
                "spans": 0,
                "dur_sum": 0.0,
                "names": {},
            }
            self.windows[(index, layer)] = window
        return window

    def _note_slow_span(
        self, stem: str, name: str, ts: float, dur: float, attrs: dict
    ) -> None:
        if self.top_k <= 0:
            return
        self._heap_tiebreak += 1
        entry = (
            dur,
            -self._heap_tiebreak,  # later records lose exact ties
            {
                "name": name,
                "stem": stem,
                "ts": ts,
                "dur": dur,
                "attrs": {
                    k: v
                    for k, v in attrs.items()
                    if isinstance(v, (str, int, float, bool))
                },
            },
        )
        if len(self._slowest) < self.top_k:
            heapq.heappush(self._slowest, entry)
        elif entry[0] > self._slowest[0][0]:
            heapq.heapreplace(self._slowest, entry)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def slowest_spans(self) -> list[dict]:
        """Top-k slowest spans, slowest first."""
        return [
            entry[2]
            for entry in sorted(
                self._slowest, key=lambda e: (-e[0], -e[1])
            )
        ]

    def layers(self) -> list[str]:
        return sorted({layer for _, layer in self.windows})

    def layer_summary(self) -> list[dict]:
        """Per-layer totals across all windows (monitor health rows)."""
        rows = []
        for layer in self.layers():
            events = spans = 0
            dur_sum = 0.0
            for (_, wlayer), window in self.windows.items():
                if wlayer != layer:
                    continue
                events += window["events"]
                spans += window["spans"]
                dur_sum += window["dur_sum"]
            span_series = [
                hist
                for name, hist in self.samples.items()
                if name.startswith("span.")
                and record_layer(name[len("span."):]) == layer
            ]
            p95 = None
            merged = HistogramStats()
            for hist in span_series:
                for sample in hist.samples:
                    merged.observe(sample)
            if merged.count:
                p95 = merged.percentile(95)
            rows.append(
                {
                    "layer": layer,
                    "events": events,
                    "spans": spans,
                    "dur_sum": dur_sum,
                    "p95_dur": p95,
                }
            )
        return rows

    def counter_total(self, name: str) -> float:
        return self.counters.get(name, 0.0)

    def max_gap(
        self, event: str, group: str, over: str
    ) -> tuple[str, float] | None:
        """Largest gap between consecutive ticks of ``event`` for one
        ``group`` value; ``over`` is ``"ts"`` or ``"step"``."""
        ticks = self.group_ticks.get((event, group))
        if not ticks or len(ticks) < 2:
            return None
        index = 0 if over == "ts" else 1
        worst = 0.0
        for prev, cur in zip(ticks, ticks[1:]):
            gap = float(cur[index] - prev[index])
            if gap > worst:
                worst = gap
        return group, worst

    def groups(self, event: str) -> list[str]:
        return sorted(
            {group for name, group in self.group_ticks if name == event}
        )


class TailReader:
    """Incrementally re-read growing telemetry JSONL files.

    Tracks a byte offset per file; each :meth:`poll` returns only the
    *complete* new lines since the last poll (a partially written tail
    line is left for the next poll), so a live ``repro monitor
    --follow`` can fold records as the producing process writes them.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self._offsets: dict[Path, int] = {}

    def poll(self) -> list[tuple[str, dict]]:
        import json

        fresh: list[tuple[str, dict]] = []
        for path in telemetry_files(self.directory):
            offset = self._offsets.get(path, 0)
            try:
                with open(path, "rb") as fh:
                    fh.seek(offset)
                    chunk = fh.read()
            except OSError:
                continue
            if not chunk:
                continue
            # only complete lines; the unterminated tail stays pending
            end = chunk.rfind(b"\n")
            if end < 0:
                continue
            self._offsets[path] = offset + end + 1
            for line in chunk[: end + 1].splitlines():
                text = line.decode(errors="replace").strip()
                if not text:
                    continue
                try:
                    blob = json.loads(text)
                except json.JSONDecodeError:
                    continue  # torn mid-file line (crash artifact)
                if isinstance(blob, dict):
                    fresh.append((path.stem, blob))
        return fresh
