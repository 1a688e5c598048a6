"""Tidy record tables: the machine-readable form of every result.

Every figure and table in the evaluation reduces to a *record table* -
a flat, ordered list of dicts with scalar cells (one dict per plotted
point / table row).  The registry renders record tables through
interchangeable backends (paper-style text, JSON, CSV), and the
converters below build them from each of the repo's result sources:

* in-memory generator outputs (:mod:`repro.experiments.figures` /
  ``tables`` dataclasses),
* summarized :class:`~repro.experiments.runner.StrategyRunResult`\\ s,
* crash-safe sweep journals (:mod:`repro.experiments.journal`),
* fleet journals / fleet results (:mod:`repro.fleet`),
* telemetry JSONL directories (:mod:`repro.telemetry`).

Cell values are restricted to ``str | int | float | bool | None`` so a
table serializes identically through every backend; converters raise
on anything richer instead of emitting unserializable rows.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Iterable, Mapping, Sequence
from pathlib import Path

from repro.experiments.figures import (
    FEATURES,
    FeatureComparison,
    Fig1Row,
    Fig9Row,
    PowerSweep,
    SWEEP_STRATEGIES,
)
from repro.experiments.runner import StrategyRunResult
from repro.experiments.tables import Table1Row, Table2Row

#: the only cell types a record may carry.
SCALAR_TYPES = (str, int, float, bool, type(None))

Record = dict


class RecordError(TypeError):
    """A record carried a non-scalar cell (would not round-trip
    through the JSON/CSV backends)."""


class RecordTable:
    """An ordered list of flat records with homogeneous columns.

    Column order is the insertion order of the first record; every
    record must use exactly the same keys, so the JSON and CSV
    serializations are deterministic and directly comparable across
    runs.
    """

    def __init__(self, records: Iterable[Mapping]) -> None:
        self.records: list[Record] = []
        self.columns: tuple[str, ...] = ()
        for record in records:
            row = dict(record)
            for key, value in row.items():
                if not isinstance(value, SCALAR_TYPES):
                    raise RecordError(
                        f"record cell {key!r} has non-scalar type "
                        f"{type(value).__name__}: {value!r}"
                    )
            if not self.columns:
                self.columns = tuple(row)
            elif tuple(row) != self.columns:
                raise RecordError(
                    f"record columns {tuple(row)} != table columns "
                    f"{self.columns}"
                )
            self.records.append(row)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def column(self, name: str) -> list:
        """All values of one column, in row order."""
        if self.records and name not in self.columns:
            raise KeyError(
                f"no column {name!r}; have {self.columns}"
            )
        return [r[name] for r in self.records]

    # -- serialization --------------------------------------------------
    def to_json(self, *, indent: int | None = 2) -> str:
        """JSON array of records (floats round-trip via ``repr``)."""
        return json.dumps(self.records, indent=indent)

    def to_csv(self) -> str:
        """RFC-4180 CSV with a header row, ``\\n`` line endings."""
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(self.columns)
        for record in self.records:
            writer.writerow(
                "" if v is None else v
                for v in (record[c] for c in self.columns)
            )
        return out.getvalue()


# ---------------------------------------------------------------------------
# StrategyRunResult / sweep converters
# ---------------------------------------------------------------------------
def result_record(result: StrategyRunResult) -> Record:
    """One flat row summarizing a measured strategy run."""
    return {
        "strategy": result.strategy,
        "app": result.app_label,
        "machine": result.machine,
        "cap_w": result.cap_w,
        "time_s": result.time_s,
        "energy_j": result.energy_j,
        "repeats": len(result.runs),
        "tuning_runs": result.tuning_runs,
        "degradations": len(result.degradations),
        "cap_changes": len(result.cap_changes),
    }


def sweep_records(
    sweep: PowerSweep,
    strategy_order: Sequence[str] = SWEEP_STRATEGIES,
) -> list[Record]:
    """One row per (power level, strategy) cell of a power sweep, in
    the paper's presentation order (the order ``render_sweep`` prints
    and the figures plot)."""
    rows: list[Record] = []
    for label in sweep.labels:
        for strategy in strategy_order:
            cell = sweep.cells.get((label, strategy))
            if cell is None:
                continue
            result = sweep.results.get((label, strategy))
            rows.append(
                {
                    "app": sweep.app_label,
                    "machine": sweep.machine,
                    "power": label,
                    "strategy": strategy,
                    "time_norm": cell.time_norm,
                    "energy_norm": cell.energy_norm,
                    "time_s": result.time_s if result else None,
                    "energy_j": result.energy_j if result else None,
                }
            )
    return rows


def fig1_records(rows: Sequence[Fig1Row]) -> list[Record]:
    return [
        {
            "power": r.label,
            "config": r.config,
            "time_s": r.time_s,
            "default_time_s": r.default_time_s,
            "improvement_pct": r.improvement_pct,
        }
        for r in rows
    ]


def feature_records(comparison: FeatureComparison) -> list[Record]:
    """One row per region: chosen config + the four normalized
    features of Figures 3/6/10 as columns."""
    rows: list[Record] = []
    for region in comparison.regions:
        feats = comparison.offline_normalized[region]
        row: Record = {
            "app": comparison.app_label,
            "region": region,
            "config": comparison.offline_configs.get(region),
        }
        for feature in FEATURES:
            row[feature] = feats[feature]
        rows.append(row)
    return rows


def fig9_records(rows: Sequence[Fig9Row]) -> list[Record]:
    return [
        {
            "region": r.region,
            "calls": r.calls,
            "implicit_task_s": r.implicit_task_s,
            "loop_s": r.loop_s,
            "barrier_s": r.barrier_s,
            "time_per_call_s": r.time_per_call_s,
            "barrier_fraction": r.barrier_fraction,
        }
        for r in rows
    ]


def table1_records(rows: Sequence[Table1Row]) -> list[Record]:
    return [
        {"parameter": r.parameter, "values": r.values} for r in rows
    ]


def table2_records(rows: Sequence[Table2Row]) -> list[Record]:
    return [{"region": r.region, "config": r.config} for r in rows]


# ---------------------------------------------------------------------------
# on-disk sources: sweep journals and telemetry JSONL
# ---------------------------------------------------------------------------
def journal_records(path: str | Path) -> list[Record]:
    """Flat rows for every completed cell in a sweep journal.

    Cells come out keyed and sorted by their experiment digest (the
    journal's own identity for a cell), each flattened through
    :func:`result_record`.  Read-only: damaged lines are skipped, the
    file is never repaired.
    """
    from repro.experiments.journal import SweepJournal

    completed = SweepJournal.cells(SweepJournal(path).scan().records)
    rows: list[Record] = []
    for digest in sorted(completed):
        row: Record = {"digest": digest}
        row.update(result_record(completed[digest]))
        rows.append(row)
    return rows


def fleet_survival_records(source) -> list[Record]:
    """Survival-rate table for one fleet run.

    ``source`` is either a fleet journal path (the last verified
    snapshot is the authority - exactly what ``repro fleet run
    --resume`` would restore; the file is only read) or a
    :func:`repro.fleet.fleet_result_to_json` mapping.  One row per
    degradation kind observed in the run - how often it
    fired, which nodes it hit, how many of those nodes nonetheless
    survived - plus a trailing ``fleet`` row carrying the run-level
    survival rate over every started node.
    """
    from repro.fleet.events import DEGRADATION_KINDS, FleetEvent

    if isinstance(source, (str, Path)):
        from repro.fleet.journal import FleetJournal

        loaded = FleetJournal.last_snapshot(
            FleetJournal(source).scan().records
        )
        if loaded is None:
            return []
        _step, state = loaded
        statuses = {
            str(node_id): str(cell["status"])
            for node_id, cell in state["cells"].items()
        }
        events = [FleetEvent.from_json(b) for b in state["events"]]
    else:
        statuses = {
            str(n["node"]): str(n["status"]) for n in source["nodes"]
        }
        events = [FleetEvent.from_json(b) for b in source["events"]]

    started = [n for n, s in statuses.items() if s != "pending"]
    crashed = [n for n, s in statuses.items() if s == "crashed"]
    rows: list[Record] = []
    for kind in sorted(
        {e.kind for e in events if e.kind in DEGRADATION_KINDS}
    ):
        hits = [e for e in events if e.kind == kind]
        affected = sorted({e.node for e in hits if e.node})
        survived = [
            n for n in affected if statuses.get(n) != "crashed"
        ]
        rows.append(
            {
                "kind": kind,
                "events": len(hits),
                "nodes_affected": len(affected),
                "nodes_survived": len(survived),
                "survival_rate": (
                    len(survived) / len(affected) if affected else 1.0
                ),
            }
        )
    rows.append(
        {
            "kind": "fleet",
            "events": sum(1 for e in events if e.degradation),
            "nodes_affected": len(started),
            "nodes_survived": len(started) - len(crashed),
            "survival_rate": (
                (len(started) - len(crashed)) / len(started)
                if started
                else 1.0
            ),
        }
    )
    return rows


def capsched_timeline_records(directory: str | Path) -> list[Record]:
    """Cap-schedule adaptation timeline from a telemetry directory.

    One row per ``cap.change`` / ``cap.change_rejected`` event across
    every stream, in emission order: at which region invocation the
    schedule moved (or tried to move) the cap, between which levels,
    and whether the write survived the applier's retry policy
    (``applied``).
    """
    rows: list[Record] = []
    for row in telemetry_records(directory):
        name = row.get("name")
        if name not in ("cap.change", "cap.change_rejected"):
            continue
        rows.append(
            {
                "stream": row["stream"],
                "seq": row.get("seq"),
                "invocation": row.get("attrs.invocation"),
                "cap_from": row.get("attrs.cap_from"),
                "cap_to": row.get("attrs.cap_to"),
                "applied": name == "cap.change",
            }
        )
    rows.sort(key=lambda r: (r["stream"], r["seq"] or 0))
    return rows


def telemetry_records(
    directory: str | Path, kinds: Sequence[str] | None = None
) -> list[Record]:
    """Flat rows for every record in a ``--telemetry`` directory.

    Each JSONL file contributes its stem as the ``stream`` column;
    nested attribute payloads are flattened to ``attr.<key>`` columns
    restricted to scalar values (richer payloads are JSON-encoded).
    ``kinds`` filters on the record ``kind`` (``span``, ``event``,
    ``metric``, ...).
    """
    from repro.telemetry import load_telemetry_dir

    rows: list[Record] = []
    for stream, records in load_telemetry_dir(directory):
        for record in records:
            if kinds is not None and record.get("kind") not in kinds:
                continue
            row: Record = {"stream": stream}
            for key, value in record.items():
                if isinstance(value, Mapping):
                    for sub, subval in value.items():
                        if not isinstance(subval, SCALAR_TYPES):
                            subval = json.dumps(subval, sort_keys=True)
                        row[f"{key}.{sub}"] = subval
                elif isinstance(value, SCALAR_TYPES):
                    row[key] = value
                else:
                    row[key] = json.dumps(value, sort_keys=True)
            rows.append(row)
    return rows


def service_hit_rate_records(
    stats_response: Mapping,
    counters: Mapping[str, float],
    tiers: Sequence[str],
) -> list[Record]:
    """Hit-rate rows for the tuning service, at every granularity.

    ``stats_response`` is a daemon ``stats``-verb reply (the
    ``stats`` sub-object carries :meth:`ServiceStore.stats_json`
    including ``per_shard``); ``counters`` are telemetry counter
    totals from a bus that observed the client-side chain; ``tiers``
    is the chain's tier order.  Scopes:

    * ``tier``: per :class:`ConfigSource` tier - ``hits`` is lookups
      the tier answered, ``misses`` is chain lookups it did *not*
      answer (already answered above it, or missed), so ``hit_rate``
      is the tier's share of all chain traffic;
    * ``chain``: the whole degradation chain (miss = fresh tuning);
    * ``shard``: per daemon store shard (zero-traffic shards elided);
    * ``store``: the daemon store total.
    """
    rows: list[Record] = []
    tier_hits = {
        tier: float(counters.get(f"config_source.hits.{tier}", 0.0))
        for tier in tiers
    }
    chain_misses = float(counters.get("config_source.misses", 0.0))
    lookups = sum(tier_hits.values()) + chain_misses
    for tier in tiers:
        hits = tier_hits[tier]
        rows.append(
            {
                "scope": "tier",
                "name": tier,
                "hits": int(hits),
                "misses": int(lookups - hits),
                "requests": int(lookups),
                "hit_rate": (hits / lookups) if lookups else None,
            }
        )
    rows.append(
        {
            "scope": "chain",
            "name": "all",
            "hits": int(lookups - chain_misses),
            "misses": int(chain_misses),
            "requests": int(lookups),
            "hit_rate": (
                (lookups - chain_misses) / lookups if lookups else None
            ),
        }
    )
    store_stats = stats_response.get("stats") or {}
    for shard in store_stats.get("per_shard") or []:
        hits = int(shard.get("hits", 0))
        misses = int(shard.get("misses", 0))
        requests = hits + misses
        if requests == 0:
            continue  # an untouched shard says nothing about hit rate
        rows.append(
            {
                "scope": "shard",
                "name": f"shard{int(shard.get('shard', 0)):02d}",
                "hits": hits,
                "misses": misses,
                "requests": requests,
                "hit_rate": hits / requests,
            }
        )
    hits = int(store_stats.get("hits", 0))
    misses = int(store_stats.get("misses", 0))
    requests = hits + misses
    rows.append(
        {
            "scope": "store",
            "name": "total",
            "hits": hits,
            "misses": misses,
            "requests": requests,
            "hit_rate": (hits / requests) if requests else None,
        }
    )
    return rows


def bench_trend_records(bench_dir: str | Path) -> list[Record]:
    """BENCH metric trends across a directory of snapshots.

    ``bench_dir`` holds one subdirectory per recorded commit (sorted
    name order = history order - date- or sequence-prefixed names
    give chronological trends), each a ``BENCH_*.json`` set as
    written by the benchmark suite.  One row per (bench, metric,
    commit) with the value and its relative change against the
    *first* snapshot that carried the metric.
    """
    from repro.analysis.bench import load_bench_dir

    root = Path(bench_dir)
    if not root.is_dir():
        raise FileNotFoundError(
            f"not a bench-history directory: {root}"
        )
    snapshots: list[tuple[str, dict[str, dict]]] = []
    for sub in sorted(p for p in root.iterdir() if p.is_dir()):
        try:
            loaded = load_bench_dir(sub)
        except FileNotFoundError:
            continue
        if loaded:
            snapshots.append((sub.name, loaded))
    if not snapshots:
        raise ValueError(
            f"no BENCH_*.json snapshots under {root} (expected one "
            "subdirectory per commit)"
        )
    # stable row order: bench, metric, then commit (history) order
    names = sorted({n for _, loaded in snapshots for n in loaded})
    rows: list[Record] = []
    for bench in names:
        metrics = sorted(
            {
                m
                for _, loaded in snapshots
                if bench in loaded
                for m in loaded[bench]["metrics"]
            }
        )
        for metric in metrics:
            first: float | None = None
            for commit, loaded in snapshots:
                entry = loaded.get(bench, {}).get("metrics", {}).get(
                    metric
                )
                if entry is None:
                    continue
                value = float(entry["value"])
                if first is None:
                    first = value
                rows.append(
                    {
                        "bench": bench,
                        "metric": metric,
                        "direction": str(entry["direction"]),
                        "commit": commit,
                        "value": value,
                        "rel_change_vs_first": (
                            (value - first) / abs(first)
                            if first not in (None, 0.0)
                            else 0.0
                        ),
                    }
                )
    return rows
