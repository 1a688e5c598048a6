"""Paper-style text rendering of figure/table data.

Each renderer is the *text backend* of the figure registry
(:mod:`repro.analysis.registry`): it formats the same tidy record rows
(:mod:`repro.analysis.records`) that the JSON and CSV backends
serialize, so every representation of a figure is guaranteed to show
the same numbers.  Titles come from the registry spec, the one place
each is written.
"""

from __future__ import annotations

from repro.analysis.records import (
    feature_records,
    fig1_records,
    fig9_records,
    sweep_records,
    table1_records,
    table2_records,
)
from repro.experiments.figures import (
    FEATURES,
    FeatureComparison,
    Fig1Row,
    Fig9Row,
    PowerSweep,
)
from repro.experiments.tables import Table1Row, Table2Row
from repro.util.tables import format_table


def render_fig1(rows: list[Fig1Row], title: str) -> str:
    table_rows = []
    for r in fig1_records(rows):
        imp = r["improvement_pct"]
        table_rows.append(
            (
                r["power"],
                r["config"],
                f"{r['time_s']:.3f}",
                "-"
                if r["default_time_s"] is None
                else f"{r['default_time_s']:.3f}",
                "-" if imp is None else f"{imp:.1f}%",
            )
        )
    return format_table(
        ("power", "configuration", "time (s)", "default (s)", "improvement"),
        table_rows,
        title=title,
    )


def render_features(comparison: FeatureComparison, title: str) -> str:
    rows = [
        (
            r["region"],
            "-" if r["config"] is None else r["config"],
            *(f"{r[f]:.3f}" for f in FEATURES),
        )
        for r in feature_records(comparison)
    ]
    return format_table(
        ("region", "ARCS-Offline config", *FEATURES),
        rows,
        title=title
        + "  (feature values normalized to default = 1.0; smaller is "
        "better)",
    )


def render_sweep(sweep: PowerSweep, title: str) -> str:
    rows = [
        (
            r["power"],
            r["strategy"],
            f"{r['time_norm']:.3f}",
            "-"
            if r["energy_norm"] is None
            else f"{r['energy_norm']:.3f}",
        )
        for r in sweep_records(sweep)
    ]
    return format_table(
        ("power", "strategy", "time (norm)", "pkg energy (norm)"),
        rows,
        title=title + "  (normalized to default at the same power level)",
    )


def render_fig9(rows: list[Fig9Row], title: str) -> str:
    table_rows = [
        (
            r["region"],
            r["calls"],
            f"{r['implicit_task_s']:.3f}",
            f"{r['loop_s']:.3f}",
            f"{r['barrier_s']:.3f}",
            f"{r['time_per_call_s'] * 1e3:.3f}",
        )
        for r in fig9_records(rows)
    ]
    return format_table(
        (
            "region",
            "calls",
            "IMPLICIT_TASK (s)",
            "LOOP (s)",
            "BARRIER (s)",
            "per-call (ms)",
        ),
        table_rows,
        title=title,
    )


def render_table1(rows: list[Table1Row], title: str) -> str:
    return format_table(
        ("Parameter", "Set of values"),
        [(r["parameter"], r["values"]) for r in table1_records(rows)],
        title=title,
    )


def render_table2(rows: list[Table2Row], title: str) -> str:
    return format_table(
        ("Region", "Optimal Configuration (Thread, Schedule, Chunk)"),
        [(r["region"], r["config"]) for r in table2_records(rows)],
        title=title,
    )


def render_fleet_survival(rows: list[dict], title: str) -> str:
    """Text backend of the fleet survival-rate table (rows from
    :func:`repro.analysis.records.fleet_survival_records`)."""
    table_rows = [
        (
            r["kind"],
            r["events"],
            r["nodes_affected"],
            r["nodes_survived"],
            f"{r['survival_rate'] * 100:.1f}%",
        )
        for r in rows
    ]
    return format_table(
        ("degradation", "events", "affected", "survived", "survival"),
        table_rows,
        title=title,
    )


def render_capsched_timeline(rows: list[dict], title: str) -> str:
    """Text backend of the cap-schedule adaptation timeline (rows
    from :func:`repro.analysis.records.capsched_timeline_records`)."""
    table_rows = [
        (
            r["stream"],
            r["invocation"],
            r["cap_from"],
            r["cap_to"],
            "applied" if r["applied"] else "rejected",
        )
        for r in rows
    ]
    return format_table(
        ("stream", "invocation", "from", "to", "outcome"),
        table_rows,
        title=title,
    )


def render_service_hit_rate(rows: list[dict], title: str) -> str:
    """Text backend of the tuning-service hit-rate table (rows from
    :func:`repro.analysis.records.service_hit_rate_records`)."""
    table_rows = [
        (
            r["scope"],
            r["name"],
            r["requests"],
            r["hits"],
            r["misses"],
            (
                "-"
                if r["hit_rate"] is None
                else f"{r['hit_rate'] * 100:.1f}%"
            ),
        )
        for r in rows
    ]
    return format_table(
        ("scope", "name", "requests", "hits", "misses", "hit_rate"),
        table_rows,
        title=title,
    )


def render_bench_trend(rows: list[dict], title: str) -> str:
    """Text backend of the BENCH metric trend table (rows from
    :func:`repro.analysis.records.bench_trend_records`)."""
    table_rows = [
        (
            r["bench"],
            r["metric"],
            r["direction"],
            r["commit"],
            r["value"],
            f"{r['rel_change_vs_first'] * 100:+.1f}%",
        )
        for r in rows
    ]
    return format_table(
        ("bench", "metric", "direction", "commit", "value",
         "vs_first"),
        table_rows,
        title=title,
    )
