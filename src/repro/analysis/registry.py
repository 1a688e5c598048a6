"""Figure/table registry: every evaluation artifact, one name each.

Maps the name of each figure/table in the paper's evaluation (the stem
of its ``results/<name>.txt``) to a spec bundling its data generator
(:mod:`repro.experiments.figures` / ``tables``), its title and
paper-style text renderer (:mod:`repro.experiments.reporting`), its
tidy record converter (:mod:`repro.analysis.records`) and its BENCH
metrics and provenance (:mod:`repro.analysis.bench`).  ``repro figures
[NAME ...]`` and the benchmark suite (``benchmarks/bench_figures.py``)
both walk this registry and write each artifact through
:func:`write_figure` - ``<name>.txt``, ``BENCH_<name>.json`` and
optionally ``<name>.csv`` - deterministically under the repro seed:
the ProjectScylla ``generate_figures`` idiom, adapted to this repo's
simulated measurements.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.bench import (
    bench_payload,
    feature_metrics,
    sweep_metrics,
    write_bench_json,
    write_result_txt,
)
from repro.analysis.records import (
    RecordTable,
    bench_trend_records,
    capsched_timeline_records,
    feature_records,
    fig1_records,
    fig9_records,
    fleet_survival_records,
    service_hit_rate_records,
    sweep_records,
    table1_records,
    table2_records,
)
from repro.experiments.journal import SweepJournal
from repro.experiments.figures import (
    fig1_motivation,
    fig3_sp_features,
    fig6_bt_features,
    fig9_lulesh_regions,
    fig10_lulesh_features,
    power_sweep,
)
from repro.experiments.parallel import ParallelSweepExecutor
from repro.experiments.reporting import (
    render_bench_trend,
    render_capsched_timeline,
    render_features,
    render_fig1,
    render_fig9,
    render_fleet_survival,
    render_service_hit_rate,
    render_sweep,
    render_table1,
    render_table2,
)
from repro.experiments.runner import CRILL_POWER_LEVELS
from repro.experiments.tables import (
    table1_search_space,
    table2_sp_optimal_configs,
)
from repro.machine.spec import crill, machine_by_name
from repro.util.atomicio import atomic_write_text
from repro.workloads.bt import bt_application
from repro.workloads.lulesh import lulesh_application
from repro.workloads.sp import sp_application

#: the output backends ``generate`` can write: ``<name>.txt``,
#: ``BENCH_<name>.json`` and ``<name>.csv``.
FORMATS = ("txt", "json", "csv")


class UnknownFigureError(KeyError):
    """Asked for a name the registry does not know."""

    def __init__(self, name: str) -> None:
        self.name = name
        super().__init__(
            f"unknown figure/table {name!r}; known names: "
            + ", ".join(sorted(REGISTRY))
        )


@dataclass(frozen=True)
class GenOptions:
    """Knobs shared by every generator (sweep-backed entries use all
    of them; cheap entries ignore what they don't need)."""

    repeats: int = 3
    workers: int = 1
    #: the store that memoizes sweep cells (``None`` = recompute)
    cache: SweepJournal | None = None
    #: history directory for "external"-cost entries (bench_trend);
    #: they read pre-existing artifacts instead of generating data.
    bench_dir: str | None = None


@dataclass(frozen=True)
class FigureSpec:
    """One registered evaluation artifact."""

    name: str
    kind: str                                   # "figure" | "table"
    title: str
    generate: Callable[[GenOptions], object]
    #: ``(data, title) -> text``
    render_txt: Callable[[object, str], str]
    records: Callable[[object], list[dict]]
    #: ``data -> BENCH metrics`` (:func:`repro.analysis.bench.
    #: bench_payload` form); ``None`` records no metrics
    metrics: Callable[[object], dict] | None = None
    #: BENCH provenance: the machine(s) and repro seed behind the data
    machine: str | tuple[str, ...] | None = None
    seed: int | None = None
    #: "fast" entries finish in ~seconds; "sweep" entries run full
    #: power sweeps with tuning (use workers/cache, which their BENCH
    #: provenance records); "external" entries need an input artifact
    #: the repo does not generate (e.g. --bench-dir) and are excluded
    #: from the default-all set.
    cost: str = "fast"


@dataclass(frozen=True)
class GeneratedFigure:
    """The realized artifact in every representation."""

    spec: FigureSpec
    data: object
    text: str
    table: RecordTable
    #: the ``BENCH_<name>.json`` payload
    bench: dict
    paths: dict[str, Path] = field(default_factory=dict)


def _sweep_spec(
    name: str, title: str, app_factory, machine: str, caps
) -> FigureSpec:
    def generate(options: GenOptions):
        return power_sweep(
            app_factory(),
            machine_by_name(machine),
            caps,
            repeats=options.repeats,
            executor=ParallelSweepExecutor(
                max_workers=options.workers, journal=options.cache
            ),
        )

    return FigureSpec(
        name=name,
        kind="figure",
        title=title,
        generate=generate,
        render_txt=render_sweep,
        records=sweep_records,
        metrics=sweep_metrics,
        machine=machine,
        seed=0,
        cost="sweep",
    )


def _feature_spec(name: str, title: str, generator) -> FigureSpec:
    return FigureSpec(
        name=name,
        kind="figure",
        title=title,
        generate=lambda options: generator(),
        render_txt=render_features,
        records=feature_records,
        metrics=feature_metrics,
        machine="crill",
        seed=0,
    )


def _fig1_metrics(rows) -> dict:
    return {
        f"improvement_pct[{r.label}]": {
            "value": r.improvement_pct, "direction": "higher",
        }
        for r in rows
        if r.improvement_pct is not None
    }


def _fig9_metrics(rows) -> dict:
    # descriptive OMPT statistics, not a perf gate: recorded for trend
    # plots but never diffed against a tolerance
    return {
        f"barrier_fraction[{r.region}]": {
            "value": r.barrier_fraction, "direction": "info",
        }
        for r in rows
    }


def _gen_fleet_survival(options: GenOptions) -> list[dict]:
    """A small canned chaos fleet, journaled to a scratch directory;
    the survival table is then derived from the journal exactly as it
    would be from a real ``repro fleet run --journal`` artifact."""
    import tempfile

    from repro.faults.plan import FaultPlan, FaultSpec
    from repro.fleet import FleetJournal, FleetSimulation, synthesize_fleet

    plan = synthesize_fleet(5, seed=7, max_steps=40)
    faults = FaultPlan(
        specs=(
            FaultSpec("fleet.node", "crash", start=2, max_fires=1),
            FaultSpec("fleet.node", "hang", start=30, max_fires=1),
            FaultSpec("fleet.telemetry", "partition", start=8,
                      max_fires=1),
            FaultSpec("fleet.cap_write", "reject", probability=0.5,
                      max_fires=4),
            FaultSpec("fleet.membership", "flap", start=12,
                      max_fires=1),
        ),
        seed=11,
    )
    with tempfile.TemporaryDirectory() as tmp:
        journal = FleetJournal(Path(tmp) / "fleet.jsonl")
        FleetSimulation(plan, faults, journal=journal).run()
        return fleet_survival_records(journal.path)


def _gen_capsched_timeline(options: GenOptions) -> list[dict]:
    """One capped run under a dynamic cap schedule with an injected
    write rejection, captured through a scratch telemetry bus; the
    timeline is then parsed back from the JSONL it leaves behind."""
    import dataclasses
    import tempfile

    from repro.core.capschedule import CapEvent, CapSchedule
    from repro.experiments.runner import ExperimentSetup, run_strategy
    from repro.faults.plan import FaultPlan, FaultSpec
    from repro.telemetry import JsonlSink, telemetry_session
    from repro.workloads.registry import application_by_name

    app = dataclasses.replace(
        application_by_name("synthetic"), timesteps=8
    )
    schedule = CapSchedule(
        events=(
            CapEvent(4, 85.0),
            CapEvent(10, 70.0),
            CapEvent(16, 100.0),
        ),
        hysteresis_invocations=1,
    )
    setup = ExperimentSetup(
        spec=crill(),
        cap_w=115.0,
        repeats=1,
        seed=0,
        cap_schedule=schedule,
        fault_plan=FaultPlan(
            specs=(
                FaultSpec("rapl.cap_write", "reject", start=3,
                          max_fires=3),
            ),
            seed=5,
        ),
    )
    with tempfile.TemporaryDirectory() as tmp:
        with telemetry_session(JsonlSink(Path(tmp) / "telemetry.jsonl")):
            run_strategy("default", app, setup)
        return capsched_timeline_records(tmp)


def _gen_service_hit_rate(options: GenOptions) -> list[dict]:
    """A real daemon on a scratch store, exercised two ways: direct
    client put/get traffic (feeds the per-shard counters the ``stats``
    verb exposes) and a cold/warm arcs-offline pass through the
    degradation chain (feeds the per-tier telemetry counters).  The
    table is then pure arithmetic over those counters - exactly what
    ``repro monitor`` sees on a live run."""
    import dataclasses
    import tempfile

    from repro.experiments.runner import ExperimentSetup, run_strategy
    from repro.service.client import ServiceClient
    from repro.service.daemon import ThreadedDaemon
    from repro.service.source import default_chain
    from repro.telemetry import telemetry_session
    from repro.workloads.registry import application_by_name

    app = dataclasses.replace(
        application_by_name("synthetic"), timesteps=6
    )
    with tempfile.TemporaryDirectory() as tmp:
        with ThreadedDaemon(Path(tmp) / "store") as td:
            client = ServiceClient(td.address)
            for i in range(24):
                client.put(f"figure-key-{i:02d}", {"payload": i})
            for i in range(24):
                client.get(f"figure-key-{i:02d}")  # store hits
            for i in range(8):
                client.get(f"absent-key-{i:02d}")  # store misses
            memo: dict[str, dict] = {}
            with telemetry_session() as scratch:
                for cap in (85.0, 115.0):
                    setup = ExperimentSetup(
                        spec=crill(), cap_w=cap, repeats=1, seed=0
                    )
                    # cold: every tier misses, fresh tuning publishes
                    chain = default_chain(td.address, memo=memo)
                    run_strategy(
                        "arcs-offline", app, setup, source=chain
                    )
                    # warm: the service tier answers
                    chain = default_chain(td.address, memo={})
                    run_strategy(
                        "arcs-offline", app, setup, source=chain
                    )
                    # local-only warm: the memo tier answers
                    chain = default_chain(None, memo=memo)
                    run_strategy(
                        "arcs-offline", app, setup, source=chain
                    )
                counters = dict(scratch.metrics.counters)
            stats = client.stats()
        return service_hit_rate_records(
            stats, counters, ("service", "memo")
        )


def _gen_bench_trend(options: GenOptions) -> list[dict]:
    if options.bench_dir is None:
        raise ValueError(
            "the bench_trend figure reads a directory of per-commit "
            "BENCH_*.json snapshots; pass --bench-dir DIR"
        )
    return bench_trend_records(options.bench_dir)


#: name -> spec for every figure and table in the evaluation.  Names
#: are exactly the stems the benchmark suite writes under results/.
REGISTRY: dict[str, FigureSpec] = {
    spec.name: spec
    for spec in (
        FigureSpec(
            name="fig1_motivation",
            kind="figure",
            title="Fig. 1: BT x_solve region - best vs default "
            "configuration across power levels (smaller is better)",
            generate=lambda options: fig1_motivation(),
            render_txt=render_fig1,
            records=fig1_records,
            metrics=_fig1_metrics,
            machine="crill",
            seed=0,
        ),
        _feature_spec(
            "fig3_sp_features",
            "Fig. 3: SP major regions, default vs ARCS-Offline (TDP)",
            fig3_sp_features,
        ),
        _sweep_spec(
            "fig4_sp_power_sweep",
            "Fig. 4: SP-B on Crill",
            lambda: sp_application("B"), "crill", CRILL_POWER_LEVELS,
        ),
        _sweep_spec(
            "fig5_sp_classC",
            "Fig. 5: SP-C on Crill (TDP)",
            lambda: sp_application("C"), "crill", (115.0,),
        ),
        _feature_spec(
            "fig6_bt_features",
            "Fig. 6: BT compute_rhs, default vs ARCS-Offline (TDP)",
            fig6_bt_features,
        ),
        _sweep_spec(
            "fig7_bt_power_sweep",
            "Fig. 7: BT-B on Crill",
            lambda: bt_application("B"), "crill", CRILL_POWER_LEVELS,
        ),
        _sweep_spec(
            "fig8_lulesh_crill",
            "Fig. 8a/8b: LULESH-45 on Crill",
            lambda: lulesh_application(45), "crill", CRILL_POWER_LEVELS,
        ),
        _sweep_spec(
            "fig8_lulesh_minotaur",
            "Fig. 8c: LULESH-45 on Minotaur (time only)",
            lambda: lulesh_application(45), "minotaur", (190.0,),
        ),
        FigureSpec(
            name="fig9_lulesh_regions",
            kind="figure",
            title="Fig. 9: OMPT event data for top-5 LULESH regions "
            "(default config, TDP)",
            generate=lambda options: fig9_lulesh_regions(),
            render_txt=render_fig9,
            records=fig9_records,
            metrics=_fig9_metrics,
            machine="crill",
            seed=0,
        ),
        _feature_spec(
            "fig10_lulesh_features",
            "Fig. 10: LULESH CalcFBHourglassForceForElems, default vs "
            "ARCS-Offline",
            fig10_lulesh_features,
        ),
        FigureSpec(
            name="table1_search_space",
            kind="table",
            title="Table I: ARCS search parameters for OpenMP parallel "
            "regions",
            generate=lambda options: table1_search_space(),
            render_txt=render_table1,
            records=table1_records,
            machine=("crill", "minotaur"),
        ),
        FigureSpec(
            name="table2_sp_optimal_configs",
            kind="table",
            title="Table II: optimal configuration chosen by "
            "ARCS-Offline for SP regions",
            generate=lambda options: table2_sp_optimal_configs(),
            render_txt=render_table2,
            records=table2_records,
            machine="crill",
            seed=0,
        ),
        FigureSpec(
            name="fleet_survival",
            kind="table",
            title="Fleet survival by degradation kind (chaos fleet run)",
            generate=_gen_fleet_survival,
            render_txt=render_fleet_survival,
            records=lambda data: data,
            machine=("crill", "minotaur"),
            seed=7,
        ),
        FigureSpec(
            name="capsched_timeline",
            kind="table",
            title="Cap-schedule adaptation timeline (telemetry "
            "cap.change events)",
            generate=_gen_capsched_timeline,
            render_txt=render_capsched_timeline,
            records=lambda data: data,
            machine="crill",
            seed=0,
        ),
        FigureSpec(
            name="service_hit_rate",
            kind="table",
            title="Tuning-service hit rate by tier and store shard",
            generate=_gen_service_hit_rate,
            render_txt=render_service_hit_rate,
            records=lambda data: data,
            machine="crill",
            seed=0,
        ),
        FigureSpec(
            name="bench_trend",
            kind="table",
            title="BENCH metric trend across commits",
            generate=_gen_bench_trend,
            render_txt=render_bench_trend,
            records=lambda data: data,
            cost="external",
        ),
    )
}


def figure_names(cost: str | None = None) -> list[str]:
    """Registered names (optionally filtered by cost class)."""
    return [
        name
        for name, spec in sorted(REGISTRY.items())
        if cost is None or spec.cost == cost
    ]


def get_spec(name: str) -> FigureSpec:
    try:
        return REGISTRY[name]
    except KeyError:
        raise UnknownFigureError(name) from None


def generate_figure(
    name: str, options: GenOptions | None = None
) -> GeneratedFigure:
    """Run one registered generator and realize every representation
    (no files written - see :func:`write_figure`)."""
    spec = get_spec(name)
    options = options or GenOptions()
    data = spec.generate(options)
    table = RecordTable(spec.records(data))
    config = None
    if spec.cost == "sweep":
        config = {
            "repeats": options.repeats,
            "workers": options.workers,
            "cached": options.cache is not None,
        }
    return GeneratedFigure(
        spec=spec,
        data=data,
        text=spec.render_txt(data, spec.title),
        table=table,
        bench=bench_payload(
            spec.name,
            None if spec.metrics is None else spec.metrics(data),
            records=table.records,
            machine=spec.machine,
            seed=spec.seed,
            config=config,
        ),
    )


def write_figure(
    generated: GeneratedFigure,
    out_dir: str | Path,
    formats: Sequence[str] = FORMATS,
) -> dict[str, Path]:
    """Atomically write one generated artifact in each requested
    backend; returns ``format -> path``.  ``json`` is the artifact's
    ``BENCH_<name>.json``."""
    name = generated.spec.name
    paths: dict[str, Path] = {}
    for fmt in formats:
        if fmt == "txt":
            path = write_result_txt(out_dir, name, generated.text)
        elif fmt == "json":
            path = write_bench_json(out_dir, generated.bench)
        elif fmt == "csv":
            path = Path(out_dir) / f"{name}.csv"
            atomic_write_text(path, generated.table.to_csv())
        else:
            raise ValueError(
                f"unknown output format {fmt!r}; choose from {FORMATS}"
            )
        paths[fmt] = path
    generated.paths.update(paths)
    return paths


def generate_figures(
    names: Sequence[str] | None = None,
    out_dir: str | Path = "results",
    formats: Sequence[str] = FORMATS,
    options: GenOptions | None = None,
    progress: Callable[[str], None] | None = None,
) -> list[GeneratedFigure]:
    """Regenerate registered artifacts (all of them by default) into
    ``out_dir``; the workhorse behind ``repro figures``.

    "external"-cost entries only run when named explicitly - the
    default-all set must regenerate from the repo alone."""
    if names is None or not names:
        names = [
            name
            for name in figure_names()
            if REGISTRY[name].cost != "external"
        ]
    specs = [get_spec(name) for name in names]  # validate all first
    generated: list[GeneratedFigure] = []
    for spec in specs:
        if progress is not None:
            progress(spec.name)
        artifact = generate_figure(spec.name, options)
        write_figure(artifact, out_dir, formats)
        generated.append(artifact)
    return generated
