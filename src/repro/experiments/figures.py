"""Data generators for every figure in the paper's evaluation.

Each ``figN_*`` function runs the measurements behind the corresponding
figure and returns a small structured result that the figure registry
(:mod:`repro.analysis.registry`) renders and tests assert on; the power
sweeps of Figures 4, 5, 7 and 8 are :func:`power_sweep` calls whose
application, machine and power levels the registry names.  Normalization follows the paper: every
value is divided by the default configuration's value at the same power
level ("Smaller value is better").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import search_space_for
from repro.core.history import HistoryStore
from repro.experiments.parallel import ParallelSweepExecutor, SweepTask
from repro.faults.plan import FaultPlan
from repro.experiments.runner import (
    CRILL_POWER_LEVELS,
    STRATEGIES,
    ExperimentSetup,
    StrategyRunResult,
    run_arcs_offline,
    run_arcs_online,
    run_default,
)
from repro.machine.node import SimulatedNode
from repro.machine.spec import MachineSpec, crill
from repro.openmp.engine import ExecutionEngine
from repro.openmp.types import OMPConfig, ScheduleKind, default_config
from repro.workloads.base import Application
from repro.workloads.bt import bt_application, bt_motivation_region
from repro.workloads.lulesh import lulesh_application
from repro.workloads.sp import sp_application

#: the four features compared in Figures 3, 6 and 10.
FEATURES = ("OMP_BARRIER", "L1 miss", "L2 miss", "L3 miss")


# ---------------------------------------------------------------------------
# Figure 1 - motivation: BT x_solve across power levels
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Fig1Row:
    label: str                 # power level or fixed no-cap config
    config: str
    time_s: float
    default_time_s: float | None   # default at the same power level

    @property
    def improvement_pct(self) -> float | None:
        if self.default_time_s is None:
            return None
        return 100.0 * (1.0 - self.time_s / self.default_time_s)


def fig1_motivation(
    spec: MachineSpec | None = None,
    caps: tuple[float, ...] = CRILL_POWER_LEVELS,
    calls: int = 60,
) -> list[Fig1Row]:
    """Region-level execution time of the BT ``x_solve`` motivation
    kernel: best configuration vs default at each power level, plus
    fixed configurations without a cap (the paper's right-hand bars)."""
    spec = spec or crill()
    region = bt_motivation_region("B")
    space = search_space_for(spec)
    rows: list[Fig1Row] = []

    def region_time(cap: float | None, config: OMPConfig) -> float:
        node = SimulatedNode(spec)
        if cap is not None:
            node.set_power_cap(cap)
            node.settle_after_cap()
        engine = ExecutionEngine(node)
        record = engine.execute(region, config)
        return record.time_s * calls

    def best_at(cap: float | None) -> tuple[OMPConfig, float]:
        best_cfg, best_t = None, float("inf")
        for indices in space.iter_indices():
            from repro.core.config import config_from_point

            cfg = config_from_point(space.decode(indices))
            t = region_time(cap, cfg)
            if t < best_t:
                best_cfg, best_t = cfg, t
        assert best_cfg is not None
        return best_cfg, best_t

    dflt = default_config(spec.total_hw_threads)
    for cap in caps:
        cap_arg = None if cap >= spec.tdp_w else cap
        label = "TDP" if cap_arg is None else f"{cap:g}W"
        cfg, t_best = best_at(cap_arg)
        t_dflt = region_time(cap_arg, dflt)
        rows.append(
            Fig1Row(
                label=label,
                config=cfg.label(),
                time_s=t_best,
                default_time_s=t_dflt,
            )
        )
    # fixed configurations without a power cap (paper's comparison bars)
    nocap_configs = (
        OMPConfig(24, ScheduleKind.GUIDED, 1),
        OMPConfig(32, ScheduleKind.DYNAMIC, 1),
        OMPConfig(32, ScheduleKind.GUIDED, 1),
        OMPConfig(32, ScheduleKind.STATIC, 1),
        dflt,
    )
    for cfg in nocap_configs:
        rows.append(
            Fig1Row(
                label="NO CAP",
                config=cfg.label(),
                time_s=region_time(None, cfg),
                default_time_s=None,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Feature comparisons (Figures 3, 6, 10)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FeatureComparison:
    """Normalized features of the ARCS-Offline run, per region
    (default = 1.0 for every feature)."""

    app_label: str
    regions: tuple[str, ...]
    offline_normalized: dict[str, dict[str, float]]
    offline_configs: dict[str, str]


def feature_comparison(
    app: Application,
    region_names: tuple[str, ...],
    setup: ExperimentSetup,
    history: HistoryStore | None = None,
) -> FeatureComparison:
    """Compare default vs ARCS-Offline cache/barrier features."""
    d = run_default(app, setup)
    off = run_arcs_offline(app, setup, history=history)
    normalized: dict[str, dict[str, float]] = {}
    for name in region_names:
        d_run = d.representative
        o_run = off.representative
        d_tot = d_run.region_totals[name]
        o_tot = o_run.region_totals[name]
        d_mr = d_run.region_miss_rates[name]
        o_mr = o_run.region_miss_rates[name]
        barrier_ratio = (
            o_tot.barrier_s / d_tot.barrier_s
            if d_tot.barrier_s > 0
            else 1.0
        )
        normalized[name] = {
            "OMP_BARRIER": barrier_ratio,
            "L1 miss": o_mr[0] / d_mr[0] if d_mr[0] > 0 else 1.0,
            "L2 miss": o_mr[1] / d_mr[1] if d_mr[1] > 0 else 1.0,
            "L3 miss": o_mr[2] / d_mr[2] if d_mr[2] > 0 else 1.0,
        }
    return FeatureComparison(
        app_label=app.label,
        regions=region_names,
        offline_normalized=normalized,
        offline_configs={
            name: cfg.label()
            for name, cfg in off.chosen_configs.items()
            if name in region_names
        },
    )


SP_MAJOR_REGIONS = ("compute_rhs", "x_solve", "y_solve", "z_solve")


def fig3_sp_features(
    setup: ExperimentSetup | None = None,
) -> FeatureComparison:
    """Figure 3: SP-B, four major regions, default vs Offline at TDP."""
    setup = setup or ExperimentSetup(spec=crill())
    return feature_comparison(sp_application("B"), SP_MAJOR_REGIONS, setup)


def fig6_bt_features(
    setup: ExperimentSetup | None = None,
) -> FeatureComparison:
    """Figure 6: BT-B ``compute_rhs``, default vs Offline at TDP."""
    setup = setup or ExperimentSetup(spec=crill())
    return feature_comparison(
        bt_application("B"), ("compute_rhs",), setup
    )


def fig10_lulesh_features(
    setup: ExperimentSetup | None = None,
) -> FeatureComparison:
    """Figure 10: LULESH ``CalcFBHourglassForceForElems``."""
    setup = setup or ExperimentSetup(spec=crill())
    return feature_comparison(
        lulesh_application(45), ("CalcFBHourglassForceForElems_",), setup
    )


# ---------------------------------------------------------------------------
# Power sweeps (Figures 4, 5, 7, 8)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SweepCell:
    time_norm: float
    energy_norm: float | None


@dataclass(frozen=True)
class PowerSweep:
    """Normalized time/energy per (power level, strategy)."""

    app_label: str
    machine: str
    #: power-level labels in sweep order: ``"<cap>W"``, or ``"TDP"``
    #: for a cap at or above the machine's TDP.
    labels: tuple[str, ...]
    cells: dict[tuple[str, str], SweepCell]   # (label, strategy)
    results: dict[tuple[str, str], StrategyRunResult]


#: the strategies every sweep compares, in table order.
SWEEP_STRATEGIES = STRATEGIES[:3]


def power_sweep(
    app: Application,
    spec: MachineSpec,
    caps: tuple[float, ...],
    repeats: int = 3,
    seed: int = 0,
    *,
    executor: ParallelSweepExecutor | None = None,
    fault_plan: FaultPlan | None = None,
    telemetry_dir: str | None = None,
    service: str | None = None,
) -> PowerSweep:
    """Run default / ARCS-Online / ARCS-Offline at each power level.

    Each (cap, strategy) cell is an independent :class:`SweepTask`;
    the three cells of one power level share its
    :class:`ExperimentSetup`.  ``executor`` runs them - the default is
    strictly serial and in-process; pass a
    :class:`ParallelSweepExecutor` with ``max_workers`` to fan cells
    out over a process pool, or with a ``journal`` to memoize completed
    cells on disk.  ``telemetry_dir`` makes
    every cell write its own ``task-<run_id>.jsonl`` trace there
    (telemetry never changes what is measured, only what is
    recorded).  ``service`` points offline
    cells at a ``repro serve`` daemon (``host:port``): tuned configs
    are fetched from / published to it through the degradation-ordered
    ConfigSource chain, and - like telemetry - using it never changes
    what is measured.
    """
    if executor is None:
        executor = ParallelSweepExecutor()

    tasks: list[SweepTask] = []
    labels: list[str] = []
    for cap in caps:
        cap_arg = None if cap >= spec.tdp_w else cap
        labels.append("TDP" if cap_arg is None else f"{cap:g}W")
        setup = ExperimentSetup(
            spec=spec,
            cap_w=cap_arg,
            repeats=repeats,
            seed=seed,
            fault_plan=fault_plan,
        )
        tasks.extend(
            SweepTask(
                app=app,
                setup=setup,
                strategy=strategy,
                telemetry_dir=telemetry_dir,
                service=service,
            )
            for strategy in SWEEP_STRATEGIES
        )

    run_results = iter(executor.run(tasks))

    cells: dict[tuple[str, str], SweepCell] = {}
    results: dict[tuple[str, str], StrategyRunResult] = {}
    for label in labels:
        level = [next(run_results) for _ in SWEEP_STRATEGIES]
        base = level[0]  # SWEEP_STRATEGIES starts with "default"
        for res in level:
            results[(label, res.strategy)] = res
            cells[(label, res.strategy)] = SweepCell(
                time_norm=res.time_s / base.time_s,
                energy_norm=(
                    None
                    if base.energy_j is None or res.energy_j is None
                    else res.energy_j / base.energy_j
                ),
            )
    return PowerSweep(
        app_label=app.label,
        machine=spec.name,
        labels=tuple(labels),
        cells=cells,
        results=results,
    )


# ---------------------------------------------------------------------------
# Figure 9 - LULESH top-5 regions, OMPT event breakdown
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Fig9Row:
    region: str
    calls: int
    implicit_task_s: float
    loop_s: float
    barrier_s: float

    @property
    def time_per_call_s(self) -> float:
        return self.implicit_task_s / self.calls if self.calls else 0.0

    @property
    def barrier_fraction(self) -> float:
        if self.implicit_task_s <= 0:
            return 0.0
        return self.barrier_s / self.implicit_task_s


def fig9_lulesh_regions(
    setup: ExperimentSetup | None = None, top: int = 5
) -> list[Fig9Row]:
    """Figure 9: the top-``top`` LULESH regions by inclusive time with
    their OpenMP_IMPLICIT_TASK / OpenMP_LOOP / OpenMP_BARRIER split.

    As in the paper ("We used TAU for our analysis"), the breakdown
    comes from a TAU-style OMPT profiler attached to a run of the
    default configuration at the highest power cap.
    """
    from repro.apex.tau import TauProfiler
    from repro.experiments.runner import fresh_runtime
    from repro.workloads.base import run_application

    setup = setup or ExperimentSetup(spec=crill(), repeats=1)
    app = lulesh_application(45)
    runtime = fresh_runtime(setup)
    profiler = TauProfiler()
    profiler.attach(runtime)
    run_application(app, runtime)
    profiler.detach()
    return [
        Fig9Row(
            region=r.region_name,
            calls=r.calls,
            implicit_task_s=r.implicit_task_s,
            loop_s=r.loop_s,
            barrier_s=r.barrier_s,
        )
        for r in profiler.top_by_inclusive_time(top)
    ]
