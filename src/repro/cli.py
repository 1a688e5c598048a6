"""Command-line interface.

Examples::

    python -m repro list
    python -m repro search-space --machine crill
    python -m repro run --app sp --workload B --machine crill \
        --cap 85 --strategy arcs-offline
    python -m repro sweep --app sp --workload B
"""

from __future__ import annotations

import argparse
from collections.abc import Sequence
from contextlib import contextmanager
from pathlib import Path

from repro.analysis.compare import (
    DEFAULT_TOLERANCE,
    compare_dirs,
    render_comparison,
)
from repro.analysis.registry import (
    FORMATS as FIGURE_FORMATS,
    GenOptions,
    UnknownFigureError,
    figure_names,
    generate_figure,
    generate_figures,
)
from repro.core.capschedule import (
    CapSchedule,
    CapScheduleError,
    load_cap_schedule,
)
from repro.core.history import HistoryStore
from repro.experiments.cache import DEFAULT_CACHE_DIR, ExperimentCache
from repro.experiments.figures import power_sweep
from repro.experiments.journal import SweepJournal
from repro.experiments.parallel import ParallelSweepExecutor
from repro.experiments.reporting import render_sweep
from repro.experiments.resumable import CheckpointError
from repro.experiments.runner import (
    CRILL_POWER_LEVELS,
    STRATEGIES,
    ExperimentSetup,
    run_strategy,
)
from repro.faults.inject import make_injector
from repro.faults.plan import FaultPlan, FaultPlanError, load_fault_plan
from repro.obs.monitor import monitor_follow, monitor_once
from repro.obs.profile import (
    DEFAULT_INTERVAL_S,
    DEFAULT_TOP,
    render_profile,
)
from repro.obs.slo import SloConfigError
from repro.obs.trace import render_trace_tree, root_context
from repro.supervise import RunAbortedError
from repro.machine.spec import machine_by_name
from repro.telemetry import (
    JsonlSink,
    bus,
    export_chrome_trace,
    load_telemetry_dir,
    render_decision_timeline,
    render_metrics_summary,
    telemetry_session,
)
from repro.util.jsonlog import LogMismatchError
from repro.util.log import LEVELS as _LOG_LEVELS
from repro.util.log import configure as configure_logging
from repro.util.tables import format_table
from repro.workloads.registry import application_by_name

_APPS = ("sp", "bt", "lulesh", "synthetic")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "ARCS (CLUSTER 2016) reproduction - run power-constrained "
            "OpenMP tuning experiments on simulated machines"
        ),
    )
    parser.add_argument(
        "--log-level", choices=_LOG_LEVELS, default=None,
        help="diagnostic log verbosity (also: REPRO_LOG=level[:json])",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list applications, machines, strategies")

    space = sub.add_parser(
        "search-space", help="print the Table I search parameters"
    )
    space.add_argument("--machine", default="crill")

    run = sub.add_parser(
        "run", help="run one (app, machine, cap, strategy) measurement"
    )
    run.add_argument("--app", choices=_APPS, default="sp")
    run.add_argument("--workload", default=None,
                     help="NPB class (B/C) or LULESH mesh (45/60)")
    run.add_argument("--machine", default="crill")
    run.add_argument("--cap", type=float, default=None,
                     help="package power cap in watts (default: TDP)")
    run.add_argument("--strategy", choices=STRATEGIES,
                     default="arcs-offline")
    run.add_argument("--repeats", type=int, default=3)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--history", default=None,
                     help="path to an ARCS history log")
    run.add_argument("--faults", default=None, metavar="PLAN.JSON",
                     help="fault-injection plan (see examples/"
                          "faultplan.json); omit for a clean run")
    run.add_argument("--cap-schedule", default=None,
                     metavar="SCHED.JSON",
                     help="dynamic power-cap schedule (see examples/"
                          "capschedule.json); changes the cap mid-run")
    run.add_argument("--checkpoint", default=None, metavar="PATH",
                     help="write a resumable checkpoint before the "
                          "first repeat and after every completed "
                          "repeat; a resume re-runs the interrupted "
                          "repeat (arcs-online only)")
    run.add_argument("--resume-from", default=None, metavar="PATH",
                     help="resume an interrupted arcs-online run from "
                          "a checkpoint written by --checkpoint")
    run.add_argument("--telemetry", default=None, metavar="DIR",
                     help="record the run's full event/metric stream "
                          "as telemetry.jsonl plus a Perfetto-loadable "
                          "trace.json under DIR")
    run.add_argument("--service", default=None, metavar="HOST:PORT",
                     help="tuning-service daemon consulted before "
                          "fresh tuning (arcs-offline only); results "
                          "are byte-identical with or without it")
    run.add_argument("--service-deadline", type=float, default=None,
                     metavar="SECONDS",
                     help="per-request deadline for --service "
                          "(default: 2.0)")
    run.add_argument("--surrogate-model", default=None,
                     metavar="MODEL.JSON",
                     help="fitted surrogate model (repro surrogate "
                          "fit); required by --strategy surrogate, "
                          "optional with --surrogate-cold-start")
    run.add_argument("--surrogate-top-k", type=int, default=None,
                     metavar="K",
                     help="configs measured per region when the model "
                          "is trusted (default: 12)")
    run.add_argument("--surrogate-max-fit-error", type=float,
                     default=None, metavar="ERR",
                     help="held-out fit error above which tuning falls "
                          "back to nelder-mead (default: 0.35)")
    run.add_argument("--surrogate-cold-start", action="store_true",
                     help="serve model-predicted configurations when "
                          "every tuned-knowledge tier misses (offline "
                          "strategies; needs --surrogate-model)")

    sweep = sub.add_parser(
        "sweep",
        help="default vs ARCS-Online vs ARCS-Offline across power levels",
    )
    sweep.add_argument("--app", choices=_APPS, default="sp")
    sweep.add_argument("--workload", default=None)
    sweep.add_argument("--machine", default="crill")
    sweep.add_argument("--repeats", type=int, default=3)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument(
        "--workers", type=int, default=1,
        help="process-pool size; 1 = serial in-process (default)",
    )
    sweep.add_argument(
        "--no-cache", action="store_true",
        help="recompute every cell instead of using the result cache",
    )
    sweep.add_argument(
        "--cache-dir", default=str(DEFAULT_CACHE_DIR),
        help=f"result-cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    sweep.add_argument(
        "--faults", default=None, metavar="PLAN.JSON",
        help="fault-injection plan applied to every sweep cell",
    )
    sweep.add_argument(
        "--journal", default=None, metavar="PATH",
        help="crash-safe journal recording each completed cell; "
             "pair with --resume to continue an interrupted sweep",
    )
    sweep.add_argument(
        "--resume", action="store_true",
        help="serve cells already in --journal instead of re-running "
             "them (requires --journal)",
    )
    sweep.add_argument(
        "--telemetry", default=None, metavar="DIR",
        help="record harness lifecycle events (sweep.jsonl) and one "
             "task-<runid>.jsonl per executed cell under DIR, plus a "
             "merged trace.json",
    )
    sweep.add_argument(
        "--service", default=None, metavar="HOST:PORT",
        help="tuning-service daemon shared by the offline cells; "
             "tuned configs are fetched from / published to it, with "
             "local fallback on any failure",
    )

    fleet = sub.add_parser(
        "fleet",
        help="simulate a cluster of ARCS nodes under one global "
             "power budget",
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)
    fleet_run = fleet_sub.add_parser(
        "run",
        help="run a fleet: staggered nodes, hierarchical budget "
             "allocator, failure-aware membership",
    )
    fleet_run.add_argument(
        "--nodes", type=int, default=8,
        help="size of the synthesized mixed crill/minotaur roster "
             "(ignored with --plan; default: 8)",
    )
    fleet_run.add_argument(
        "--global-cap", type=float, default=None, dest="global_cap",
        metavar="W",
        help="global power budget in watts (default: ~75%% of the "
             "roster's summed TDP)",
    )
    fleet_run.add_argument(
        "--plan", default=None, metavar="PLAN.JSON",
        help="full fleet plan (see examples/fleetplan.json); "
             "overrides --nodes/--global-cap/--seed/--max-steps",
    )
    fleet_run.add_argument("--seed", type=int, default=0)
    fleet_run.add_argument(
        "--max-steps", type=int, default=200,
        help="hard bound on simulation steps (default: 200)",
    )
    fleet_run.add_argument(
        "--faults", default=None, metavar="PLAN.JSON",
        help="fault plan arming the fleet.* sites (node crash/hang, "
             "telemetry drop/partition, cap-write reject, flapping "
             "membership)",
    )
    fleet_run.add_argument(
        "--journal", default=None, metavar="PATH",
        help="fsync'd per-step fleet journal; pair with --resume to "
             "continue a killed run byte-identically",
    )
    fleet_run.add_argument(
        "--resume", action="store_true",
        help="resume from the last intact snapshot in --journal",
    )
    fleet_run.add_argument(
        "--telemetry", default=None, metavar="DIR",
        help="record every fleet event / budget gauge as "
             "fleet.jsonl plus trace.json under DIR",
    )

    serve = sub.add_parser(
        "serve",
        help="run the tuning-as-a-service config-knowledge daemon",
    )
    serve.add_argument(
        "--store", required=True, metavar="DIR",
        help="directory holding the daemon's sharded knowledge store",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=9178,
                       help="TCP port (0 = ephemeral; default: 9178)")
    serve.add_argument(
        "--capacity", type=int, default=None,
        help="LRU entry capacity (default: 4096)",
    )
    serve.add_argument(
        "--faults", default=None, metavar="PLAN.JSON",
        help="fault-injection plan for the server-side "
             "service.server site (chaos testing)",
    )
    serve.add_argument(
        "--telemetry", default=None, metavar="DIR",
        help="record the daemon's request stream (per-op counters, "
             "serve spans with adopted client trace context) as "
             "daemon.jsonl under DIR",
    )

    figures = sub.add_parser(
        "figures",
        help="regenerate registered paper figures/tables from the "
             "figure registry (txt / json / csv backends)",
    )
    figures.add_argument(
        "names", nargs="*", metavar="NAME",
        help="registry names to regenerate (default: all); see --list",
    )
    figures.add_argument(
        "--list", action="store_true", dest="list_figures",
        help="list registered figure/table names and exit",
    )
    figures.add_argument(
        "--out", default="results", metavar="DIR",
        help="output directory (default: results)",
    )
    figures.add_argument(
        "--formats", default=",".join(FIGURE_FORMATS),
        help="comma-separated output backends "
             f"(default: {','.join(FIGURE_FORMATS)})",
    )
    figures.add_argument("--repeats", type=int, default=3)
    figures.add_argument(
        "--workers", type=int, default=1,
        help="process-pool size for sweep-backed figures",
    )
    figures.add_argument(
        "--no-cache", action="store_true",
        help="recompute sweep cells instead of using the result cache",
    )
    figures.add_argument(
        "--cache-dir", default=str(DEFAULT_CACHE_DIR),
        help=f"result-cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    figures.add_argument(
        "--bench-dir", default=None, metavar="DIR",
        help="directory of per-commit BENCH_*.json snapshots "
             "(one subdirectory per commit, sorted = oldest first); "
             "required by the bench_trend figure",
    )

    analysis = sub.add_parser(
        "analysis",
        help="machine-readable results tooling (BENCH_*.json)",
    )
    analysis_sub = analysis.add_subparsers(
        dest="analysis_command", required=True
    )
    compare = analysis_sub.add_parser(
        "compare",
        help="diff two BENCH_*.json result sets; exit 1 on regression",
    )
    compare.add_argument("old", metavar="OLD",
                         help="baseline directory of BENCH_*.json files")
    compare.add_argument("new", metavar="NEW",
                         help="new directory of BENCH_*.json files")
    compare.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="relative tolerance before a worse-direction move counts "
             f"as a regression (default: {DEFAULT_TOLERANCE})",
    )

    surrogate = sub.add_parser(
        "surrogate",
        help="fit / inspect the learned config-ranking surrogate",
    )
    surrogate_sub = surrogate.add_subparsers(
        dest="surrogate_command", required=True
    )
    fit = surrogate_sub.add_parser(
        "fit",
        help="fold measurement stores into a training corpus and fit "
             "the surrogate model",
    )
    fit.add_argument(
        "--cache-dir", action="append", default=[], metavar="DIR",
        help="result-cache directory to fold (repeatable)",
    )
    fit.add_argument(
        "--journal", action="append", default=[], metavar="PATH",
        help="sweep journal to fold (repeatable; read-only)",
    )
    fit.add_argument(
        "--telemetry", action="append", default=[], metavar="DIR",
        help="telemetry directory to fold (repeatable)",
    )
    fit.add_argument(
        "--out", required=True, metavar="MODEL.JSON",
        help="where to save the fitted model",
    )
    fit.add_argument(
        "--corpus", default=None, metavar="CORPUS.JSON",
        help="also save the folded training corpus here",
    )
    fit.add_argument(
        "--report", default=None, metavar="REPORT.JSON",
        help="also save the fit-quality report here",
    )
    fit.add_argument("--dim", type=int, default=None,
                     help="hashed feature dimensionality (default: 1024)")
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument(
        "--faults", default=None, metavar="PLAN.JSON",
        help="fault plan arming the surrogate.corpus / surrogate.fit "
             "sites (chaos testing)",
    )
    srep = surrogate_sub.add_parser(
        "report", help="print a saved model's fit-quality report"
    )
    srep.add_argument("model", metavar="MODEL.JSON")

    trace = sub.add_parser(
        "trace",
        help="render the per-region decision timeline from a "
             "telemetry directory",
    )
    trace.add_argument("dir", metavar="DIR",
                       help="directory written by --telemetry")
    trace.add_argument("--region", default=None,
                       help="only show decisions for this region")
    trace.add_argument(
        "--tree", action="store_true",
        help="render the stitched cross-process span tree (trace-"
             "context parent/child links) instead of the per-region "
             "decision timeline",
    )

    monitor = sub.add_parser(
        "monitor",
        help="dashboard + SLO evaluation over a telemetry directory; "
             "exit 1 if any SLO rule fires",
    )
    monitor.add_argument("dir", metavar="DIR",
                         help="directory written by --telemetry")
    monitor.add_argument(
        "--slo", default=None, metavar="RULES.JSON",
        help="declarative SLO rule file (see examples/slo.json); "
             "violations become typed obs.alert events and exit 1",
    )
    monitor.add_argument(
        "--follow", action="store_true",
        help="live-tail the directory, re-rendering each interval "
             "(Ctrl-C to stop)",
    )
    monitor.add_argument(
        "--window", type=float, default=1.0, metavar="SECONDS",
        help="rollup window in virtual seconds (default: 1.0)",
    )
    monitor.add_argument(
        "--top", type=int, default=10,
        help="slowest spans shown (default: 10)",
    )
    monitor.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="--follow poll interval in wall seconds (default: 1.0)",
    )
    monitor.add_argument(
        "--max-polls", type=int, default=None, metavar="N",
        help="--follow: stop after N polls (default: until Ctrl-C)",
    )

    profile = sub.add_parser(
        "profile",
        help="deterministic virtual-clock sampling profile of a "
             "telemetry directory's spans, grouped by ancestry path",
    )
    profile.add_argument("dir", metavar="DIR",
                         help="directory written by --telemetry")
    profile.add_argument(
        "--interval", type=float, default=DEFAULT_INTERVAL_S,
        metavar="SECONDS",
        help="virtual sampling interval "
             f"(default: {DEFAULT_INTERVAL_S:g})",
    )
    profile.add_argument(
        "--top", type=int, default=DEFAULT_TOP,
        help=f"hot paths shown (default: {DEFAULT_TOP})",
    )

    report = sub.add_parser(
        "report", help="summarize a recorded run's telemetry"
    )
    report.add_argument(
        "--telemetry", required=True, metavar="DIR",
        help="directory written by run/sweep --telemetry",
    )
    return parser


@contextmanager
def _telemetry_session(directory: str, filename: str, **meta):
    """A :func:`~repro.telemetry.telemetry_session` writing
    ``DIR/filename`` for the span of one CLI command; always
    regenerates ``trace.json``.  The command's trace is rooted at a deterministic
    per-invocation id, so `repro trace --tree` stitches one tree per
    CLI command."""
    out = Path(directory)
    try:
        with telemetry_session(
            JsonlSink(out / filename), trace=root_context(**meta), **meta
        ) as session:
            yield session
    finally:
        export_chrome_trace(out)


def _cmd_list() -> str:
    rows = [
        ("applications", ", ".join(_APPS)),
        ("workloads", "sp/bt: B, C; lulesh: 45, 60"),
        ("machines", "crill (Sandy Bridge), minotaur (POWER8)"),
        ("strategies", ", ".join(STRATEGIES)),
        ("power levels (crill)",
         ", ".join(f"{c:g}W" for c in CRILL_POWER_LEVELS)),
    ]
    return format_table(("what", "values"), rows)


def _cmd_search_space(args: argparse.Namespace) -> str:
    # validates the machine name as a side effect
    machine_by_name(args.machine)
    return generate_figure("table1_search_space").text


def _load_faults(path: str | None) -> FaultPlan | None:
    if path is None:
        return None
    try:
        return load_fault_plan(path)
    except (FaultPlanError, OSError) as exc:
        # load_fault_plan wraps file errors, but keep OSError here too
        # so an unanticipated filesystem failure still surfaces as one
        # actionable line instead of a traceback.
        raise SystemExit(f"error: {exc}") from exc


def _load_capsched(path: str | None) -> CapSchedule | None:
    if path is None:
        return None
    try:
        return load_cap_schedule(path)
    except (CapScheduleError, OSError) as exc:
        raise SystemExit(f"error: {exc}") from exc


def _service_chain(
    address: str | None,
    fault_plan: FaultPlan | None,
    deadline_s: float | None = None,
):
    """Build the degradation-ordered ConfigSource chain for --service
    (``None`` when no service was requested)."""
    if address is None:
        return None
    from repro.service.source import default_chain

    try:
        return default_chain(
            address,
            faults=make_injector(fault_plan, salt="service-client"),
            deadline_s=deadline_s,
        )
    except ValueError as exc:
        # a malformed host:port string
        raise SystemExit(f"error: {exc}") from exc


def _cmd_run(args: argparse.Namespace) -> str:
    spec = machine_by_name(args.machine)
    app = application_by_name(args.app, args.workload)
    try:
        setup = ExperimentSetup(
            spec=spec, cap_w=args.cap, repeats=args.repeats,
            seed=args.seed, fault_plan=_load_faults(args.faults),
            cap_schedule=_load_capsched(args.cap_schedule),
        )
    except ValueError as exc:
        # e.g. --cap on a machine without capping privilege, or
        # --repeats 0: refuse loudly instead of mis-reporting.
        raise SystemExit(f"error: {exc}") from exc
    history = HistoryStore(args.history) if args.history else None
    source = _service_chain(
        args.service, setup.fault_plan, args.service_deadline
    )
    surrogate_tuning = None
    if args.surrogate_model is not None:
        from repro.surrogate.plan import (
            DEFAULT_MAX_FIT_ERROR,
            DEFAULT_TOP_K,
            SurrogateTuning,
        )

        surrogate_tuning = SurrogateTuning.load(
            args.surrogate_model,
            top_k=(
                DEFAULT_TOP_K
                if args.surrogate_top_k is None
                else args.surrogate_top_k
            ),
            max_fit_error=(
                DEFAULT_MAX_FIT_ERROR
                if args.surrogate_max_fit_error is None
                else args.surrogate_max_fit_error
            ),
        )
    if args.strategy == "surrogate" and surrogate_tuning is None:
        raise SystemExit(
            "error: --strategy surrogate needs --surrogate-model "
            "(fit one with `repro surrogate fit`)"
        )
    if args.surrogate_cold_start:
        if surrogate_tuning is None:
            raise SystemExit(
                "error: --surrogate-cold-start needs --surrogate-model"
            )
        from repro.surrogate.source import SurrogateColdStartSource

        cold = SurrogateColdStartSource(surrogate_tuning)
        if source is None:
            from repro.service.source import default_chain

            source = default_chain(surrogate=cold)
        else:
            source.sources.append(cold)

    def _execute():
        try:
            return run_strategy(
                args.strategy, app, setup, history=history,
                checkpoint_path=args.checkpoint,
                resume_from=args.resume_from,
                source=source,
                surrogate=surrogate_tuning,
            )
        except RunAbortedError as exc:
            # land the abort in the event log (and thus the timeline)
            # before the telemetry session closes
            tb = bus()
            if tb.enabled:
                tb.emit(
                    "run.aborted", region=exc.region, reason=exc.reason
                )
            raise

    try:
        if args.telemetry:
            with _telemetry_session(
                args.telemetry, "telemetry.jsonl",
                command="run", app=app.label, machine=spec.name,
                strategy=args.strategy, cap_w=args.cap,
                seed=args.seed, repeats=args.repeats,
            ):
                result = _execute()
        else:
            result = _execute()
    except CheckpointError as exc:
        # missing or damaged checkpoint: actionable, not a bug
        raise SystemExit(f"error: {exc}") from exc
    except RunAbortedError as exc:
        raise SystemExit(f"error: {exc}") from exc
    except ValueError as exc:
        # e.g. --checkpoint with a non-online strategy, or a
        # --resume-from checkpoint another experiment wrote
        raise SystemExit(f"error: {exc}") from exc
    cap = "TDP" if args.cap is None else f"{args.cap:g}W"
    lines = [
        f"{app.label} on {spec.name} @ {cap}, {args.strategy} "
        f"({args.repeats} repeats, {setup.summary_mode}):",
        f"  time   : {result.time_s:.3f} s",
    ]
    if result.energy_j is not None:
        lines.append(f"  energy : {result.energy_j:.1f} J (package)")
    if result.chosen_configs:
        lines.append("  chosen configurations:")
        for region, config in sorted(result.chosen_configs.items()):
            lines.append(f"    {region:34s} {config.label()}")
    if result.overhead is not None:
        lines.append(
            f"  overheads: config-change "
            f"{result.overhead.config_change_s * 1e3:.1f} ms, "
            f"instrumentation "
            f"{result.overhead.instrumentation_s * 1e3:.1f} ms, "
            f"search {result.overhead.search_s * 1e3:.1f} ms"
        )
    if result.cap_changes:
        lines.append("  cap changes:")
        lines.extend(
            f"    - {change}" for change in result.cap_changes
        )
    if result.degradations:
        lines.append("  degradations:")
        lines.extend(
            f"    - {note}" for note in result.degradations
        )
    return "\n".join(lines)


def _cmd_sweep(args: argparse.Namespace) -> str:
    spec = machine_by_name(args.machine)
    app = application_by_name(args.app, args.workload)
    caps = (
        CRILL_POWER_LEVELS
        if spec.supports_power_cap
        else (spec.tdp_w,)
    )
    if args.workers < 1:
        raise SystemExit(
            f"error: --workers must be >= 1, got {args.workers}"
        )
    if args.resume and args.journal is None:
        raise SystemExit("error: --resume requires --journal")
    cache = (
        None if args.no_cache else ExperimentCache(args.cache_dir)
    )
    fault_plan = _load_faults(args.faults)
    executor = ParallelSweepExecutor(
        max_workers=args.workers,
        cache=cache,
        journal=(
            SweepJournal(args.journal) if args.journal else None
        ),
        resume=args.resume,
        faults=make_injector(fault_plan),
    )
    def _run_sweep():
        return power_sweep(
            app, spec, caps, repeats=args.repeats, seed=args.seed,
            executor=executor, fault_plan=fault_plan,
            telemetry_dir=args.telemetry, service=args.service,
        )

    try:
        if args.telemetry:
            with _telemetry_session(
                args.telemetry, "sweep.jsonl",
                command="sweep", app=app.label, machine=spec.name,
                repeats=args.repeats, seed=args.seed,
                workers=args.workers,
            ):
                sweep = _run_sweep()
        else:
            sweep = _run_sweep()
    except LogMismatchError as exc:
        raise SystemExit(f"error: {exc}") from exc
    lines = [
        render_sweep(
            sweep, f"{app.label} on {spec.name}: strategy comparison"
        )
    ]
    degradations = sorted(
        {
            note
            for result in sweep.results.values()
            for note in result.degradations
        }
    )
    if degradations:
        lines.append("degradations:")
        lines.extend(f"  - {note}" for note in degradations)
    if cache is not None:
        lines.append(
            f"[cache] {cache.stats.hits} hit(s), "
            f"{cache.stats.misses} miss(es) under {cache.root}"
        )
    return "\n".join(lines)


def _cmd_fleet(args: argparse.Namespace) -> str:
    from repro.fleet import (
        FleetJournal,
        FleetPlanError,
        FleetSimulation,
        load_fleet_plan,
        render_fleet,
        synthesize_fleet,
    )

    try:
        if args.plan is not None:
            plan = load_fleet_plan(args.plan)
        else:
            plan = synthesize_fleet(
                args.nodes,
                args.global_cap,
                seed=args.seed,
                max_steps=args.max_steps,
            )
    except FleetPlanError as exc:
        raise SystemExit(f"error: {exc}") from exc
    if args.resume and args.journal is None:
        raise SystemExit("error: --resume requires --journal")
    sim = FleetSimulation(
        plan,
        _load_faults(args.faults),
        journal=FleetJournal(args.journal) if args.journal else None,
        resume=args.resume,
    )
    try:
        if args.telemetry:
            with _telemetry_session(
                args.telemetry, "fleet.jsonl",
                command="fleet", nodes=len(plan.nodes),
                global_cap_w=plan.global_cap_w, seed=plan.seed,
            ):
                result = sim.run()
        else:
            result = sim.run()
    except LogMismatchError as exc:
        raise SystemExit(f"error: {exc}") from exc
    return render_fleet(result)


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the tuning-service daemon until shutdown/Ctrl-C."""
    from repro.service.daemon import serve_forever

    if args.capacity is not None and args.capacity < 1:
        raise SystemExit(
            f"error: --capacity must be >= 1, got {args.capacity}"
        )
    try:
        serve_forever(
            args.store,
            host=args.host,
            port=args.port,
            fault_plan=_load_faults(args.faults),
            capacity=args.capacity,
            telemetry_dir=args.telemetry,
        )
    except OSError as exc:
        # e.g. the port is taken or the host cannot be bound
        raise SystemExit(f"error: {exc}") from exc
    return 0


def _cmd_figures(args: argparse.Namespace) -> str:
    if args.list_figures:
        rows = []
        from repro.analysis.registry import REGISTRY

        for name in figure_names():
            spec = REGISTRY[name]
            rows.append((name, spec.kind, spec.cost, spec.title))
        return format_table(
            ("name", "kind", "cost", "title"), rows,
            title="Registered figures/tables",
        )
    formats = tuple(
        f.strip() for f in args.formats.split(",") if f.strip()
    )
    bad = [f for f in formats if f not in FIGURE_FORMATS]
    if bad or not formats:
        raise SystemExit(
            f"error: unknown format(s) {', '.join(bad) or '(none)'}; "
            f"choose from {', '.join(FIGURE_FORMATS)}"
        )
    if args.workers < 1:
        raise SystemExit(
            f"error: --workers must be >= 1, got {args.workers}"
        )
    options = GenOptions(
        repeats=args.repeats,
        workers=args.workers,
        cache=(
            None if args.no_cache else ExperimentCache(args.cache_dir)
        ),
        bench_dir=args.bench_dir,
    )
    lines: list[str] = []
    try:
        generated = generate_figures(
            args.names or None,
            out_dir=args.out,
            formats=formats,
            options=options,
            progress=lambda name: lines.append(f"[figures] {name} ..."),
        )
    except UnknownFigureError as exc:
        raise SystemExit(f"error: {exc.args[0]}") from exc
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from exc
    for artifact in generated:
        written = ", ".join(
            str(artifact.paths[fmt]) for fmt in formats
        )
        lines.append(
            f"[figures] {artifact.spec.name}: wrote {written}"
        )
    lines.append(
        f"regenerated {len(generated)} artifact(s) under {args.out}"
    )
    return "\n".join(lines)


def _cmd_analysis(args: argparse.Namespace) -> tuple[str, int]:
    # only one analysis subcommand today; keep the dispatch explicit
    # so the next one (e.g. `analysis trend`) slots in cleanly.
    if args.analysis_command == "compare":
        try:
            report = compare_dirs(
                args.old, args.new, tolerance=args.tolerance
            )
        except (FileNotFoundError, ValueError) as exc:
            raise SystemExit(f"error: {exc}") from exc
        return render_comparison(report), (0 if report.ok else 1)
    raise SystemExit(
        f"error: unknown analysis command {args.analysis_command!r}"
    )


def _render_fit_report(report) -> str:
    def fmt(value):
        return "-" if value is None else f"{value:.4f}"

    rows = [
        ("training records", str(report.n_records)),
        ("  fit on", str(report.n_train)),
        ("  held out", str(report.n_holdout)),
        ("  unresolvable", str(report.n_unresolvable)),
        ("feature dim", str(report.dim)),
        ("seed", str(report.seed)),
        ("holdout rel err", fmt(report.holdout_rel_err)),
        ("train rel err", fmt(report.train_rel_err)),
        ("usable", "yes" if report.usable else
         f"NO ({report.reason})"),
    ]
    lines = [format_table(("fit", "value"), rows,
                          title="Surrogate fit report")]
    if report.corpus_notes:
        lines.append("corpus notes:")
        lines.extend(f"  - {n}" for n in report.corpus_notes)
    return "\n".join(lines)


def _cmd_surrogate(args: argparse.Namespace) -> str:
    import json as _json

    from repro.surrogate import (
        CorpusStats,
        SurrogateError,
        fit_surrogate,
        fold_cache_dir,
        fold_journal,
        fold_telemetry_dir,
        load_model,
        save_corpus,
        save_model,
    )

    if args.surrogate_command == "report":
        try:
            model = load_model(args.model)
        except SurrogateError as exc:
            raise SystemExit(f"error: {exc}") from exc
        return _render_fit_report(model.report)

    # fit
    if not (args.cache_dir or args.journal or args.telemetry):
        raise SystemExit(
            "error: nothing to fold - pass at least one of "
            "--cache-dir / --journal / --telemetry"
        )
    if args.dim is not None and args.dim < 1:
        raise SystemExit(
            f"error: --dim must be >= 1, got {args.dim}"
        )
    stats = CorpusStats()
    faults = make_injector(_load_faults(args.faults), salt="surrogate")
    records = []
    for directory in args.cache_dir:
        records.extend(fold_cache_dir(directory, stats, faults))
    for path in args.journal:
        records.extend(fold_journal(path, stats, faults))
    for directory in args.telemetry:
        records.extend(fold_telemetry_dir(directory, stats, faults))
    if args.corpus:
        save_corpus(records, stats, args.corpus)
    kwargs = {} if args.dim is None else {"dim": args.dim}
    model = fit_surrogate(
        records,
        seed=args.seed,
        corpus_stats=stats,
        faults=faults,
        **kwargs,
    )
    save_model(model, args.out)
    lines = [
        f"folded {stats.records} training record(s) from "
        f"{stats.files} file(s) "
        f"(skipped: {stats.skipped_schema} schema-mismatched, "
        f"{stats.skipped_damaged} damaged, "
        f"{stats.skipped_unusable} unusable)",
    ]
    lines.extend(f"  - {note}" for note in stats.notes)
    lines.append(_render_fit_report(model.report))
    if args.corpus:
        lines.append(f"corpus saved to {args.corpus}")
    if args.report:
        from repro.util.atomicio import atomic_write_text

        atomic_write_text(
            args.report,
            _json.dumps(model.report.to_json(), indent=2) + "\n",
        )
        lines.append(f"fit report saved to {args.report}")
    lines.append(f"model saved to {args.out}")
    return "\n".join(lines)


def _load_telemetry(directory: str):
    try:
        return load_telemetry_dir(directory)
    except (FileNotFoundError, NotADirectoryError) as exc:
        raise SystemExit(f"error: {exc}") from exc


def _cmd_trace(args: argparse.Namespace) -> str:
    loaded = _load_telemetry(args.dir)
    if args.tree:
        return render_trace_tree(loaded)
    return render_decision_timeline(loaded, region=args.region)


def _cmd_monitor(args: argparse.Namespace) -> tuple[str, int]:
    if args.window <= 0:
        raise SystemExit(
            f"error: --window must be > 0, got {args.window}"
        )
    try:
        if args.follow:
            code = monitor_follow(
                args.dir, args.slo,
                window_s=args.window, top_k=args.top,
                interval_s=args.interval, max_polls=args.max_polls,
            )
            return "", code
        return monitor_once(
            args.dir, args.slo, window_s=args.window, top_k=args.top
        )
    except SloConfigError as exc:
        raise SystemExit(f"error: {exc}") from exc
    except (FileNotFoundError, NotADirectoryError) as exc:
        raise SystemExit(f"error: {exc}") from exc


def _cmd_profile(args: argparse.Namespace) -> str:
    if args.interval <= 0:
        raise SystemExit(
            f"error: --interval must be > 0, got {args.interval}"
        )
    try:
        return render_profile(
            args.dir, interval_s=args.interval, top=args.top
        )
    except (FileNotFoundError, NotADirectoryError) as exc:
        raise SystemExit(f"error: {exc}") from exc


def _cmd_report(args: argparse.Namespace) -> str:
    return render_metrics_summary(_load_telemetry(args.telemetry))


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.log_level:
        configure_logging(level=args.log_level)
    if args.command == "list":
        print(_cmd_list())
    elif args.command == "search-space":
        print(_cmd_search_space(args))
    elif args.command == "run":
        print(_cmd_run(args))
    elif args.command == "sweep":
        print(_cmd_sweep(args))
    elif args.command == "fleet":
        print(_cmd_fleet(args))
    elif args.command == "serve":
        return _cmd_serve(args)
    elif args.command == "figures":
        print(_cmd_figures(args))
    elif args.command == "analysis":
        text, code = _cmd_analysis(args)
        print(text)
        return code
    elif args.command == "surrogate":
        print(_cmd_surrogate(args))
    elif args.command == "trace":
        print(_cmd_trace(args))
    elif args.command == "monitor":
        text, code = _cmd_monitor(args)
        if text:
            print(text)
        return code
    elif args.command == "profile":
        print(_cmd_profile(args))
    elif args.command == "report":
        print(_cmd_report(args))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
