"""Command-line interface.

The flags that name a measurement are shared: each is declared once in
``_SHARED_FLAGS`` and a subcommand picks the ones it takes with
``_add_shared``.  They fall in three groups:

* setup flags (``--app --workload --machine --repeats --seed
  --faults``), turned into an application and an ``ExperimentSetup``
  by ``_setup_from_args``;
* store flags (``--workers --no-cache --cache-dir``), turned into the
  sweep store by ``_store_from_args``;
* the ``--telemetry DIR`` and ``--service HOST:PORT`` flags.

A bad value exits with one ``error: ...`` line (status 1) through
``_user_errors``; argparse usage errors exit 2.  Each subcommand names
its handler with ``set_defaults(handler=...)``, and a handler returns
the text to print, or ``(text, exit_code)``.

Examples::

    python -m repro list
    python -m repro search-space
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
from repro.core.capschedule import load_cap_schedule
from repro.core.history import HistoryStore
from repro.experiments.cache import DEFAULT_CACHE_DIR
from repro.experiments.figures import power_sweep
from repro.experiments.journal import SweepJournal
from repro.experiments.parallel import ParallelSweepExecutor
from repro.experiments.reporting import render_sweep
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
from repro.util.log import LEVELS as _LOG_LEVELS
from repro.util.log import configure as configure_logging
from repro.util.tables import format_table
from repro.workloads.base import Application
from repro.workloads.registry import application_by_name

_APPS = ("sp", "bt", "lulesh", "synthetic")

_SHARED_FLAGS = {
    # setup group: what is measured
    "--app": dict(choices=_APPS, default="sp"),
    "--workload": dict(
        default=None, help="NPB class (B/C) or LULESH mesh (45/60)"
    ),
    "--machine": dict(default="crill"),
    "--repeats": dict(type=int, default=3),
    "--seed": dict(type=int, default=0),
    "--faults": dict(
        default=None, metavar="PLAN.JSON",
        help="fault-injection plan arming this command's fault sites "
             "(see examples/faultplan.json); omit for a clean run",
    ),
    # store group: where completed cells are kept and who computes them
    "--workers": dict(
        type=int, default=1,
        help="process-pool size; 1 = serial in-process (default)",
    ),
    "--no-cache": dict(
        action="store_true",
        help="recompute every cell and record nothing",
    ),
    "--cache-dir": dict(
        default=str(DEFAULT_CACHE_DIR),
        help="store of completed cells (a crash-safe cells.jsonl); "
             "a killed sweep resumes by running again (default: "
             f"{DEFAULT_CACHE_DIR})",
    ),
    "--telemetry": dict(
        default=None, metavar="DIR",
        help="record this command's events and metrics as JSONL files "
             "under DIR; run, sweep and fleet run also write a "
             "Perfetto-loadable trace.json there",
    ),
    "--service": dict(
        default=None, metavar="HOST:PORT",
        help="tuning-service daemon that offline tuning fetches tuned "
             "configs from and publishes them to, with local fallback "
             "on any failure; results are byte-identical with or "
             "without it",
    ),
}


def _add_shared(parser: argparse.ArgumentParser, *flags: str) -> None:
    """Declare the named ``_SHARED_FLAGS`` on ``parser``, in order."""
    for flag in flags:
        parser.add_argument(flag, **_SHARED_FLAGS[flag])


def _command(sub, name: str, handler, help: str) -> argparse.ArgumentParser:
    parser = sub.add_parser(name, help=help)
    parser.set_defaults(handler=handler)
    return parser


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

    _command(sub, "list", _cmd_list,
             "list applications, machines, strategies")
    _command(sub, "search-space", _cmd_search_space,
             "print the Table I search parameters")

    run = _command(
        sub, "run", _cmd_run,
        "run one (app, machine, cap, strategy) measurement",
    )
    _add_shared(run, "--app", "--workload", "--machine")
    run.add_argument("--cap", type=float, default=None,
                     help="package power cap in watts (default: TDP)")
    run.add_argument("--strategy", choices=STRATEGIES,
                     default="arcs-offline")
    _add_shared(run, "--repeats", "--seed")
    run.add_argument("--history", default=None,
                     help="path to an ARCS history log")
    _add_shared(run, "--faults")
    run.add_argument("--cap-schedule", default=None,
                     metavar="SCHED.JSON",
                     help="dynamic power-cap schedule (see examples/"
                          "capschedule.json); changes the cap mid-run")
    run.add_argument("--checkpoint", default=None, metavar="PATH",
                     help="log every completed repeat to PATH; "
                          "running again with the same PATH resumes "
                          "at the first missing repeat (arcs-online "
                          "only)")
    _add_shared(run, "--telemetry", "--service")
    run.add_argument("--service-deadline", type=float, default=None,
                     metavar="SECONDS",
                     help="per-request deadline for --service "
                          "(default: 2.0)")

    sweep = _command(
        sub, "sweep", _cmd_sweep,
        "default vs ARCS-Online vs ARCS-Offline across power levels",
    )
    _add_shared(
        sweep, "--app", "--workload", "--machine", "--repeats", "--seed",
        "--workers", "--no-cache", "--cache-dir", "--faults",
        "--telemetry", "--service",
    )

    fleet = sub.add_parser(
        "fleet",
        help="simulate a cluster of ARCS nodes under one global "
             "power budget",
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)
    fleet_run = _command(
        fleet_sub, "run", _cmd_fleet,
        "run a fleet: staggered nodes, hierarchical budget "
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
    _add_shared(fleet_run, "--seed")
    fleet_run.add_argument(
        "--max-steps", type=int, default=200,
        help="hard bound on simulation steps (default: 200)",
    )
    _add_shared(fleet_run, "--faults")
    fleet_run.add_argument(
        "--journal", default=None, metavar="PATH",
        help="fsync'd per-step fleet journal; a killed run resumes "
             "byte-identically by running again with the same PATH",
    )
    _add_shared(fleet_run, "--telemetry")

    serve = _command(
        sub, "serve", _cmd_serve,
        "run the tuning-as-a-service config-knowledge daemon",
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
    _add_shared(serve, "--faults", "--telemetry")

    figures = _command(
        sub, "figures", _cmd_figures,
        "regenerate registered paper figures/tables from the "
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
    _add_shared(figures, "--repeats", "--workers", "--no-cache",
                "--cache-dir")
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
    compare = _command(
        analysis_sub, "compare", _cmd_compare,
        "diff two BENCH_*.json result sets; exit 1 on regression",
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

    trace = _command(
        sub, "trace", _cmd_trace,
        "render the per-region decision timeline from a "
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

    monitor = _command(
        sub, "monitor", _cmd_monitor,
        "dashboard + SLO evaluation over a telemetry directory; "
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

    profile = _command(
        sub, "profile", _cmd_profile,
        "deterministic virtual-clock sampling profile of a "
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

    report = _command(
        sub, "report", _cmd_report,
        "summarize a recorded run's telemetry",
    )
    report.add_argument(
        "--telemetry", required=True, metavar="DIR",
        help="directory written by run/sweep --telemetry",
    )
    return parser


@contextmanager
def _user_errors(*kinds: type[Exception]):
    """Turn an exception of ``kinds`` raised in the block into the
    CLI's one-line ``error: ...`` exit instead of a traceback."""
    try:
        yield
    except kinds as exc:
        # a KeyError's str() quotes its message
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        raise SystemExit(f"error: {message}") from exc


@contextmanager
def _telemetry_session(directory: str | None, filename: str, **meta):
    """A :func:`~repro.telemetry.telemetry_session` writing
    ``DIR/filename`` for the span of one CLI command; always
    regenerates ``trace.json``.  The command's trace is rooted at a
    deterministic per-invocation id, so `repro trace --tree` stitches
    one tree per CLI command.  Without a ``directory`` (no
    ``--telemetry``) it records nothing."""
    if not directory:
        yield
        return
    out = Path(directory)
    try:
        with telemetry_session(
            JsonlSink(out / filename), trace=root_context(**meta), **meta
        ):
            yield
    finally:
        export_chrome_trace(out)


def _load_faults(path: str | None) -> FaultPlan | None:
    if path is None:
        return None
    # load_fault_plan wraps file errors, but keep OSError here too so an
    # unanticipated filesystem failure still surfaces as one line.
    with _user_errors(FaultPlanError, OSError):
        return load_fault_plan(path)


def _setup_from_args(
    args: argparse.Namespace,
    cap_w: float | None = None,
    cap_schedule: str | None = None,
) -> tuple[Application, ExperimentSetup]:
    """The application and measurement setup the setup flags name.

    The one place a bad setup value becomes an ``error:`` exit: an
    unknown machine or workload, ``--repeats`` below 1, a cap (or cap
    schedule) on a machine without capping privilege, an unreadable
    fault plan or cap schedule."""
    with _user_errors(ValueError, OSError):
        spec = machine_by_name(args.machine)
        app = application_by_name(args.app, args.workload)
        return app, ExperimentSetup(
            spec=spec, cap_w=cap_w, repeats=args.repeats,
            seed=args.seed, fault_plan=_load_faults(args.faults),
            cap_schedule=(
                None if cap_schedule is None
                else load_cap_schedule(cap_schedule)
            ),
        )


def _store_from_args(args: argparse.Namespace) -> SweepJournal | None:
    """The sweep store the store flags name (``None`` with
    ``--no-cache``), after checking ``--workers``."""
    if args.workers < 1:
        raise SystemExit(
            f"error: --workers must be >= 1, got {args.workers}"
        )
    return None if args.no_cache else SweepJournal.in_dir(args.cache_dir)


def _cmd_list(_args: argparse.Namespace) -> str:
    rows = [
        ("applications", ", ".join(_APPS)),
        ("workloads", "sp/bt: B, C; lulesh: 45, 60"),
        ("machines", "crill (Sandy Bridge), minotaur (POWER8)"),
        ("strategies", ", ".join(STRATEGIES)),
        ("power levels (crill)",
         ", ".join(f"{c:g}W" for c in CRILL_POWER_LEVELS)),
    ]
    return format_table(("what", "values"), rows)


def _cmd_search_space(_args: argparse.Namespace) -> str:
    return generate_figure("table1_search_space").text


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

    # a ValueError is a malformed host:port string
    with _user_errors(ValueError):
        return default_chain(
            address,
            faults=make_injector(fault_plan, salt="service-client"),
            deadline_s=deadline_s,
        )


def _cmd_run(args: argparse.Namespace) -> str:
    app, setup = _setup_from_args(
        args, cap_w=args.cap, cap_schedule=args.cap_schedule
    )
    history = HistoryStore(args.history) if args.history else None
    source = _service_chain(
        args.service, setup.fault_plan, args.service_deadline
    )

    # RunAbortedError is an aborted run, OSError a --checkpoint path
    # that cannot be read, ValueError e.g. --checkpoint with a
    # non-online strategy
    with (
        _user_errors(RunAbortedError, OSError, ValueError),
        _telemetry_session(
            args.telemetry, "telemetry.jsonl",
            command="run", app=app.label, machine=setup.spec.name,
            strategy=args.strategy, cap_w=args.cap,
            seed=args.seed, repeats=args.repeats,
        ),
    ):
        try:
            result = run_strategy(
                args.strategy, app, setup, history=history,
                checkpoint_path=args.checkpoint,
                source=source,
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
    cap = "TDP" if args.cap is None else f"{args.cap:g}W"
    lines = [
        f"{app.label} on {setup.spec.name} @ {cap}, {args.strategy} "
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
    app, setup = _setup_from_args(args)
    spec = setup.spec
    caps = (
        CRILL_POWER_LEVELS
        if spec.supports_power_cap
        else (spec.tdp_w,)
    )
    journal = _store_from_args(args)
    executor = ParallelSweepExecutor(
        max_workers=args.workers,
        journal=journal,
        faults=make_injector(setup.fault_plan),
    )
    # an OSError is e.g. a --cache-dir that is a file
    with _user_errors(OSError), _telemetry_session(
        args.telemetry, "sweep.jsonl",
        command="sweep", app=app.label, machine=spec.name,
        repeats=args.repeats, seed=args.seed, workers=args.workers,
    ):
        sweep = power_sweep(
            app, spec, caps, repeats=args.repeats, seed=args.seed,
            executor=executor, fault_plan=setup.fault_plan,
            telemetry_dir=args.telemetry, service=args.service,
        )
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
    if journal is not None:
        lines.append(
            f"[cache] {executor.hits} hit(s), "
            f"{executor.misses} miss(es) under {journal.path.parent}"
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

    with _user_errors(FleetPlanError):
        if args.plan is not None:
            plan = load_fleet_plan(args.plan)
        else:
            plan = synthesize_fleet(
                args.nodes,
                args.global_cap,
                seed=args.seed,
                max_steps=args.max_steps,
            )
    sim = FleetSimulation(
        plan,
        _load_faults(args.faults),
        journal=FleetJournal(args.journal) if args.journal else None,
    )
    with _telemetry_session(
        args.telemetry, "fleet.jsonl",
        command="fleet", nodes=len(plan.nodes),
        global_cap_w=plan.global_cap_w, seed=plan.seed,
    ):
        result = sim.run()
    return render_fleet(result)


def _cmd_serve(args: argparse.Namespace) -> None:
    """Run the tuning-service daemon until shutdown/Ctrl-C."""
    from repro.service.daemon import serve_forever

    if args.capacity is not None and args.capacity < 1:
        raise SystemExit(
            f"error: --capacity must be >= 1, got {args.capacity}"
        )
    # an OSError is e.g. a taken port or a host that cannot be bound
    with _user_errors(OSError):
        serve_forever(
            args.store,
            host=args.host,
            port=args.port,
            fault_plan=_load_faults(args.faults),
            capacity=args.capacity,
            telemetry_dir=args.telemetry,
        )


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
    options = GenOptions(
        repeats=args.repeats,
        workers=args.workers,
        cache=_store_from_args(args),
        bench_dir=args.bench_dir,
    )
    lines: list[str] = []
    with _user_errors(UnknownFigureError, ValueError):
        generated = generate_figures(
            args.names or None,
            out_dir=args.out,
            formats=formats,
            options=options,
            progress=lambda name: lines.append(f"[figures] {name} ..."),
        )
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


def _cmd_compare(args: argparse.Namespace) -> tuple[str, int]:
    with _user_errors(FileNotFoundError, ValueError):
        report = compare_dirs(args.old, args.new, tolerance=args.tolerance)
    return render_comparison(report), (0 if report.ok else 1)


_MISSING_DIR = (FileNotFoundError, NotADirectoryError)


def _load_telemetry(directory: str):
    with _user_errors(*_MISSING_DIR):
        return load_telemetry_dir(directory)


def _cmd_trace(args: argparse.Namespace) -> str:
    loaded = _load_telemetry(args.dir)
    if args.tree:
        return render_trace_tree(loaded)
    return render_decision_timeline(loaded, region=args.region)


def _cmd_monitor(args: argparse.Namespace) -> tuple[str | None, int]:
    if args.window <= 0:
        raise SystemExit(
            f"error: --window must be > 0, got {args.window}"
        )
    with _user_errors(SloConfigError, *_MISSING_DIR):
        if args.follow:
            code = monitor_follow(
                args.dir, args.slo,
                window_s=args.window, top_k=args.top,
                interval_s=args.interval, max_polls=args.max_polls,
            )
            return None, code
        text, code = monitor_once(
            args.dir, args.slo, window_s=args.window, top_k=args.top
        )
    return text or None, code


def _cmd_profile(args: argparse.Namespace) -> str:
    if args.interval <= 0:
        raise SystemExit(
            f"error: --interval must be > 0, got {args.interval}"
        )
    with _user_errors(*_MISSING_DIR):
        return render_profile(
            args.dir, interval_s=args.interval, top=args.top
        )


def _cmd_report(args: argparse.Namespace) -> str:
    return render_metrics_summary(_load_telemetry(args.telemetry))


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.log_level:
        configure_logging(level=args.log_level)
    out = args.handler(args)
    text, code = out if isinstance(out, tuple) else (out, 0)
    if text is not None:
        print(text)
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
