"""CI chaos target for the fault-tolerant fleet simulation.

Runs one seeded fleet (mixed Crill/Minotaur nodes under a global
power budget) against a hostile fleet-tier fault plan - node crashes
and hangs, dropped and partitioned heartbeats, rejected cap writes,
flapping membership (``examples/fleetfaults.json``) - and proves the
three robustness claims the fleet layer makes:

1. **graceful degradation** - the reference pass must finish with the
   budget invariant intact (the simulation itself raises
   ``BudgetInvariantError`` otherwise), every armed fleet fault
   surfaced as its typed degradation event, at least one node lost to
   a crash, its power share reclaimed (a death was declared), and
   every surviving node's workload run to completion;
2. **crash-safe resume** - the same run killed after ``k`` steps
   (simulated ``kill -9`` between journal fsyncs) and resumed from the
   journal must produce byte-identical result JSON, for several kill
   points;
3. **torn-tail recovery** - a journal with garbage appended (a write
   torn mid-line by the kill) must still resume byte-identically.

The run fails (exit 1) on any divergence or missing degradation.
With ``--telemetry-dir`` the reference pass runs under the telemetry
bus, so the JSONL timeline of every degradation / allocation decision
ships as a CI artifact.

Usage::

    PYTHONPATH=src python tools/fleet_chaos.py \
        --nodes 10 --kills 3 --telemetry-dir out/
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from pathlib import Path

from repro.faults.plan import load_fault_plan
from repro.fleet import (
    FleetJournal,
    FleetSimulation,
    fleet_result_to_json,
    synthesize_fleet,
)
from repro.fleet.events import FAULT_DEGRADATIONS
from repro.telemetry import JsonlSink, telemetry_session
from repro.util.log import configure, get_logger

log = get_logger("fleet_chaos")


class _FleetOnlySink(JsonlSink):
    """The inner ARCS runs emit per-invocation records by the
    hundred-thousand; the CI artifact wants the fleet timeline (every
    degradation, allocation and budget reading), not the microscope."""

    def write(self, record: dict) -> None:
        name = str(record.get("name", ""))
        if record.get("type") == "meta" or name.startswith("fleet."):
            super().write(record)


def _result_json(result) -> str:
    return json.dumps(fleet_result_to_json(result), sort_keys=True)


def _check_reference(result, fault_plan) -> None:
    """The graceful-degradation claims, on the uninterrupted pass."""
    kinds = {event.kind for event in result.events}
    for spec in fault_plan.specs:
        expected = FAULT_DEGRADATIONS.get((spec.site, spec.action))
        if expected is None:
            continue  # not a fleet-tier site
        if expected not in kinds:
            raise AssertionError(
                f"armed fault {spec.site}/{spec.action} never surfaced "
                f"as a {expected!r} degradation event"
            )
    if result.crashed < 1:
        raise AssertionError(
            "the fault plan was supposed to kill at least one node"
        )
    if not result.reaction_latencies:
        raise AssertionError(
            "a node crashed but no death was ever declared (no power "
            "share reclaimed)"
        )
    survivors = [
        node for node in result.nodes if node["status"] != "crashed"
    ]
    unfinished = [
        node["node"] for node in survivors
        if node["status"] != "done"
    ]
    if unfinished:
        raise AssertionError(
            f"surviving nodes did not complete their workloads: "
            f"{unfinished}"
        )


def _kill_points(steps: int, kills: int) -> list[int]:
    """Evenly spread kill points inside the run (at least step 1)."""
    kills = max(1, min(kills, steps))
    return sorted(
        {max(1, (i + 1) * steps // (kills + 1)) for i in range(kills)}
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0]
    )
    parser.add_argument("--nodes", type=int, default=10)
    parser.add_argument("--global-cap", type=float, default=None,
                        dest="global_cap")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-steps", type=int, default=120)
    parser.add_argument(
        "--kills", type=int, default=3,
        help="number of kill/resume points exercised",
    )
    parser.add_argument(
        "--faults", default="examples/fleetfaults.json",
        help="hostile fleet-tier fault plan",
    )
    parser.add_argument(
        "--telemetry-dir", default=None,
        help="write the reference pass's telemetry JSONL here",
    )
    parser.add_argument(
        "--log-level", default=None,
        choices=("debug", "info", "warning", "error"),
    )
    args = parser.parse_args(argv)
    if args.log_level:
        configure(level=args.log_level)

    plan = synthesize_fleet(
        args.nodes,
        args.global_cap,
        seed=args.seed,
        max_steps=args.max_steps,
    )
    faults = load_fault_plan(args.faults)
    telemetry = (
        Path(args.telemetry_dir) if args.telemetry_dir else None
    )

    t0 = time.perf_counter()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            scratch = Path(tmp)
            log.info(
                "reference chaos pass",
                nodes=args.nodes,
                global_cap_w=plan.global_cap_w,
                faults=args.faults,
            )
            journal = FleetJournal(scratch / "reference.jsonl")
            if telemetry is not None:
                telemetry.mkdir(parents=True, exist_ok=True)
                with telemetry_session(
                    _FleetOnlySink(telemetry / "fleet_chaos.jsonl"),
                    tool="fleet_chaos",
                    nodes=args.nodes,
                    global_cap_w=plan.global_cap_w,
                    faults=args.faults,
                ):
                    reference = FleetSimulation(
                        plan, faults, journal=journal
                    ).run()
            else:
                reference = FleetSimulation(
                    plan, faults, journal=journal
                ).run()
            _check_reference(reference, faults)
            expected = _result_json(reference)

            points = _kill_points(reference.steps, args.kills)
            log.info(
                "kill/resume passes",
                steps=reference.steps,
                kill_points=points,
            )
            for k in points:
                path = scratch / f"kill-{k}.jsonl"
                FleetSimulation(
                    plan, faults, journal=FleetJournal(path),
                    stop_after=k,
                ).run()
                resumed = FleetSimulation(
                    plan, faults, journal=FleetJournal(path),
                    resume=True,
                ).run()
                if _result_json(resumed) != expected:
                    raise AssertionError(
                        f"resume after a kill at step {k} diverged "
                        "from the uninterrupted run"
                    )

            torn_at = points[len(points) // 2]
            path = scratch / "torn.jsonl"
            FleetSimulation(
                plan, faults, journal=FleetJournal(path),
                stop_after=torn_at,
            ).run()
            with open(path, "a", encoding="utf-8") as fh:
                fh.write('{"schema":1,"step":999,"sta')  # torn write
            resumed = FleetSimulation(
                plan, faults, journal=FleetJournal(path), resume=True
            ).run()
            if _result_json(resumed) != expected:
                raise AssertionError(
                    "resume over a torn journal tail diverged from "
                    "the uninterrupted run"
                )
    except AssertionError as exc:
        log.error("fleet chaos FAIL", reason=str(exc))
        return 1

    log.info(
        "fleet chaos OK",
        steps=reference.steps,
        started=reference.started,
        completed=reference.completed,
        crashed=reference.crashed,
        survival_rate=round(reference.survival_rate, 3),
        degradations=len(reference.degradations()),
        kill_points=points,
        elapsed_s=round(time.perf_counter() - t0, 2),
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
