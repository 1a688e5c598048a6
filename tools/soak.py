"""Chaos soak for crash-recoverable ARCS-Online runs.

Each iteration draws a randomized fault plan and cap schedule, runs an
uninterrupted baseline, then kills the same experiment at several
random points (via the runner's ``kill_after`` hook; the repeats
completed before the kill stay in the checkpoint log) and resumes each
by running again against that log.  A two-repeat iteration always also
kills at the last invocation of the first repeat, just before its
record is appended.  The soak asserts, per kill point:

* **equivalence** - the resumed run's full-fidelity JSON encoding is
  byte-identical to the baseline's;
* **no-NaN** - every float anywhere in the result and in the
  checkpoint log left behind is finite;
* **damage is never replayed** - on the first iteration, a completed
  run's checkpoint log with one byte flipped is quarantined, the
  damaged repeat re-runs, and the result is still byte-identical.

With ``--service`` the soak instead exercises the tuning-service
degradation chain: each iteration boots a real daemon, runs a
sequence of ARCS-Offline clients against it, and randomly kills and
restarts the daemon between AND during client runs (the restarted
daemon rebinds the same port).  Every client must produce a result
byte-identical to a service-less baseline modulo the ``config source``
degradation notes and ``tuning_runs``; the run with the daemon down
must record a fallback note, and the final run against the restarted
daemon must be served from its recovered store (no tuning).

Exit code 0 = pass, 1 = fail.

Usage::

    PYTHONPATH=src python tools/soak.py --iterations 3 --seed 0
    PYTHONPATH=src python tools/soak.py --service --iterations 3
"""

from __future__ import annotations

import argparse
import json
import math
import random
import tempfile
import threading
import time
from pathlib import Path

from repro.core.capschedule import CapEvent, CapSchedule
from repro.experiments.cache import result_to_json
from repro.experiments.journal import SweepJournal
from repro.experiments.runner import (
    ExperimentSetup,
    SimulatedKill,
    run_arcs_offline,
    run_arcs_online,
)
from repro.faults.plan import FaultPlan, FaultSpec
from repro.machine.spec import crill
from repro.service.daemon import ThreadedDaemon
from repro.service.source import default_chain
from repro.util.log import configure, get_logger
from repro.workloads.synthetic import synthetic_application

log = get_logger("soak")

#: caps the schedule generator may flip between (crill levels + TDP).
_CAP_LEVELS = (55.0, 70.0, 85.0, 100.0, None)


def _random_fault_plan(rng: random.Random) -> FaultPlan | None:
    """A small randomized plan.  ``region.exec`` crash fires are kept
    well under the supervisor's abort threshold (6 consecutive) so a
    soak run always finishes; pinning a region is fair game."""
    specs: list[FaultSpec] = []
    if rng.random() < 0.8:
        specs.append(
            FaultSpec(
                site="region.exec",
                action="crash",
                probability=rng.uniform(0.005, 0.03),
                max_fires=rng.randint(1, 3),
            )
        )
    if rng.random() < 0.6:
        specs.append(
            FaultSpec(
                site="region.exec",
                action="hang",
                probability=rng.uniform(0.005, 0.02),
                max_fires=rng.randint(1, 2),
                magnitude=rng.uniform(0.1, 0.5),
            )
        )
    if rng.random() < 0.5:
        specs.append(
            FaultSpec(
                site="rapl.read",
                action=rng.choice(("error", "stale")),
                probability=rng.uniform(0.005, 0.03),
                max_fires=rng.randint(1, 4),
            )
        )
    if rng.random() < 0.3:
        specs.append(
            FaultSpec(
                site="rapl.cap_write",
                action="reject",
                probability=rng.uniform(0.05, 0.3),
                max_fires=rng.randint(1, 2),
            )
        )
    if not specs:
        return None
    return FaultPlan(specs=tuple(specs), seed=rng.randint(0, 2**31))


def _random_cap_schedule(
    rng: random.Random, total: int
) -> CapSchedule | None:
    if rng.random() < 0.25:
        return None
    points = sorted(
        rng.sample(range(2, max(3, total - 1)), rng.randint(1, 3))
    )
    events = tuple(
        CapEvent(after, rng.choice(_CAP_LEVELS)) for after in points
    )
    return CapSchedule(
        events=events,
        hysteresis_invocations=rng.choice((0, 0, 5, 20)),
    )


def _assert_finite(blob, where: str) -> None:
    """Recursively reject NaN/inf anywhere in a JSON-shaped value."""
    stack = [(blob, where)]
    while stack:
        value, path = stack.pop()
        if isinstance(value, float):
            if not math.isfinite(value):
                raise AssertionError(f"non-finite float at {path}")
        elif isinstance(value, dict):
            stack.extend(
                (v, f"{path}.{k}") for k, v in value.items()
            )
        elif isinstance(value, (list, tuple)):
            stack.extend(
                (v, f"{path}[{i}]") for i, v in enumerate(value)
            )


def _assert_damage_rerun(
    app, setup, ck: Path, expected: dict, rng: random.Random
) -> None:
    """A completed run's log with one flipped byte must be quarantined
    and the damaged repeat re-run, never replayed: the result stays
    byte-identical to the baseline."""
    run_arcs_online(app, setup, checkpoint_path=ck)
    intact = ck.read_bytes()
    offset = rng.randrange(len(intact))
    ck.write_bytes(
        intact[:offset]
        + bytes([intact[offset] ^ 0x01])
        + intact[offset + 1 :]
    )
    got = result_to_json(run_arcs_online(app, setup, checkpoint_path=ck))
    if not (ck.parent / "quarantine" / f"{ck.name}.0").exists():
        raise AssertionError(
            f"{ck.name}: a log with byte {offset} flipped was not "
            "quarantined"
        )
    if got != expected:
        raise AssertionError(
            f"{ck.name}: a log with byte {offset} flipped was "
            "replayed instead of re-run"
        )


def _iteration(
    iteration: int, seed: int, kill_points: int, tmp: Path
) -> int:
    """Run one chaos iteration; returns the number of kills tested."""
    rng = random.Random((seed << 16) ^ iteration)
    app = synthetic_application(timesteps=rng.choice((10, 20, 30)))
    repeats = rng.choice((1, 2))
    total_guess = app.timesteps * app.calls_per_step() * repeats
    setup = ExperimentSetup(
        spec=crill(),
        cap_w=rng.choice(_CAP_LEVELS),
        repeats=repeats,
        seed=rng.randint(0, 2**31),
        online_max_evals=rng.choice((10, 20)),
        fault_plan=_random_fault_plan(rng),
        cap_schedule=_random_cap_schedule(rng, total_guess),
    )

    baseline = run_arcs_online(app, setup)
    expected = result_to_json(baseline)
    _assert_finite(expected, f"iter {iteration} baseline result")
    total = sum(r.total_region_calls for r in baseline.runs)

    kills = set(rng.sample(range(1, total), min(kill_points, total - 1)))
    if repeats == 2:
        # the last invocation of repeat 0: killed just before the
        # boundary write, so the resume re-runs the whole repeat
        kills.add(baseline.runs[0].total_region_calls)
    kills = sorted(kills)
    if iteration == 0:
        _assert_damage_rerun(
            app, setup, tmp / "soak-damaged.jsonl", expected, rng
        )
    for kill in kills:
        ck = tmp / f"soak-{iteration}-{kill}.jsonl"
        try:
            run_arcs_online(
                app, setup, checkpoint_path=ck, kill_after=kill
            )
            raise AssertionError(
                f"iter {iteration}: kill_after={kill} did not kill "
                f"(run has {total} invocations)"
            )
        except SimulatedKill:
            pass
        where = f"iter {iteration} kill {kill} checkpoint"
        _assert_finite(SweepJournal(ck).scan().records, where)

        resumed = run_arcs_online(app, setup, checkpoint_path=ck)
        got = result_to_json(resumed)
        _assert_finite(got, f"iter {iteration} kill {kill} resumed")
        if got != expected:
            differing = sorted(
                k for k in expected if got.get(k) != expected[k]
            )
            raise AssertionError(
                f"iter {iteration}: resume after kill at invocation "
                f"{kill} diverged from the uninterrupted run "
                f"(fields: {', '.join(differing)})"
            )
    log.info(
        "soak iteration OK",
        iteration=iteration,
        kills=len(kills),
        invocations=total,
        degradations=len(baseline.degradations),
        cap_changes=len(baseline.cap_changes),
    )
    return len(kills)


_NOTE_PREFIX = "config source "


def _canonical_modulo_service(result) -> str:
    """Full-fidelity JSON with service degradation notes stripped and
    ``tuning_runs`` dropped (a service hit legitimately skips tuning;
    everything measured must still match)."""
    blob = result_to_json(result)
    blob["degradations"] = [
        d
        for d in blob["degradations"]
        if not d.startswith(_NOTE_PREFIX)
    ]
    blob.pop("tuning_runs")
    return json.dumps(blob, sort_keys=True)


def _service_notes(result) -> list[str]:
    return [
        d
        for d in result.degradations
        if d.startswith(_NOTE_PREFIX)
    ]


def _service_iteration(iteration: int, seed: int, tmp: Path) -> int:
    """One service-chain soak iteration; returns the client-run count.

    Cell 0 always runs with the daemon up (so the tuned entry is
    published), cell 1 always with the daemon down (pure fallback),
    the middle cells transition randomly - sometimes killing the
    daemon mid-run from a timer thread - and the final cell runs
    against a restarted daemon, which must serve the entry from its
    recovered store."""
    rng = random.Random((seed << 16) ^ (0x5E41C ^ 0) ^ iteration)
    app = synthetic_application(timesteps=rng.choice((10, 20)))
    setup = ExperimentSetup(
        spec=crill(),
        cap_w=rng.choice((55.0, 70.0, 85.0)),
        repeats=rng.choice((1, 2)),
        seed=rng.randint(0, 2**31),
    )
    baseline = run_arcs_offline(app, setup)
    expected = _canonical_modulo_service(baseline)

    daemon = ThreadedDaemon(tmp / f"svc-{iteration}")
    daemon.start()
    address = f"{daemon.address[0]}:{daemon.address[1]}"
    cells = rng.randint(4, 6)
    fallback_cells = 0
    try:
        for cell in range(cells):
            last = cell == cells - 1
            if cell == 1 and daemon.running:
                daemon.stop()            # forced outage
            elif cell >= 2 and not daemon.running:
                if last or rng.random() < 0.7:
                    daemon.start()       # recovery (same port)
            elif cell >= 2 and daemon.running and rng.random() < 0.4:
                daemon.stop()
            killer = None
            if daemon.running and 2 <= cell < cells - 1:
                if rng.random() < 0.5:
                    # kill the daemon WHILE the client is running
                    killer = threading.Timer(
                        rng.uniform(0.0, 0.05), daemon.stop
                    )
                    killer.start()
            chain = default_chain(address, memo={}, deadline_s=0.5)
            result = run_arcs_offline(app, setup, source=chain)
            if killer is not None:
                killer.join()
            got = _canonical_modulo_service(result)
            if got != expected:
                raise AssertionError(
                    f"iter {iteration} cell {cell}: client diverged "
                    "from the service-less baseline (daemon "
                    f"{'up' if daemon.running else 'down'})"
                )
            notes = _service_notes(result)
            fallback_cells += bool(notes)
            if cell == 1 and not notes:
                raise AssertionError(
                    f"iter {iteration} cell 1: daemon was down but "
                    "the client recorded no fallback note"
                )
            if last and result.tuning_runs != 0:
                raise AssertionError(
                    f"iter {iteration} final cell: restarted daemon "
                    "did not serve the recovered entry "
                    f"(tuning_runs={result.tuning_runs})"
                )
    finally:
        daemon.stop()
    log.info(
        "service soak iteration OK",
        iteration=iteration,
        cells=cells,
        fallback_cells=fallback_cells,
    )
    return cells


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0]
    )
    parser.add_argument("--iterations", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--kill-points", type=int, default=7,
        help="random kill/resume points tested per iteration",
    )
    parser.add_argument(
        "--service", action="store_true",
        help="soak the tuning-service degradation chain instead: "
        "kill/restart a real daemon around and during client runs",
    )
    parser.add_argument(
        "--log-level", default=None,
        choices=("debug", "info", "warning", "error"),
    )
    args = parser.parse_args(argv)
    if args.log_level:
        configure(level=args.log_level)

    t0 = time.perf_counter()
    tested = 0
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for iteration in range(args.iterations):
                if args.service:
                    tested += _service_iteration(
                        iteration, args.seed, Path(tmp)
                    )
                else:
                    tested += _iteration(
                        iteration,
                        args.seed,
                        args.kill_points,
                        Path(tmp),
                    )
    except AssertionError as exc:
        log.error("soak FAIL", reason=str(exc))
        return 1
    log.info(
        "soak OK",
        cycles=tested,
        iterations=args.iterations,
        elapsed_s=time.perf_counter() - t0,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
