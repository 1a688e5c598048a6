"""Controller checkpoints: serialize a live ARCS run's tuning state.

A :func:`controller_checkpoint` captures everything the ARCS side of a
run accumulates - per-region tuning sessions (as replay logs, see
:meth:`~repro.harmony.session.TuningSession.snapshot`), watchdog pins,
the APEX bridge's timers/profile/fault counters and the overhead
baselines - as plain JSON.  :func:`restore_controller` rebuilds an
identical controller by replaying the session logs against freshly
seeded strategies, so a resumed run continues the search exactly where
the interrupted one stopped.

The machine/runtime side (clock, MSRs, RAPL accounts, noise stream) is
snapshotted separately by the respective components; the experiment
runner composes both halves into one run-checkpoint file.
"""

from __future__ import annotations

from repro.core.controller import ARCS
from repro.core.policy import RegionTuningState
from repro.apex.profile import TimerStats
from repro.apex.timers import Timer
from repro.harmony.session import SessionReplayError
from repro.openmp.types import OMPConfig


class CheckpointError(RuntimeError):
    """A checkpoint could not be restored (wrong run, wrong code
    version, or a corrupt/torn file)."""


def controller_checkpoint(arcs: ARCS) -> dict:
    """JSON-ready snapshot of a live controller (policy + bridge)."""
    policy = arcs.policy
    regions = {}
    for key, state in policy.regions.items():
        regions[key] = {
            "session": (
                None
                if state.session is None
                else state.session.snapshot()
            ),
            "session_start": (
                None
                if state.session_start is None
                else list(state.session_start)
            ),
            "applied": (
                None if state.applied is None else state.applied.to_json()
            ),
            "applied_freq_ghz": state.applied_freq_ghz,
            "skipped": state.skipped,
            "first_elapsed_s": state.first_elapsed_s,
            "executions": state.executions,
            "degraded": state.degraded,
        }
    bridge = arcs.bridge
    profile = bridge.policy_engine.profile
    return {
        "policy": {
            "pinned": dict(policy._pinned),
            "regions": regions,
        },
        "bridge": {
            "instrumentation_time_s": bridge.instrumentation_time_s,
            "timer_dropouts": bridge.timer_dropouts,
            "timer_repairs": bridge.timer_repairs,
            "noise_spikes": bridge.noise_spikes,
            "first_by_name": dict(bridge._first_by_name),
            "timers": {
                "running": [
                    [t.name, t.start_s]
                    for t in bridge.timers._running.values()
                ],
                "seen": sorted(bridge.timers.seen()),
                "starts": bridge.timers.total_starts,
            },
            "profile": {
                name: [
                    s.calls, s.total_s, s.min_s_json(), s.max_s, s.last_s
                ]
                for name, s in profile.timers.items()
            },
        },
        "attach": {
            "config_calls": arcs._config_calls_at_attach,
            "config_time": arcs._config_time_at_attach,
        },
    }


def restore_controller(arcs: ARCS, blob: dict) -> None:
    """Rebuild a freshly-attached controller from a checkpoint.

    ``arcs`` must have been constructed with the same arguments (seed,
    strategy, space, ...) as the checkpointed one and already be
    attached to a runtime restored to the checkpointed instant.
    Regions are rebuilt in their recorded order, which
    ``best_configs``/``chosen_configs`` iteration order - and therefore
    byte-identical results - depends on.
    """
    policy = arcs.policy
    pblob = blob["policy"]
    policy._pinned = {
        str(name): str(reason)
        for name, reason in pblob["pinned"].items()
    }
    policy.regions = {}
    for key, rblob in pblob["regions"].items():
        state = RegionTuningState(
            applied=(
                None
                if rblob["applied"] is None
                else OMPConfig.from_json(rblob["applied"])
            ),
            applied_freq_ghz=rblob["applied_freq_ghz"],
            skipped=bool(rblob["skipped"]),
            first_elapsed_s=rblob["first_elapsed_s"],
            executions=int(rblob["executions"]),
            degraded=rblob["degraded"],
        )
        if rblob["session_start"] is not None:
            state.session_start = tuple(
                int(i) for i in rblob["session_start"]
            )
        if rblob["session"] is not None:
            session = policy._new_session(key, start=state.session_start)
            try:
                session.restore(rblob["session"])
            except SessionReplayError as exc:
                raise CheckpointError(
                    f"cannot restore tuning session for {key!r}: {exc}"
                ) from exc
            state.session = session
        policy.regions[key] = state

    bridge = arcs.bridge
    bblob = blob["bridge"]
    bridge.instrumentation_time_s = float(
        bblob["instrumentation_time_s"]
    )
    bridge.timer_dropouts = int(bblob["timer_dropouts"])
    bridge.timer_repairs = int(bblob["timer_repairs"])
    bridge.noise_spikes = int(bblob["noise_spikes"])
    bridge._first_by_name = {
        str(name): bool(first)
        for name, first in bblob["first_by_name"].items()
    }
    tblob = bblob["timers"]
    bridge.timers._running = {
        str(name): Timer(name=str(name), start_s=float(start_s))
        for name, start_s in tblob["running"]
    }
    bridge.timers._seen = {str(name) for name in tblob["seen"]}
    bridge.timers._starts = int(tblob["starts"])
    profile = bridge.policy_engine.profile
    profile.timers = {}
    for name, (calls, total_s, min_s, max_s, last_s) in bblob[
        "profile"
    ].items():
        profile.timers[str(name)] = TimerStats(
            name=str(name),
            calls=int(calls),
            total_s=float(total_s),
            # None marks a never-fired timer (see TimerStats.min_s_json)
            min_s=float("inf") if min_s is None else float(min_s),
            max_s=float(max_s),
            last_s=float(last_s),
        )

    arcs._config_calls_at_attach = int(blob["attach"]["config_calls"])
    arcs._config_time_at_attach = float(blob["attach"]["config_time"])
