"""Digests and codecs for memoized measurements.

The ARCS history file already memoizes the *tuning* phase ("the saved
values can be used instead of repeating the search process", paper
Section III-B).  The repo extends the same idea to whole
measurements: a sweep cell is a pure function of its experiment
parameters, so its summarized result is keyed by a deterministic
digest of those parameters and replayed from disk on the next run.
This module owns that digest and the result codec; the store itself is
the sweep journal (:mod:`repro.experiments.journal`).

Layout of a store directory (default ``results/.cache``)::

    results/.cache/
        cells.jsonl             # the journal: one record per completed
                                # cell or ARCS-Online repeat
        history/<digest>.jsonl  # shared tuned HistoryStore per
                                # (app, machine, cap) - see parallel.py
"""

from __future__ import annotations

from pathlib import Path

from repro.experiments.runner import ExperimentSetup, StrategyRunResult
from repro.experiments.serialize import (
    context_digest,
    measurement_context,
    overhead_from_json as _overhead_from_json,
    overhead_to_json as _overhead_to_json,
    run_from_json as _run_from_json,
    run_to_json as _run_to_json,
    tuning_context,
)
from repro.openmp.types import OMPConfig
from repro.workloads.base import Application

#: digest input: bump whenever the digest inputs change.  Run ids,
#: journal digests and trace ids all derive from it.
CACHE_SCHEMA_VERSION = 1

#: default store directory, alongside the regenerated figure data.
DEFAULT_CACHE_DIR = Path("results") / ".cache"


# ---------------------------------------------------------------------------
# digesting
# ---------------------------------------------------------------------------
def experiment_digest(
    app: Application, setup: ExperimentSetup, strategy: str
) -> str:
    """Deterministic hex digest identifying one sweep cell: the
    :func:`~repro.experiments.serialize.measurement_context` digested
    under :data:`CACHE_SCHEMA_VERSION`."""
    return context_digest(
        CACHE_SCHEMA_VERSION, measurement_context(app, setup, strategy)
    )


# ---------------------------------------------------------------------------
# StrategyRunResult <-> JSON
# ---------------------------------------------------------------------------
# The sub-object codecs (imported above) live in
# repro.experiments.serialize so the runner can share them; the
# StrategyRunResult codec stays here because it needs the runner's
# types.
def result_to_json(result: StrategyRunResult) -> dict:
    """Full-fidelity JSON form of a result (floats round-trip exactly
    through ``json`` because Python serializes them via ``repr``)."""
    return {
        "strategy": result.strategy,
        "app_label": result.app_label,
        "machine": result.machine,
        "cap_w": result.cap_w,
        "time_s": result.time_s,
        "energy_j": result.energy_j,
        "runs": [_run_to_json(r) for r in result.runs],
        "chosen_configs": {
            name: cfg.to_json()
            for name, cfg in result.chosen_configs.items()
        },
        "overhead": _overhead_to_json(result.overhead),
        "tuning_runs": result.tuning_runs,
        "degradations": list(result.degradations),
        "cap_changes": list(result.cap_changes),
    }


def result_from_json(blob: dict) -> StrategyRunResult:
    return StrategyRunResult(
        strategy=blob["strategy"],
        app_label=blob["app_label"],
        machine=blob["machine"],
        cap_w=blob["cap_w"],
        time_s=blob["time_s"],
        energy_j=blob["energy_j"],
        runs=tuple(_run_from_json(r) for r in blob["runs"]),
        chosen_configs={
            name: OMPConfig.from_json(cfg)
            for name, cfg in blob["chosen_configs"].items()
        },
        overhead=_overhead_from_json(blob["overhead"]),
        tuning_runs=int(blob["tuning_runs"]),
        degradations=tuple(blob.get("degradations", ())),
        cap_changes=tuple(blob.get("cap_changes", ())),
    )


def history_path(
    root: str | Path, app: Application, setup: ExperimentSetup
) -> Path:
    """Where the shared tuned history for this (app, machine, cap)
    lives under the store directory ``root``; offline cells replay it
    instead of re-tuning.  Keyed by the tuning context alone: strategy,
    repeats and the online budget do not change what exhaustive tuning
    finds."""
    digest = context_digest(CACHE_SCHEMA_VERSION, tuning_context(app, setup))
    return Path(root) / "history" / f"{digest}.jsonl"
