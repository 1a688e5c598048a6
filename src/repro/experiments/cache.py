"""Content-addressed cache for :class:`StrategyRunResult`\\ s.

The ARCS history file already memoizes the *tuning* phase ("the saved
values can be used instead of repeating the search process", paper
Section III-B).  This module extends the same idea to whole
measurements: a sweep cell is a pure function of its experiment
parameters, so its summarized result can be keyed by a deterministic
digest of those parameters and replayed from disk on the next run.

Layout (default root ``results/.cache``)::

    results/.cache/
        <digest>.jsonl          # one cached StrategyRunResult per cell
        history/<digest>.jsonl  # shared tuned HistoryStore per
                                # (app, machine, cap) - see parallel.py

Every entry is a one-record :class:`~repro.util.jsonlog.JsonLog`, so
it is checksummed and schema-stamped like every other durable store.
An entry that is damaged, foreign or holds anything but its own
digest's record is a miss (counted ``invalidated``), never replayed
and never a crash; the next ``put`` overwrites it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.experiments.runner import ExperimentSetup, StrategyRunResult
from repro.experiments.serialize import (
    context_digest,
    overhead_from_json as _overhead_from_json,
    overhead_to_json as _overhead_to_json,
    run_from_json as _run_from_json,
    run_to_json as _run_to_json,
    tuning_context,
)
from repro.openmp.types import OMPConfig
from repro.util.jsonlog import JsonLog
from repro.workloads.base import Application

#: digest input: bump whenever the digest inputs change.  Run ids,
#: journal digests and trace ids all derive from it.
CACHE_SCHEMA_VERSION = 1

#: bump when the entry record layout changes; entries of another
#: schema become cache misses.
ENTRY_SCHEMA_VERSION = 1

#: default on-disk location, alongside the regenerated figure data.
DEFAULT_CACHE_DIR = Path("results") / ".cache"


# ---------------------------------------------------------------------------
# digesting
# ---------------------------------------------------------------------------
def experiment_digest(
    app: Application, setup: ExperimentSetup, strategy: str
) -> str:
    """Deterministic hex digest identifying one sweep cell.

    The tuning context (:func:`~repro.experiments.serialize.
    tuning_context`) plus the measurement-only inputs: strategy,
    repeats, the online search budget and any cap schedule (omitted
    when the cap is static, so static-cap digests are the ones written
    before cap schedules existed).
    """
    key = {
        **tuning_context(app, setup),
        "strategy": strategy,
        "repeats": setup.repeats,
        "online_max_evals": setup.online_max_evals,
    }
    if setup.cap_schedule:
        key["capsched"] = setup.cap_schedule.fingerprint()
    return context_digest(CACHE_SCHEMA_VERSION, key)


# ---------------------------------------------------------------------------
# StrategyRunResult <-> JSON
# ---------------------------------------------------------------------------
# The sub-object codecs (imported above) live in
# repro.experiments.serialize so the run-checkpoint layer can share
# them; the StrategyRunResult codec stays here because it needs the
# runner's types.
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


# ---------------------------------------------------------------------------
# the cache
# ---------------------------------------------------------------------------
@dataclass
class CacheStats:
    """Hit/miss counters (misses include invalidated entries)."""

    hits: int = 0
    misses: int = 0
    invalidated: int = 0
    writes: int = 0


class CacheEntryLog(JsonLog):
    """One cached cell: a log holding exactly one record."""

    schema = ENTRY_SCHEMA_VERSION


@dataclass
class ExperimentCache:
    """On-disk result cache keyed by :func:`experiment_digest`.

    All reads degrade gracefully: a missing, damaged, foreign or
    mismatched entry is a miss, never an exception.  Writes are atomic
    (temp file + ``os.replace``) so concurrent sweep workers and
    interrupted runs cannot leave torn entries behind.
    """

    root: Path = DEFAULT_CACHE_DIR
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    # -- paths ---------------------------------------------------------
    def result_path(
        self, app: Application, setup: ExperimentSetup, strategy: str
    ) -> Path:
        return self.root / f"{experiment_digest(app, setup, strategy)}.jsonl"

    def history_path(
        self, app: Application, setup: ExperimentSetup
    ) -> Path:
        """Where the shared tuned history for this (app, machine, cap)
        lives; offline cells replay it instead of re-tuning.  Keyed by
        the tuning context alone: strategy, repeats and the online
        budget do not change what exhaustive tuning finds."""
        digest = context_digest(
            CACHE_SCHEMA_VERSION, tuning_context(app, setup)
        )
        return self.root / "history" / f"{digest}.jsonl"

    # -- read / write --------------------------------------------------
    def get(
        self, app: Application, setup: ExperimentSetup, strategy: str
    ) -> StrategyRunResult | None:
        """The cached result: a hit only when the entry holds exactly
        one verified record for this digest, a miss otherwise."""
        path = self.result_path(app, setup, strategy)
        try:
            scan = CacheEntryLog(path).scan()
        except OSError:
            scan = None  # unreadable (a directory, no permission)
        records = [] if scan is None else scan.records
        if (
            scan is None
            or scan.damaged
            or scan.foreign
            or len(records) != 1
            or records[0].get("digest") != path.stem
        ):
            self.stats.misses += 1
            if scan is None or scan.size:
                self.stats.invalidated += 1
            return None
        self.stats.hits += 1
        return result_from_json(records[0]["result"])

    def put(
        self,
        app: Application,
        setup: ExperimentSetup,
        strategy: str,
        result: StrategyRunResult,
    ) -> Path:
        path = self.result_path(app, setup, strategy)
        CacheEntryLog(path).rewrite(
            [
                {
                    "digest": path.stem,
                    "app": app.label,
                    "machine": setup.spec.name,
                    "strategy": strategy,
                    "result": result_to_json(result),
                }
            ]
        )
        self.stats.writes += 1
        return path

    def clear(self) -> int:
        """Remove every file under the root (results, shared
        histories and any older-format leftovers); returns the number
        of files removed."""
        files = [path for path in self.root.rglob("*") if path.is_file()]
        for path in files:
            path.unlink()
        return len(files)
