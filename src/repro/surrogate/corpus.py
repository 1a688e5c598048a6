"""Training-corpus extraction for the learned surrogate.

Folds the two measurement sources the repo accumulates anyway into
one tidy list of :class:`TrainingRecord`\\ s - flat scalar-cell rows in
the :mod:`repro.analysis.records` convention, each stamped with its
schema version and provenance:

* the store of completed measurements (``--cache-dir DIR``: the sweep
  journal ``DIR/cells.jsonl``): measured ARCS-Offline cells carry
  per-region totals *and* the single configuration each region
  replayed, so time-per-call is attributable to one config.  Lines
  whose schema version does not match are **skipped and counted** - a
  mixed-version journal (written across an upgrade) must never abort
  a fold halfway through;
* telemetry JSONL: ``policy.apply`` / ``policy.report`` event pairs
  from search-mode runs - the richest source, one record per accepted
  probe measurement, config and cap taken from the apply event.

Every source is read-only and tolerant: torn lines, corrupt JSON,
unknown apps and mixed-config region totals (online runs) are skipped
and tallied in :class:`CorpusStats`, never raised.  The
``surrogate.corpus`` fault site is drawn once per candidate record so
chaos tests can prove damaged records degrade the downstream fit (to
the Nelder-Mead fallback) instead of crashing it.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.experiments.cache import result_from_json
from repro.experiments.journal import SweepJournal
from repro.experiments.runner import StrategyRunResult
from repro.faults.inject import FaultInjector
from repro.openmp.types import OMPConfig, ScheduleKind
from repro.util.atomicio import atomic_write_text

#: bump when the training-record layout changes; mismatched corpus
#: files refuse to load (the corpus is cheap to re-extract).
CORPUS_SCHEMA_VERSION = 1

#: run strategies whose per-region totals reflect a *single* config
#: (arcs-offline replays the chosen config for every call; online
#: runs mix search probes into the totals and are only usable through
#: their telemetry).
_SINGLE_CONFIG_STRATEGIES = ("arcs-offline",)


@dataclass(frozen=True)
class TrainingRecord:
    """One ``(region features, config, cap) -> objective`` sample.

    Region features are resolved from ``app``/``region`` at fit time
    (the application registry is the single source of truth for
    profiles); the record itself stays flat and scalar so it
    serializes through the :mod:`repro.analysis.records` backends.
    """

    app: str                 #: application label, e.g. ``"sp.B"``
    machine: str
    region: str
    cap_w: float | None      #: None = uncapped (TDP)
    n_threads: int
    schedule: str            #: ScheduleKind value, e.g. ``"guided"``
    chunk: int | None
    time_s: float            #: per-call region seconds (the objective)
    energy_j: float | None   #: per-call joules; None when unmeasured
    source: str              #: ``cache`` / ``telemetry``
    provenance: str          #: digest / file stem the sample came from

    def config(self) -> OMPConfig:
        return OMPConfig(
            n_threads=self.n_threads,
            schedule=ScheduleKind(self.schedule),
            chunk=self.chunk,
        )

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, blob: dict) -> "TrainingRecord":
        return cls(
            app=str(blob["app"]),
            machine=str(blob["machine"]),
            region=str(blob["region"]),
            cap_w=None if blob["cap_w"] is None else float(blob["cap_w"]),
            n_threads=int(blob["n_threads"]),
            schedule=str(blob["schedule"]),
            chunk=None if blob["chunk"] is None else int(blob["chunk"]),
            time_s=float(blob["time_s"]),
            energy_j=(
                None if blob["energy_j"] is None
                else float(blob["energy_j"])
            ),
            source=str(blob["source"]),
            provenance=str(blob["provenance"]),
        )


@dataclass
class CorpusStats:
    """Fold accounting: what was kept and what was skipped, and why."""

    records: int = 0
    files: int = 0
    #: journal lines stamped with a different schema version -
    #: skipped, not raised (the mixed-version-journal regression).
    skipped_schema: int = 0
    #: torn / corrupt / unparsable entries (including injected
    #: ``surrogate.corpus`` faults).
    skipped_damaged: int = 0
    #: entries that parsed but are unusable as training samples
    #: (mixed-config totals, zero calls, non-positive objective).
    skipped_unusable: int = 0
    notes: list[str] = field(default_factory=list)

    def note(self, text: str) -> None:
        note = f"surrogate corpus: {text}"
        if note not in self.notes:
            self.notes.append(note)

    def to_json(self) -> dict:
        return {
            "records": self.records,
            "files": self.files,
            "skipped_schema": self.skipped_schema,
            "skipped_damaged": self.skipped_damaged,
            "skipped_unusable": self.skipped_unusable,
            "notes": list(self.notes),
        }


def _draw_damage(
    faults: FaultInjector | None, stats: CorpusStats, where: str
) -> bool:
    """Poll the ``surrogate.corpus`` site for one candidate record;
    ``True`` means the record is to be treated as damaged."""
    if faults is None:
        return False
    spec = faults.draw("surrogate.corpus")
    if spec is None:
        return False
    stats.skipped_damaged += 1
    stats.note(
        f"{spec.action} training record injected at {where}; "
        "record skipped"
    )
    return True


# ---------------------------------------------------------------------------
# folding StrategyRunResults (the journal)
# ---------------------------------------------------------------------------
def fold_result(
    result: StrategyRunResult,
    *,
    source: str,
    provenance: str,
    stats: CorpusStats,
    faults: FaultInjector | None = None,
) -> list[TrainingRecord]:
    """Training records from one summarized run result.

    Only strategies that replay a single configuration per region are
    foldable (see ``_SINGLE_CONFIG_STRATEGIES``); anything else would
    attribute mixed-config totals to one config.
    """
    if result.strategy not in _SINGLE_CONFIG_STRATEGIES:
        stats.skipped_unusable += 1
        return []
    run = result.representative
    records: list[TrainingRecord] = []
    for region, config in sorted(result.chosen_configs.items()):
        totals = run.region_totals.get(region)
        if totals is None or totals.calls <= 0:
            stats.skipped_unusable += 1
            continue
        time_s = totals.time_per_call_s
        if not time_s > 0.0:
            stats.skipped_unusable += 1
            continue
        if _draw_damage(faults, stats, f"{provenance}:{region}"):
            continue
        energy = (
            None
            if run.energy_j is None
            else totals.energy_j / totals.calls
        )
        records.append(
            TrainingRecord(
                app=result.app_label,
                machine=result.machine,
                region=region,
                cap_w=result.cap_w,
                n_threads=config.n_threads,
                schedule=config.schedule.value,
                chunk=config.chunk,
                time_s=time_s,
                energy_j=energy,
                source=source,
                provenance=provenance,
            )
        )
    stats.records += len(records)
    return records


def fold_cache_dir(
    directory: str | Path,
    stats: CorpusStats,
    faults: FaultInjector | None = None,
) -> list[TrainingRecord]:
    """Fold the completed cells of the store under ``directory``.

    Read-only (:meth:`~repro.util.jsonlog.JsonLog.scan`, never the
    repairing load): a fold must never mutate a store's own recovery
    state.  Damaged and foreign-schema lines are skipped and counted,
    never raised mid-fold, so damaged logs and logs spanning a schema
    upgrade still contribute every line they can.  ARCS-Online repeat
    records are not cells and are passed over.
    """
    log = SweepJournal.in_dir(directory)
    if not log.path.is_file():
        stats.note(f"no journal at {log.path}; skipped")
        return []
    stats.files += 1
    scan = log.scan()
    stats.skipped_schema += scan.foreign
    if scan.damaged:
        stats.skipped_damaged += scan.damaged
        stats.note(f"torn/corrupt cache line in {log.path}; skipped")
    records: list[TrainingRecord] = []
    for blob in scan.records:
        if "repeat" in blob:
            continue
        try:
            result = result_from_json(blob["result"])
            digest = str(blob["digest"])
        except (KeyError, TypeError, ValueError, IndexError):
            stats.skipped_damaged += 1
            stats.note(f"corrupt cache record in {log.path}; skipped")
            continue
        records.extend(
            fold_result(
                result,
                source="cache",
                provenance=digest,
                stats=stats,
                faults=faults,
            )
        )
    return records


# ---------------------------------------------------------------------------
# folding telemetry JSONL
# ---------------------------------------------------------------------------
def _parse_config_label(label: str) -> OMPConfig | None:
    """Inverse of :meth:`OMPConfig.label` (``"16, guided, 8"``)."""
    parts = [p.strip() for p in label.split(",")]
    if len(parts) != 3:
        return None
    try:
        chunk = None if parts[2] == "default" else int(parts[2])
        return OMPConfig(
            n_threads=int(parts[0]),
            schedule=ScheduleKind(parts[1]),
            chunk=chunk,
        )
    except (ValueError, KeyError):
        return None


def fold_telemetry_file(
    path: str | Path,
    stats: CorpusStats,
    faults: FaultInjector | None = None,
) -> list[TrainingRecord]:
    """Training records from one telemetry JSONL file.

    Pairs each accepted ``policy.report`` with the preceding
    ``policy.apply`` of the same region (the config/cap the
    measurement ran under); the ``run.meta`` record supplies the app
    and machine identity.  Files without a usable meta record yield
    nothing (tallied as unusable).
    """
    path = Path(path)
    records: list[TrainingRecord] = []
    try:
        lines = path.read_text(errors="replace").splitlines()
    except OSError:
        stats.note(f"unreadable telemetry file {path.name}; skipped")
        return records
    stats.files += 1
    app = machine = None
    applied: dict[str, tuple[OMPConfig, float | None]] = {}
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            blob = json.loads(line)
        except json.JSONDecodeError:
            stats.skipped_damaged += 1
            continue
        if not isinstance(blob, dict):
            continue
        attrs = blob.get("attrs")
        if not isinstance(attrs, dict):
            continue
        if blob.get("type") == "meta":
            app = attrs.get("app") or app
            machine = attrs.get("machine") or machine
            continue
        if blob.get("type") != "event":
            continue
        name = blob.get("name")
        if name == "policy.apply":
            config = _parse_config_label(str(attrs.get("config", "")))
            region = attrs.get("region")
            if config is None or not isinstance(region, str):
                stats.skipped_unusable += 1
                continue
            cap = attrs.get("cap_w")
            applied[region] = (
                config,
                None if cap is None else float(cap),
            )
        elif name == "policy.report":
            region = attrs.get("region")
            if not isinstance(region, str) or region not in applied:
                stats.skipped_unusable += 1
                continue
            if attrs.get("accepted") is False:
                stats.skipped_unusable += 1
                continue
            try:
                time_s = float(attrs["objective"])
            except (KeyError, TypeError, ValueError):
                stats.skipped_unusable += 1
                continue
            if not time_s > 0.0 or app is None or machine is None:
                stats.skipped_unusable += 1
                continue
            if _draw_damage(faults, stats, f"{path.name}:{region}"):
                continue
            config, cap_w = applied[region]
            records.append(
                TrainingRecord(
                    app=str(app),
                    machine=str(machine),
                    region=region,
                    cap_w=cap_w,
                    n_threads=config.n_threads,
                    schedule=config.schedule.value,
                    chunk=config.chunk,
                    time_s=time_s,
                    energy_j=None,
                    source="telemetry",
                    provenance=path.stem,
                )
            )
    stats.records += len(records)
    return records


def fold_telemetry_dir(
    directory: str | Path,
    stats: CorpusStats,
    faults: FaultInjector | None = None,
) -> list[TrainingRecord]:
    """Fold every ``*.jsonl`` file under a telemetry directory."""
    directory = Path(directory)
    records: list[TrainingRecord] = []
    if not directory.is_dir():
        return records
    for path in sorted(directory.glob("*.jsonl")):
        records.extend(fold_telemetry_file(path, stats, faults))
    return records


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------
def save_corpus(
    records: list[TrainingRecord],
    stats: CorpusStats,
    path: str | Path,
) -> Path:
    """Persist a folded corpus atomically (schema stamp + stats)."""
    blob = {
        "schema": CORPUS_SCHEMA_VERSION,
        "stats": stats.to_json(),
        "records": [r.to_json() for r in records],
    }
    return atomic_write_text(path, json.dumps(blob, indent=2) + "\n")


def load_corpus(
    path: str | Path,
) -> tuple[list[TrainingRecord], CorpusStats]:
    """Inverse of :func:`save_corpus`; raises ``ValueError`` on a
    missing/corrupt file or a mismatched schema stamp."""
    try:
        blob = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read corpus {path}: {exc}") from exc
    if (
        not isinstance(blob, dict)
        or blob.get("schema") != CORPUS_SCHEMA_VERSION
    ):
        raise ValueError(
            f"corpus {path} has unsupported schema "
            f"{blob.get('schema') if isinstance(blob, dict) else '?'!r}"
        )
    stats_blob = blob.get("stats", {})
    stats = CorpusStats(
        records=int(stats_blob.get("records", 0)),
        files=int(stats_blob.get("files", 0)),
        skipped_schema=int(stats_blob.get("skipped_schema", 0)),
        skipped_damaged=int(stats_blob.get("skipped_damaged", 0)),
        skipped_unusable=int(stats_blob.get("skipped_unusable", 0)),
        notes=[str(n) for n in stats_blob.get("notes", [])],
    )
    records = [TrainingRecord.from_json(r) for r in blob["records"]]
    return records, stats
