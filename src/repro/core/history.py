"""The ARCS history log.

"When the program completes, the policy saves the best parameters
found during the search.  When the same program is run again in the
same configuration in the future, the saved values can be used instead
of repeating the search process."  (Section III-B)

A file-backed store is a :class:`~repro.util.jsonlog.JsonLog` with one
record per experiment key (application | machine | power cap |
workload): ``{"key", "regions"}``, mapping region names to their best
configuration and its measured objective.  Every save rewrites the log
atomically; opening a log with any damaged or foreign line raises
:class:`CorruptHistoryError` and leaves the file untouched.
"""

from __future__ import annotations

from pathlib import Path

from repro.openmp.types import OMPConfig
from repro.util.jsonlog import JsonLog

#: bump when the record layout changes; a log of another schema is
#: refused on open.
HISTORY_SCHEMA_VERSION = 1


class HistoryKeyMissing(KeyError):
    """``HistoryStore.load`` was asked for a key the store does not
    hold.  Carries the key, the store's path (``None`` for in-memory
    stores) and the keys that *are* present, so an ARCS-Offline
    measured run pointed at the wrong history file gets an actionable
    message instead of a bare ``KeyError``."""

    def __init__(
        self, key: str, path: Path | None, known: tuple[str, ...]
    ) -> None:
        self.key = key
        self.path = path
        self.known = known
        where = "in-memory history" if path is None else f"history {path}"
        saved = ", ".join(repr(k) for k in known) if known else "none"
        super().__init__(
            f"no saved history for {key!r} in {where} "
            f"(saved keys: {saved}); run the tuning phase first"
        )

    def __str__(self) -> str:  # KeyError quotes its arg; keep prose
        return self.args[0]


class CorruptHistoryError(RuntimeError):
    """A history log on disk has damaged or foreign lines.

    Raised on open, naming the path, so a truncated or tampered file
    is refused outright instead of replaying part of a history.
    """

    def __init__(self, path: Path, reason: str) -> None:
        self.path = path
        super().__init__(
            f"corrupt ARCS history file {path}: {reason}; delete or "
            "restore it to proceed"
        )


def region_to_json(config: OMPConfig, value: float | None) -> dict:
    """One region's saved entry: its config plus its objective."""
    return {**config.to_json(), "value": value}


def region_from_json(blob: dict) -> tuple[OMPConfig, float | None]:
    value = blob.get("value")
    return OMPConfig.from_json(blob), None if value is None else float(value)


class _HistoryLog(JsonLog):
    schema = HISTORY_SCHEMA_VERSION


class HistoryStore:
    """Best-configuration persistence, in memory or on disk.

    Pass ``path=None`` for a purely in-memory store (used by the
    experiment harness, which holds tuning and measured runs in one
    process; nothing is encoded); pass a path to persist across
    processes.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = None if path is None else Path(path)
        #: experiment key -> region -> (best config, its objective)
        self._data: dict[str, dict[str, tuple[OMPConfig, float | None]]] = {}
        if self.path is None:
            return
        scan = _HistoryLog(self.path).scan()
        if scan.damaged or scan.foreign:
            raise CorruptHistoryError(
                self.path,
                f"{scan.damaged} damaged and {scan.foreign} foreign "
                "line(s)",
            )
        for record in scan.records:
            self._data[record["key"]] = {
                region: region_from_json(blob)
                for region, blob in record["regions"].items()
            }

    # ------------------------------------------------------------------
    def save(
        self,
        key: str,
        configs: dict[str, OMPConfig],
        values: dict[str, float] | None = None,
    ) -> None:
        """Record best configs for experiment ``key`` and persist."""
        values = values or {}
        self._data[key] = {
            region: (cfg, values.get(region))
            for region, cfg in configs.items()
        }
        self._persist()

    def load(self, key: str) -> dict[str, OMPConfig]:
        """Best configs per region for ``key``
        (:class:`HistoryKeyMissing` if absent)."""
        try:
            entries = self._data[key]
        except KeyError:
            raise HistoryKeyMissing(
                key, self.path, tuple(self.keys())
            ) from None
        return {region: cfg for region, (cfg, _) in entries.items()}

    def load_values(self, key: str) -> dict[str, float | None]:
        entries = self._data.get(key, {})
        return {region: value for region, (_, value) in entries.items()}

    def has(self, key: str) -> bool:
        return key in self._data

    def keys(self) -> list[str]:
        return sorted(self._data)

    def _persist(self) -> None:
        """Rewrite the log atomically, so a crash - or a parallel
        worker dying mid-write - never leaves a half-written history
        behind."""
        if self.path is None:
            return
        _HistoryLog(self.path).rewrite(
            [
                {
                    "key": key,
                    "regions": {
                        region: region_to_json(cfg, value)
                        for region, (cfg, value) in entries.items()
                    },
                }
                for key, entries in self._data.items()
            ]
        )


def experiment_key(
    app: str, machine: str, cap_w: float | None, workload: str = ""
) -> str:
    """Canonical history key for one (app, machine, cap, workload)."""
    cap = "tdp" if cap_w is None else f"{cap_w:g}W"
    return f"{app}|{machine}|{cap}|{workload}"
