"""Schema-stamped machine-readable benchmark results.

Every benchmark writes a ``BENCH_<name>.json`` next to its
``results/<name>.txt``: same data, but structured, so re-anchors and
CI can diff performance across commits instead of eyeballing text
tables.  One file holds:

* ``metrics`` - named scalar measurements, each with a comparison
  ``direction`` (``lower`` / ``higher`` is better, or ``info`` for
  numbers that are machine-dependent - wall-clock times, speedups -
  and therefore recorded but never gated on);
* ``records`` - the figure/table's tidy record rows (optional);
* ``provenance`` - machine spec names, seed, benchmark configuration,
  and the interpreter/platform that produced the numbers.

:func:`write_bench_json` and :func:`write_result_txt` - the writers
``repro figures`` and every benchmark use - go through
:mod:`repro.util.atomicio`, so a killed benchmark run can never leave
a torn JSON behind, and :func:`load_bench_dir` treats unreadable or
schema-mismatched files as absent rather than crashing the comparison
tool on them.
"""

from __future__ import annotations

import json
import platform
import sys
from collections.abc import Mapping, Sequence
from pathlib import Path

from repro.util.atomicio import atomic_write_text

#: bump when the BENCH payload layout changes; the compare tool only
#: accepts matching versions.
BENCH_SCHEMA_VERSION = 1

#: file-name prefix - ``BENCH_<name>.json`` next to ``<name>.txt``.
BENCH_PREFIX = "BENCH_"

#: valid metric directions.
DIRECTIONS = ("lower", "higher", "info")


class BenchFormatError(ValueError):
    """A metrics/payload value did not fit the BENCH schema."""


def _normalize_metric(name: str, value: object) -> dict:
    """Accept ``float`` (defaults to lower-is-better) or a mapping
    with ``value`` and optional ``direction`` / ``unit``."""
    if isinstance(value, Mapping):
        try:
            raw = float(value["value"])
        except (KeyError, TypeError, ValueError) as exc:
            raise BenchFormatError(
                f"metric {name!r}: mapping form needs a numeric "
                f"'value', got {value!r}"
            ) from exc
        direction = value.get("direction", "lower")
        if direction not in DIRECTIONS:
            raise BenchFormatError(
                f"metric {name!r}: direction must be one of "
                f"{DIRECTIONS}, got {direction!r}"
            )
        out = {"value": raw, "direction": direction}
        if "unit" in value:
            out["unit"] = str(value["unit"])
        return out
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BenchFormatError(
            f"metric {name!r}: expected a number or mapping, got "
            f"{value!r}"
        )
    return {"value": float(value), "direction": "lower"}


def default_provenance(
    *,
    machine: str | Sequence[str] | None = None,
    seed: int | None = None,
    config: Mapping | None = None,
) -> dict:
    """Provenance block: what produced these numbers, and where."""
    machines: list[str]
    if machine is None:
        machines = []
    elif isinstance(machine, str):
        machines = [machine]
    else:
        machines = list(machine)
    return {
        "machines": machines,
        "seed": seed,
        "config": dict(config) if config else {},
        "python": platform.python_version(),
        "platform": sys.platform,
    }


def bench_payload(
    name: str,
    metrics: Mapping | None = None,
    *,
    records: Sequence[Mapping] | None = None,
    machine: str | Sequence[str] | None = None,
    seed: int | None = None,
    config: Mapping | None = None,
) -> dict:
    """Build a schema-stamped BENCH payload.

    ``metrics`` values may be plain numbers (lower-is-better) or
    ``{"value": x, "direction": "lower"|"higher"|"info", "unit": ...}``
    mappings.
    """
    normalized = {
        key: _normalize_metric(key, value)
        for key, value in (metrics or {}).items()
    }
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "kind": "bench",
        "name": name,
        "metrics": normalized,
        "records": [dict(r) for r in records] if records else [],
        "provenance": default_provenance(
            machine=machine, seed=seed, config=config
        ),
    }


def sweep_metrics(
    sweep,
    strategies: Sequence[str] = ("arcs-online", "arcs-offline"),
) -> dict:
    """Gated metrics for a power sweep: normalized time (and energy,
    when the machine meters it) of every non-default strategy at every
    power level - deterministic under the repro seed, so the compare
    tolerance only needs to absorb intentional model changes."""
    metrics: dict = {}
    for label in sweep.labels:
        for strategy in strategies:
            cell = sweep.cells.get((label, strategy))
            if cell is None:
                continue
            metrics[f"time_norm[{label}/{strategy}]"] = {
                "value": cell.time_norm, "direction": "lower",
            }
            if cell.energy_norm is not None:
                metrics[f"energy_norm[{label}/{strategy}]"] = {
                    "value": cell.energy_norm, "direction": "lower",
                }
    return metrics


def feature_metrics(comparison) -> dict:
    """Gated metrics for a Figure 3/6/10 feature comparison: every
    normalized feature of every region (default = 1.0; smaller is
    better)."""
    return {
        f"{region}[{feature}]": {"value": value, "direction": "lower"}
        for region in comparison.regions
        for feature, value in
        comparison.offline_normalized[region].items()
    }


def bench_path(directory: str | Path, name: str) -> Path:
    return Path(directory) / f"{BENCH_PREFIX}{name}.json"


def write_result_txt(directory: str | Path, name: str, text: str) -> Path:
    """Atomically write the paper-style ``<name>.txt`` that pairs with
    ``BENCH_<name>.json`` under ``directory`` and return its path."""
    path = Path(directory) / f"{name}.txt"
    atomic_write_text(path, text + "\n")
    return path


def write_bench_json(
    directory: str | Path, payload: Mapping
) -> Path:
    """Atomically write ``BENCH_<payload[name]>.json`` under
    ``directory`` and return its path."""
    name = payload.get("name")
    if not isinstance(name, str) or not name:
        raise BenchFormatError(
            f"payload needs a non-empty 'name', got {name!r}"
        )
    path = bench_path(directory, name)
    atomic_write_text(
        path, json.dumps(dict(payload), indent=2, sort_keys=True) + "\n"
    )
    return path


def load_bench_json(path: str | Path) -> dict | None:
    """One BENCH payload, or ``None`` for unreadable / mismatched
    files (they count as absent, not as crashes)."""
    try:
        blob = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if (
        not isinstance(blob, dict)
        or blob.get("schema") != BENCH_SCHEMA_VERSION
        or blob.get("kind") != "bench"
        or not isinstance(blob.get("name"), str)
        or not isinstance(blob.get("metrics"), dict)
    ):
        return None
    return blob


def load_bench_dir(directory: str | Path) -> dict[str, dict]:
    """Every valid ``BENCH_*.json`` under ``directory``, keyed by
    benchmark name (sorted for deterministic iteration)."""
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(
            f"not a BENCH results directory: {directory}"
        )
    out: dict[str, dict] = {}
    for path in sorted(directory.glob(f"{BENCH_PREFIX}*.json")):
        payload = load_bench_json(path)
        if payload is not None:
            out[payload["name"]] = payload
    return out
