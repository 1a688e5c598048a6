"""JSON codecs for the leaf measurement records, and the fields that
key a measurement.

These round-trip :class:`~repro.openmp.records.RegionTotals`,
:class:`~repro.workloads.base.AppRunResult` and
:class:`~repro.core.overhead.OverheadReport` through plain JSON with
full float fidelity (Python serializes floats via ``repr``, so values
survive a dump/load cycle bit-for-bit - the property every
byte-identical-resume guarantee in this repo leans on).

They used to live inside :mod:`repro.experiments.cache`; they are a
leaf module now so that the runner can share them without creating an
import cycle through the cache (which imports the runner).
:func:`tuning_context` and :func:`measurement_context` are here for
the same reason: the journal's cell and repeat keys, the shared tuned
history and the service knowledge key all read them.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING

from repro.core.overhead import OverheadReport
from repro.faults.plan import plan_fingerprint
from repro.openmp.records import RegionTotals
from repro.workloads.base import Application, AppRunResult

if TYPE_CHECKING:  # the runner imports this module
    from repro.experiments.runner import ExperimentSetup


def app_fingerprint(app: Application) -> str:
    """A deterministic content fingerprint of an application.

    ``repr`` of the frozen dataclass tree covers every region profile
    field, so two apps sharing a (name, workload) label but differing
    in timesteps or region characterization never collide.
    """
    return hashlib.sha256(repr(app).encode()).hexdigest()[:16]


def tuning_context(app: Application, setup: "ExperimentSetup") -> dict:
    """The fields that key one tuning context: application (name,
    workload, content fingerprint), machine, power cap, seed, noise
    level and fault plan.  Every offline cell of one context replays
    the same tuned history; measurement keys add their own fields on
    top.  A clean setup omits ``faults``, so clean digests are the ones
    written before fault plans existed."""
    context = {
        "app": app.name,
        "workload": app.workload,
        "fingerprint": app_fingerprint(app),
        "machine": setup.spec.name,
        "cap_w": setup.cap_w,
        "seed": setup.seed,
        "noise_sigma": setup.noise_sigma,
    }
    faults = plan_fingerprint(setup.fault_plan)
    if faults is not None:
        context["faults"] = faults
    return context


def measurement_context(
    app: Application, setup: "ExperimentSetup", strategy: str
) -> dict:
    """The fields that key one measurement: the tuning context plus
    the measurement-only inputs - strategy, repeats, the online search
    budget and any cap schedule (omitted when the cap is static, so
    static-cap keys are the ones written before cap schedules
    existed).  A sweep cell's journal key digests it; an ARCS-Online
    repeat's key digests it plus the selective threshold."""
    context = {
        **tuning_context(app, setup),
        "strategy": strategy,
        "repeats": setup.repeats,
        "online_max_evals": setup.online_max_evals,
    }
    if setup.cap_schedule:
        context["capsched"] = setup.cap_schedule.fingerprint()
    return context


def context_digest(schema: int, fields: dict) -> str:
    """Hex sha256 of ``fields`` stamped with ``schema``, over canonical
    JSON, so each store can bump its own schema independently."""
    blob = json.dumps(
        {"schema": schema, **fields}, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def totals_to_json(totals: RegionTotals) -> dict:
    return {
        "region_name": totals.region_name,
        "calls": totals.calls,
        "implicit_task_s": totals.implicit_task_s,
        "loop_s": totals.loop_s,
        "barrier_s": totals.barrier_s,
        "energy_j": totals.energy_j,
    }


def totals_from_json(blob: dict) -> RegionTotals:
    return RegionTotals(
        region_name=blob["region_name"],
        calls=int(blob["calls"]),
        implicit_task_s=blob["implicit_task_s"],
        loop_s=blob["loop_s"],
        barrier_s=blob["barrier_s"],
        energy_j=blob["energy_j"],
    )


def run_to_json(run: AppRunResult) -> dict:
    return {
        "app_label": run.app_label,
        "time_s": run.time_s,
        "energy_j": run.energy_j,
        "region_totals": {
            name: totals_to_json(t)
            for name, t in run.region_totals.items()
        },
        "region_miss_rates": {
            name: list(rates)
            for name, rates in run.region_miss_rates.items()
        },
        "total_region_calls": run.total_region_calls,
        "degraded": list(run.degraded),
    }


def run_from_json(blob: dict) -> AppRunResult:
    return AppRunResult(
        app_label=blob["app_label"],
        time_s=blob["time_s"],
        energy_j=blob["energy_j"],
        region_totals={
            name: totals_from_json(t)
            for name, t in blob["region_totals"].items()
        },
        region_miss_rates={
            name: (rates[0], rates[1], rates[2])
            for name, rates in blob["region_miss_rates"].items()
        },
        total_region_calls=int(blob["total_region_calls"]),
        degraded=tuple(blob.get("degraded", ())),
    )


def overhead_to_json(overhead: OverheadReport | None) -> dict | None:
    if overhead is None:
        return None
    return {
        "config_change_s": overhead.config_change_s,
        "config_change_calls": overhead.config_change_calls,
        "instrumentation_s": overhead.instrumentation_s,
        "search_s": overhead.search_s,
    }


def overhead_from_json(blob: dict | None) -> OverheadReport | None:
    if blob is None:
        return None
    return OverheadReport(
        config_change_s=blob["config_change_s"],
        config_change_calls=int(blob["config_change_calls"]),
        instrumentation_s=blob["instrumentation_s"],
        search_s=blob["search_s"],
    )
