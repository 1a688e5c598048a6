"""Name-based application lookup for harness scripts and examples."""

from __future__ import annotations

from repro.workloads.base import Application
from repro.workloads.bt import bt_application
from repro.workloads.lulesh import lulesh_application
from repro.workloads.sp import sp_application
from repro.workloads.synthetic import synthetic_application


def application_by_name(name: str, workload: str | None = None) -> Application:
    """Build an application by name.

    ``name`` in {"sp", "bt", "lulesh", "synthetic"}; ``workload`` is
    the NPB class ("B"/"C") or LULESH mesh ("45"/"60").  The synthetic
    application has one workload, ``"mixed"``, so any other is refused.
    """
    key = name.lower()
    if key == "sp":
        return sp_application(workload or "B")
    if key == "bt":
        return bt_application(workload or "B")
    if key == "lulesh":
        mesh = workload or "45"
        # a non-numeric mesh reaches lulesh_application's range check
        return lulesh_application(int(mesh) if mesh.isdigit() else mesh)
    if key == "synthetic":
        if workload not in (None, "mixed"):
            raise ValueError(
                f"synthetic has only the 'mixed' workload, got {workload!r}"
            )
        return synthetic_application()
    raise ValueError(
        f"unknown application {name!r}; known: sp, bt, lulesh, synthetic"
    )
