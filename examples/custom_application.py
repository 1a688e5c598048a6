#!/usr/bin/env python
"""Tuning your own application: define regions, attach ARCS directly.

Shows the lower-level public API: build :class:`RegionProfile`s with
explicit compute/memory/imbalance characteristics, assemble an
:class:`Application`, drive the :class:`OpenMPRuntime` yourself, and
attach an :class:`ARCS` controller with a history file so a second
process run skips the search ("the saved values can be used instead of
repeating the search process").

Run:  python examples/custom_application.py
"""

from pathlib import Path
from tempfile import TemporaryDirectory

from repro import (
    ARCS,
    Application,
    HistoryStore,
    ImbalanceSpec,
    OpenMPRuntime,
    RegionCall,
    RegionProfile,
    SimulatedNode,
    crill,
    experiment_key,
    run_application,
)
from repro.machine.cache import MemoryProfile
from repro.util.units import MIB


def build_app() -> Application:
    """A made-up solver: one imbalanced assembly loop plus one
    bandwidth-hungry smoother."""
    assembly = RegionProfile(
        name="assemble_matrix",
        iterations=4096,
        cpu_ns_per_iter=4.0e4,
        memory=MemoryProfile(
            bytes_per_iter=512.0,
            stride_bytes=8.0,
            footprint_bytes=24 * MIB,
            reuse_fraction=0.55,
        ),
        # boundary rows cost 2.5x interior rows
        imbalance=ImbalanceSpec(
            kind="step", amplitude=1.5, heavy_fraction=0.1
        ),
    )
    smoother = RegionProfile(
        name="jacobi_smooth",
        iterations=512,
        cpu_ns_per_iter=1.5e5,
        memory=MemoryProfile(
            bytes_per_iter=256.0e3,
            stride_bytes=8.0,
            footprint_bytes=96 * MIB,
            reuse_fraction=0.75,
            reuse_window_bytes=8 * MIB,
        ),
        imbalance=ImbalanceSpec(kind="random", amplitude=0.03),
    )
    return Application(
        name="mysolver",
        workload="demo",
        step_sequence=(
            RegionCall(region=assembly),
            RegionCall(region=smoother),
        ),
        timesteps=50,
    )


def main() -> None:
    with TemporaryDirectory() as tmp:
        history_path = Path(tmp) / "arcs_history.jsonl"
        app = build_app()
        key = experiment_key(app.name, "crill", 70.0, app.workload)

        # --- first run: ARCS-Online searches and saves its results ----
        node = SimulatedNode(crill())
        runtime = OpenMPRuntime(node, seed=1)
        node.set_power_cap(70.0)
        node.settle_after_cap()

        baseline = run_application(app, OpenMPRuntime(SimulatedNode(
            crill()), seed=1))

        arcs = ARCS(
            runtime,
            strategy="nelder-mead",
            history=HistoryStore(history_path),
            history_key=key,
        )
        arcs.attach()
        tuned = run_application(app, runtime)
        arcs.finalize()

        print(f"default : {baseline.time_s:.3f} s")
        print(f"online  : {tuned.time_s:.3f} s "
              f"({100 * (1 - tuned.time_s / baseline.time_s):+.1f}%)")
        print("chosen configs:")
        for region, config in sorted(arcs.chosen_configs().items()):
            print(f"  {region:16s} -> {config.label()}")
        report = arcs.overhead_report()
        print(f"overheads: config-change {report.config_change_s * 1e3:.1f} "
              f"ms, instrumentation {report.instrumentation_s * 1e3:.1f} ms, "
              f"search {report.search_s * 1e3:.1f} ms")

        # --- second run: replay from the history file ------------------
        node2 = SimulatedNode(crill())
        runtime2 = OpenMPRuntime(node2, seed=2)
        node2.set_power_cap(70.0)
        node2.settle_after_cap()
        arcs2 = ARCS(
            runtime2,
            history=HistoryStore(history_path),
            history_key=key,
            replay=True,
        )
        arcs2.attach()
        replayed = run_application(app, runtime2)
        arcs2.finalize()
        print(f"replayed: {replayed.time_s:.3f} s (no search this time, "
              f"best configs read from {history_path.name})")


if __name__ == "__main__":
    main()
