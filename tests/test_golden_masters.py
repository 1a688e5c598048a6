"""Golden-master tests: seed-pinned experiment outputs.

Each test runs a reduced (but structurally faithful) version of a
paper artifact - the Figure 4 / Figure 7 power sweeps and Table II -
or a small fault-armed fleet run - serializes the payloads to
canonical JSON, and compares them byte-for-byte against the checked-in
files under ``tests/goldens/``.

When a model change *intentionally* shifts the numbers, refresh the
goldens and review the diff like any other code change:

    PYTHONPATH=src python -m pytest tests/test_golden_masters.py \
        --update-goldens

The batched evaluator must never require a golden refresh on its own:
the differential suite pins batched == scalar bit-for-bit, and these
files pin both against history.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.cache import result_to_json
from repro.faults import load_fault_plan
from repro.experiments.figures import power_sweep
from repro.experiments.runner import ExperimentSetup
from repro.experiments.tables import table2_sp_optimal_configs
from repro.fleet import FleetSimulation, fleet_result_to_json
from repro.fleet.plan import synthesize_fleet
from repro.machine.spec import crill
from repro.workloads.bt import bt_application
from repro.workloads.sp import sp_application

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def check_golden(
    name: str, text: str, goldens_dir: Path, update: bool
) -> None:
    path = goldens_dir / name
    if update:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return
    if not path.exists():
        pytest.fail(
            f"golden file {path} is missing; run pytest with "
            "--update-goldens to create it",
            pytrace=False,
        )
    assert text == path.read_text(), (
        f"{name} drifted from its golden master; if the change is "
        "intentional, refresh with --update-goldens and review the diff"
    )


def sweep_payload(sweep) -> dict:
    return {
        "app": sweep.app_label,
        "machine": sweep.machine,
        "results": {
            f"{label}/{strategy}": result_to_json(result)
            for (label, strategy), result in sorted(sweep.results.items())
        },
    }


class TestGoldenMasters:
    def test_fig4_reduced_sweep(self, goldens_dir, update_goldens):
        """SP-B on Crill at TDP + 85W (reduced Figure 4), seed 0."""
        sweep = power_sweep(
            sp_application("B"), crill(), (115.0, 85.0),
            repeats=1, seed=0,
        )
        check_golden(
            "fig4_sp_reduced.json",
            canonical(sweep_payload(sweep)),
            goldens_dir,
            update_goldens,
        )

    def test_fig7_reduced_sweep(self, goldens_dir, update_goldens):
        """BT-B on Crill at 85W (reduced Figure 7), seed 0."""
        sweep = power_sweep(
            bt_application("B"), crill(), (85.0,), repeats=1, seed=0
        )
        check_golden(
            "fig7_bt_reduced.json",
            canonical(sweep_payload(sweep)),
            goldens_dir,
            update_goldens,
        )

    def test_table2_optimal_configs(self, goldens_dir, update_goldens):
        """Table II: ARCS-Offline's chosen configs for SP's four major
        regions at TDP."""
        rows = table2_sp_optimal_configs(
            ExperimentSetup(spec=crill(), repeats=1, seed=0)
        )
        payload = [
            {"region": row.region, "config": row.config} for row in rows
        ]
        check_golden(
            "table2_sp_optimal.json",
            canonical(payload),
            goldens_dir,
            update_goldens,
        )

    def test_fleet4_reduced(self, goldens_dir, update_goldens):
        """A 4-node fleet, seed 0, with ``examples/fleetfaults.json``
        armed: pins the per-invocation path (OMPT, APEX, policy,
        noise, RAPL) through every node's tunes and progress."""
        result = FleetSimulation(
            synthesize_fleet(4, seed=0),
            load_fault_plan(EXAMPLES_DIR / "fleetfaults.json"),
        ).run()
        check_golden(
            "fleet4_reduced.json",
            canonical(fleet_result_to_json(result)),
            goldens_dir,
            update_goldens,
        )
