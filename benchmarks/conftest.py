"""Benchmark-suite fixtures.

Each benchmark regenerates one of the paper's tables/figures (or one
of this repo's ablations and overhead measurements), prints it and
writes it under ``results/`` so the whole evaluation can be
reassembled from one ``pytest benchmarks/`` run.  Every
``results/<name>.txt`` is paired with a schema-stamped
``BENCH_<name>.json`` (:mod:`repro.analysis.bench`) carrying the same
numbers machine-readably - metrics with compare directions, tidy
record rows, and machine/seed/config provenance - which
``repro analysis compare`` diffs against the committed baselines under
``results/baselines/``.

Registered figures and tables come from one spec each in the figure
registry (:mod:`repro.analysis.registry`): ``bench_figures.py`` and
``repro figures`` both generate and write them from it, so the two
produce the same bytes.  ``repro figures --workers N --no-cache``
regenerates the same artifacts in parallel or cold.  The other
benchmarks save through :func:`save_result`, which calls the same two
writers.  Both files are written through :mod:`repro.util.atomicio`,
so a killed benchmark run leaves either the old artifact or the new
one - never a truncated half.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.bench import (
    bench_payload,
    write_bench_json,
    write_result_txt,
)

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def save_result(results_dir):
    """Persist one benchmark artifact: ``results/<name>.txt`` (the
    paper-style table, also printed) plus its ``BENCH_<name>.json``
    twin built from the keyword arguments.

    ``metrics`` values are numbers (lower-is-better by default) or
    ``{"value": x, "direction": "lower"|"higher"|"info"}`` mappings;
    mark wall-clock-derived numbers ``info`` so the CI regression gate
    never trips on machine noise.
    """

    def _save(
        name: str,
        text: str,
        *,
        metrics=None,
        records=None,
        machine=None,
        seed=None,
        config=None,
    ) -> None:
        write_result_txt(results_dir, name, text)
        write_bench_json(
            results_dir,
            bench_payload(
                name,
                metrics,
                records=records,
                machine=machine,
                seed=seed,
                config=config,
            ),
        )
        print()
        print(text)

    return _save
