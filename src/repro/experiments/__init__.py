"""Experiment harness reproducing the paper's evaluation.

:mod:`repro.experiments.runner` orchestrates the three measurement
modes the paper compares (default, ARCS-Online, ARCS-Offline) with the
paper's repeat methodology (three runs; average on Crill, minimum on
Minotaur).  :mod:`repro.experiments.figures` and
:mod:`repro.experiments.tables` generate the data behind every figure
and table in Section V; :mod:`repro.experiments.reporting` renders them
as paper-style text tables.  :mod:`repro.experiments.parallel` fans
sweep cells out over a process pool and
:mod:`repro.experiments.journal` memoizes their results on disk.
"""

from repro.experiments.cache import (
    CACHE_SCHEMA_VERSION,
    DEFAULT_CACHE_DIR,
    experiment_digest,
)
from repro.experiments.metrics import improvement_pct, normalized_series
from repro.experiments.parallel import (
    ParallelSweepExecutor,
    SweepTask,
    SweepTaskError,
    run_sweep_task,
)
from repro.experiments.runner import (
    CRILL_POWER_LEVELS,
    ExperimentSetup,
    StrategyRunResult,
    TuningDidNotConverge,
    fresh_runtime,
    run_arcs_offline,
    run_arcs_online,
    run_default,
    run_strategy,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CRILL_POWER_LEVELS",
    "DEFAULT_CACHE_DIR",
    "ExperimentSetup",
    "ParallelSweepExecutor",
    "StrategyRunResult",
    "SweepTask",
    "SweepTaskError",
    "TuningDidNotConverge",
    "experiment_digest",
    "fresh_runtime",
    "improvement_pct",
    "normalized_series",
    "run_arcs_offline",
    "run_arcs_online",
    "run_default",
    "run_strategy",
    "run_sweep_task",
]
