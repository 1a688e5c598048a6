"""Learned surrogate search: corpus-trained config ranking.

The package turns the measurement corpus the repo accumulates anyway -
the sweep journal of completed measurements, telemetry JSONL - into a
cheap learned performance model, then uses it to *rank* the Table I
space so a tuning run measures only the most promising configurations:

* :mod:`repro.surrogate.corpus` - fold journaled results and
  telemetry into tidy ``(region features, config, cap) -> time``
  training records with schema stamps and provenance;
* :mod:`repro.surrogate.model`  - feature-hashed ridge regression
  (pure numpy, seeded, byte-deterministic), save/load via
  :mod:`repro.util.atomicio`, plus a held-out fit-quality report;
* :mod:`repro.surrogate.plan`   - runner glue: per-region ranked probe
  orders for the ``surrogate`` search strategy, and the Nelder-Mead
  fallback decision when the fit cannot be trusted;
* :mod:`repro.surrogate.source` - the cold-start
  :class:`~repro.service.source.ConfigSource` tier serving predicted
  configurations for contexts nothing has tuned yet.

Fallbacks everywhere are degradations, never errors: a damaged corpus
record, a non-finite fit or an unusable model file all surface as
typed degradation notes while the run completes via Nelder-Mead (or
fresh tuning, for the cold-start tier).
"""

from repro.surrogate.corpus import (
    CORPUS_SCHEMA_VERSION,
    CorpusStats,
    TrainingRecord,
    fold_cache_dir,
    fold_telemetry_dir,
    load_corpus,
    save_corpus,
)
from repro.surrogate.model import (
    MODEL_SCHEMA_VERSION,
    FitReport,
    SurrogateError,
    SurrogateModel,
    fit_surrogate,
    load_model,
    save_model,
)
from repro.surrogate.plan import (
    DEFAULT_MAX_FIT_ERROR,
    DEFAULT_TOP_K,
    SurrogateTuning,
    surrogate_orders,
)
from repro.surrogate.source import SurrogateColdStartSource

__all__ = [
    "CORPUS_SCHEMA_VERSION",
    "CorpusStats",
    "TrainingRecord",
    "fold_cache_dir",
    "fold_telemetry_dir",
    "load_corpus",
    "save_corpus",
    "MODEL_SCHEMA_VERSION",
    "FitReport",
    "SurrogateError",
    "SurrogateModel",
    "fit_surrogate",
    "load_model",
    "save_model",
    "DEFAULT_MAX_FIT_ERROR",
    "DEFAULT_TOP_K",
    "SurrogateTuning",
    "surrogate_orders",
    "SurrogateColdStartSource",
]
