"""The learned surrogate: feature-hashed ridge regression.

Zero heavy dependencies - pure numpy, closed-form ridge.  Everything is
seeded and byte-deterministic: the same corpus and seed produce the
same weights, the same saved JSON and the same predictions, on every
machine (feature hashing goes through sha256, never Python's randomized
``hash``).

The model predicts ``log(time_per_call_s)`` for one ``(region
features, config, cap)`` context.  Features mix three kinds of tokens:

* numeric region/config/cap features (log-scaled, value-weighted);
* categorical one-hot tokens (schedule, chunk, thread count, machine,
  imbalance kind) and their interactions - these generalize across
  regions, which is what the cold-start path leans on;
* region-identity interaction tokens (``r=<app>.<region>|threads=16``
  ...) - these let the model *memorize* the measured response of
  regions the corpus has seen, which is what makes corpus-trained
  ranking sample-efficient on warm regions.

A deterministic ~20% holdout split feeds the :class:`FitReport`; the
runner's fallback contract (``repro.surrogate.plan``) compares its
held-out relative error against a threshold before trusting the
ranking.  A fit whose weights come out non-finite (degenerate corpus,
or the injected ``surrogate.fit``/``nonfinite`` fault) marks the model
unusable with a typed reason instead of raising.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.faults.inject import FaultInjector
from repro.machine.spec import machine_by_name
from repro.openmp.types import OMPConfig
from repro.surrogate.corpus import CorpusStats, TrainingRecord
from repro.util.atomicio import atomic_write_text
from repro.workloads.registry import application_by_name

#: bump when the serialized model layout changes (2: the MLP residual
#: block is gone, so a v1 file that carries one is refused rather than
#: loaded without it).
MODEL_SCHEMA_VERSION = 2

#: bump when the feature tokenization changes - a model hashed under a
#: different tokenization must refuse to predict.
FEATURE_VERSION = 1

#: hashed feature dimensionality.  Large enough that the Table I
#: vocabulary (a few thousand tokens) rarely collides; a 1024x1024
#: ridge solve is still instantaneous.
DEFAULT_DIM = 1024

#: ridge regularization strength.
DEFAULT_RIDGE = 1.0e-3

#: holdout denominator: every record whose deterministic bucket is 0
#: (of ``_HOLDOUT_BUCKETS``) is held out of the fit.
_HOLDOUT_BUCKETS = 5

#: numeric feature values are clipped here so arbitrary (even
#: non-finite) inputs still produce finite predictions.
_VALUE_CLIP = 1.0e6


class SurrogateError(ValueError):
    """A surrogate model file is missing, corrupt or incompatible."""


# ---------------------------------------------------------------------------
# region context + featurization
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RegionContext:
    """Everything the featurizer knows about one (region, cap)."""

    region_key: str          #: identity token, ``"<app>.<region>"``
    machine: str
    tdp_w: float
    cap_w: float | None
    iterations: float
    cpu_ns_per_iter: float
    serial_ns: float
    bytes_per_iter: float
    stride_bytes: float
    footprint_bytes: float
    reuse_fraction: float
    neighbourhood_bytes: float
    imb_kind: str
    imb_amplitude: float


def context_from_profile(
    app_label: str,
    machine: str,
    cap_w: float | None,
    profile,
    tdp_w: float,
) -> RegionContext:
    """Context for one :class:`~repro.openmp.region.RegionProfile`."""
    memory = profile.memory
    imbalance = profile.imbalance
    return RegionContext(
        region_key=f"{app_label}.{profile.name}",
        machine=machine,
        tdp_w=tdp_w,
        cap_w=cap_w,
        iterations=float(profile.iterations),
        cpu_ns_per_iter=float(profile.cpu_ns_per_iter),
        serial_ns=float(profile.serial_ns),
        bytes_per_iter=float(memory.bytes_per_iter),
        stride_bytes=float(memory.stride_bytes),
        footprint_bytes=float(memory.footprint_bytes),
        reuse_fraction=float(memory.reuse_fraction),
        neighbourhood_bytes=float(memory.neighbourhood_bytes),
        imb_kind=imbalance.kind,
        imb_amplitude=float(imbalance.amplitude),
    )


def resolve_context(record: TrainingRecord) -> RegionContext | None:
    """Region features for one training record, via the application
    and machine registries; ``None`` when the app, region or machine
    cannot be resolved (the fit counts those, it does not raise)."""
    name, _, workload = record.app.partition(".")
    try:
        app = application_by_name(name, workload or None)
        spec = machine_by_name(record.machine)
    except ValueError:
        return None
    for profile in app.regions():
        if profile.name == record.region:
            return context_from_profile(
                record.app, record.machine, record.cap_w,
                profile, spec.tdp_w,
            )
    return None


#: token -> (index, sign) memo; sha256 per token is cheap but ranking
#: hashes the same vocabulary thousands of times.
_TOKEN_CACHE: dict[tuple[int, str], tuple[int, float]] = {}


def _hash_token(token: str, dim: int) -> tuple[int, float]:
    key = (dim, token)
    cached = _TOKEN_CACHE.get(key)
    if cached is None:
        digest = hashlib.sha256(token.encode()).digest()
        index = int.from_bytes(digest[:8], "big") % dim
        sign = 1.0 if digest[8] % 2 == 0 else -1.0
        cached = (index, sign)
        _TOKEN_CACHE[key] = cached
    return cached


def _clip(value: float) -> float:
    """Finite, bounded feature value for arbitrary inputs."""
    value = float(value)
    if math.isnan(value):
        return 0.0
    return min(max(value, -_VALUE_CLIP), _VALUE_CLIP)


def _log10p(value: float) -> float:
    value = _clip(value)
    return math.log10(1.0 + max(value, 0.0))


def feature_tokens(
    ctx: RegionContext, config: OMPConfig
) -> list[tuple[str, float]]:
    """The (token, value) list hashed into one feature vector."""
    n = config.n_threads
    sched = config.schedule.value
    chunk = "default" if config.chunk is None else str(config.chunk)
    cap_eff = ctx.tdp_w if ctx.cap_w is None else ctx.cap_w
    cap_tag = "tdp" if ctx.cap_w is None else f"{ctx.cap_w:g}"
    r = ctx.region_key

    log_threads = _log10p(n)
    log_chunk = 0.0 if config.chunk is None else _log10p(config.chunk)
    log_cap = _log10p(cap_eff)
    log_bpi = _log10p(ctx.bytes_per_iter)
    imb_amp = _clip(ctx.imb_amplitude)
    compute_ns = _clip(
        ctx.serial_ns + ctx.iterations * ctx.cpu_ns_per_iter
    )
    serial_frac = (
        _clip(ctx.serial_ns) / compute_ns if compute_ns > 0.0 else 0.0
    )

    tokens: list[tuple[str, float]] = [
        ("bias", 1.0),
        # region scale + features (config-independent; they set the
        # baseline log-time the config terms modulate)
        ("log_iter", _log10p(ctx.iterations)),
        ("log_cpu", _log10p(ctx.cpu_ns_per_iter)),
        ("log_bpi", log_bpi),
        ("log_stride", _log10p(ctx.stride_bytes)),
        ("log_fp", _log10p(ctx.footprint_bytes)),
        ("log_nbh", _log10p(ctx.neighbourhood_bytes)),
        ("reuse", _clip(ctx.reuse_fraction)),
        ("imb_amp", imb_amp),
        ("serial_frac", serial_frac),
        ("log_cap", log_cap),
        (f"machine={ctx.machine}", 1.0),
        (f"imb={ctx.imb_kind}", 1.0),
        # config main effects
        (f"threads={n}", 1.0),
        (f"sched={sched}", 1.0),
        (f"chunk={chunk}", 1.0),
        ("log_threads", log_threads),
        ("log_chunk", log_chunk),
        # config x config / config x feature interactions (the
        # cross-region generalization terms)
        (f"threads={n}|sched={sched}", 1.0),
        (f"sched={sched}|chunk={chunk}", 1.0),
        (f"imb={ctx.imb_kind}|sched={sched}", 1.0),
        (f"imb={ctx.imb_kind}|sched={sched}|chunk={chunk}", 1.0),
        ("log_threads*log_cap", log_threads * log_cap),
        ("log_threads*log_bpi", log_threads * log_bpi),
        ("log_threads*imb_amp", log_threads * imb_amp),
        ("log_threads*serial_frac", log_threads * serial_frac),
        ("log_chunk*imb_amp", log_chunk * imb_amp),
        (f"sched={sched}*imb_amp", imb_amp),
        # region-identity interactions (warm-region memorization)
        (f"r={r}", 1.0),
        (f"r={r}|cap={cap_tag}", 1.0),
        (f"r={r}|threads={n}", 1.0),
        (f"r={r}|sched={sched}", 1.0),
        (f"r={r}|sched={sched}|chunk={chunk}", 1.0),
        (f"r={r}|threads={n}|sched={sched}", 1.0),
    ]
    return tokens


def featurize(
    ctx: RegionContext, config: OMPConfig, dim: int
) -> np.ndarray:
    x = np.zeros(dim)
    for token, value in feature_tokens(ctx, config):
        index, sign = _hash_token(token, dim)
        x[index] += sign * _clip(value)
    return x


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FitReport:
    """Fit-quality summary saved with (and loaded from) the model."""

    n_records: int
    n_train: int
    n_holdout: int
    n_unresolvable: int
    dim: int
    seed: int
    #: median relative time error on the deterministic holdout split
    #: (``None`` when the corpus was too small to hold anything out).
    holdout_rel_err: float | None
    train_rel_err: float | None
    usable: bool
    reason: str | None = None
    corpus_notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "n_records": self.n_records,
            "n_train": self.n_train,
            "n_holdout": self.n_holdout,
            "n_unresolvable": self.n_unresolvable,
            "dim": self.dim,
            "seed": self.seed,
            "holdout_rel_err": self.holdout_rel_err,
            "train_rel_err": self.train_rel_err,
            "usable": self.usable,
            "reason": self.reason,
            "corpus_notes": list(self.corpus_notes),
        }

    @classmethod
    def from_json(cls, blob: dict) -> "FitReport":
        return cls(
            n_records=int(blob["n_records"]),
            n_train=int(blob["n_train"]),
            n_holdout=int(blob["n_holdout"]),
            n_unresolvable=int(blob["n_unresolvable"]),
            dim=int(blob["dim"]),
            seed=int(blob["seed"]),
            holdout_rel_err=(
                None if blob["holdout_rel_err"] is None
                else float(blob["holdout_rel_err"])
            ),
            train_rel_err=(
                None if blob["train_rel_err"] is None
                else float(blob["train_rel_err"])
            ),
            usable=bool(blob["usable"]),
            reason=(
                None if blob.get("reason") is None
                else str(blob["reason"])
            ),
            corpus_notes=tuple(
                str(n) for n in blob.get("corpus_notes", [])
            ),
        )


@dataclass
class SurrogateModel:
    """Fitted predictor of ``log(time_per_call_s)``."""

    dim: int
    seed: int
    weights: np.ndarray
    report: FitReport
    feature_version: int = FEATURE_VERSION

    @property
    def usable(self) -> bool:
        return self.report.usable

    def predict_log_time(
        self, ctx: RegionContext, config: OMPConfig
    ) -> float:
        """Predicted log(seconds per call); always finite for a usable
        model, whatever the context values."""
        x = featurize(ctx, config, self.dim)
        return self._predict_matrix(x[None, :])[0]

    def _predict_matrix(self, x: np.ndarray) -> np.ndarray:
        return x @ self.weights

    def rank(self, ctx: RegionContext, space) -> list[tuple[int, ...]]:
        """Every point of ``space`` ordered by predicted objective
        (best first); ties break toward row-major position, so the
        ordering - and any top-k prefix of it - is deterministic."""
        order = list(space.iter_indices())
        from repro.core.config import config_from_point

        x = np.stack(
            [
                featurize(ctx, config_from_point(space.decode(o)), self.dim)
                for o in order
            ]
        )
        scores = self._predict_matrix(x)
        ranked = sorted(
            range(len(order)), key=lambda i: (scores[i], i)
        )
        return [order[i] for i in ranked]


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------
def _holdout_mask(n: int, seed: int) -> np.ndarray:
    """Deterministic ~1/_HOLDOUT_BUCKETS holdout selection."""
    mask = np.zeros(n, dtype=bool)
    for i in range(n):
        digest = hashlib.sha256(
            f"surrogate-holdout|{seed}|{i}".encode()
        ).digest()
        mask[i] = digest[0] % _HOLDOUT_BUCKETS == 0
    # never hold out everything
    if mask.all():
        mask[:] = False
    return mask


def _rel_err(pred: np.ndarray, true: np.ndarray) -> float | None:
    """Median relative time error from log-space predictions."""
    if len(pred) == 0:
        return None
    delta = np.clip(pred - true, -50.0, 50.0)
    return float(np.median(np.abs(np.expm1(delta))))


def fit_surrogate(
    records: list[TrainingRecord],
    *,
    dim: int = DEFAULT_DIM,
    seed: int = 0,
    ridge: float = DEFAULT_RIDGE,
    corpus_stats: CorpusStats | None = None,
    faults: FaultInjector | None = None,
) -> SurrogateModel:
    """Fit the surrogate on a folded corpus.

    Never raises for data problems: an empty/unresolvable corpus or a
    non-finite solve (including the injected ``surrogate.fit`` fault)
    produces a model whose report is marked unusable with a typed
    reason - the strategy layer then falls back to Nelder-Mead.
    """
    corpus_notes = tuple(corpus_stats.notes) if corpus_stats else ()
    rows: list[np.ndarray] = []
    targets: list[float] = []
    unresolvable = 0
    for record in records:
        ctx = resolve_context(record)
        if ctx is None or not record.time_s > 0.0:
            unresolvable += 1
            continue
        rows.append(featurize(ctx, record.config(), dim))
        targets.append(math.log(record.time_s))

    def unusable(reason: str, n_train: int = 0, n_holdout: int = 0):
        report = FitReport(
            n_records=len(records),
            n_train=n_train,
            n_holdout=n_holdout,
            n_unresolvable=unresolvable,
            dim=dim,
            seed=seed,
            holdout_rel_err=None,
            train_rel_err=None,
            usable=False,
            reason=reason,
            corpus_notes=corpus_notes,
        )
        return SurrogateModel(
            dim=dim, seed=seed, weights=np.zeros(dim), report=report
        )

    if not rows:
        return unusable(
            "training corpus is empty after skipping "
            f"{unresolvable} unresolvable record(s)"
        )

    x = np.stack(rows)
    y = np.asarray(targets)
    holdout = _holdout_mask(len(rows), seed)
    x_train, y_train = x[~holdout], y[~holdout]
    x_hold, y_hold = x[holdout], y[holdout]

    gram = x_train.T @ x_train + ridge * np.eye(dim)
    try:
        weights = np.linalg.solve(gram, x_train.T @ y_train)
    except np.linalg.LinAlgError:
        return unusable(
            "ridge solve failed (singular feature matrix)",
            n_train=len(y_train),
            n_holdout=len(y_hold),
        )

    if faults is not None:
        spec = faults.draw("surrogate.fit")
        if spec is not None:
            # the injected numerical blow-up: poison the solve output
            # exactly as a degenerate corpus would.
            weights = np.full(dim, np.nan)

    if not np.all(np.isfinite(weights)):
        return unusable(
            "fit produced non-finite weights",
            n_train=len(y_train),
            n_holdout=len(y_hold),
        )

    model = SurrogateModel(
        dim=dim,
        seed=seed,
        weights=weights,
        report=FitReport(  # placeholder; replaced below
            n_records=len(records), n_train=0, n_holdout=0,
            n_unresolvable=0, dim=dim, seed=seed,
            holdout_rel_err=None, train_rel_err=None, usable=True,
        ),
    )
    train_err = _rel_err(model._predict_matrix(x_train), y_train)
    hold_err = _rel_err(model._predict_matrix(x_hold), y_hold)
    model.report = FitReport(
        n_records=len(records),
        n_train=len(y_train),
        n_holdout=len(y_hold),
        n_unresolvable=unresolvable,
        dim=dim,
        seed=seed,
        holdout_rel_err=hold_err,
        train_rel_err=train_err,
        usable=True,
        reason=None,
        corpus_notes=corpus_notes,
    )
    return model


# ---------------------------------------------------------------------------
# persistence (byte-deterministic: floats round-trip via repr)
# ---------------------------------------------------------------------------
def save_model(model: SurrogateModel, path: str | Path) -> Path:
    blob: dict = {
        "schema": MODEL_SCHEMA_VERSION,
        "feature_version": model.feature_version,
        "dim": model.dim,
        "seed": model.seed,
        "weights": [float(w) for w in model.weights],
        "report": model.report.to_json(),
    }
    return atomic_write_text(path, json.dumps(blob, indent=2) + "\n")


def load_model(path: str | Path) -> SurrogateModel:
    """Inverse of :func:`save_model`.

    Raises :class:`SurrogateError` (naming the path) on a missing or
    corrupt file or a schema/feature-version mismatch; callers on the
    degradation path catch it and fall back.
    """
    try:
        blob = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SurrogateError(
            f"cannot read surrogate model {path}: {exc}"
        ) from exc
    if not isinstance(blob, dict):
        raise SurrogateError(
            f"surrogate model {path} is not a JSON object"
        )
    if blob.get("schema") != MODEL_SCHEMA_VERSION:
        raise SurrogateError(
            f"surrogate model {path} has unsupported schema "
            f"{blob.get('schema')!r}"
        )
    if blob.get("feature_version") != FEATURE_VERSION:
        raise SurrogateError(
            f"surrogate model {path} was hashed under feature version "
            f"{blob.get('feature_version')!r}, this build expects "
            f"{FEATURE_VERSION}"
        )
    try:
        dim = int(blob["dim"])
        weights = np.asarray([float(w) for w in blob["weights"]])
        if weights.shape != (dim,):
            raise ValueError(
                f"weight vector has shape {weights.shape}, "
                f"expected ({dim},)"
            )
        report = FitReport.from_json(blob["report"])
        return SurrogateModel(
            dim=dim,
            seed=int(blob["seed"]),
            weights=weights,
            report=report,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SurrogateError(
            f"surrogate model {path} is corrupt: {exc}"
        ) from exc
