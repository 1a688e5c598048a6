"""Runner glue: ranked probe orders and the fallback contract.

This module is the seam between the learned model and the tuning
machinery.  It turns a fitted :class:`~repro.surrogate.model.
SurrogateModel` into the per-region probe orders the ``surrogate``
search strategy walks, and it owns the *fallback contract*:

* the model file is unreadable / wrong schema    -> fall back;
* the fit is marked unusable (empty corpus, non-finite weights,
  including the injected ``surrogate.fit`` fault) -> fall back;
* the held-out fit error exceeds ``max_fit_error`` -> fall back.

Falling back means the offline tuning run searches with plain
Nelder-Mead instead - the *same* code path a ``--tuner nelder-mead``
run takes, so the only difference in the result is one degradation
note built by :func:`fallback_note`.  The differential test strips
those notes with :func:`strip_surrogate_notes` and holds the rest
byte-identical.

Probe orders preserve **row-major space order** over the selected
top-k subset (see :class:`~repro.harmony.surrogate.
SurrogateRankedSearch` for why): ranking chooses *which* points get
measured, never the order they are measured in.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.core.config import search_space_for
from repro.harmony.space import SearchSpace
from repro.machine.spec import MachineSpec
from repro.surrogate.model import (
    DEFAULT_DIM,
    FitReport,
    SurrogateError,
    SurrogateModel,
    context_from_profile,
    load_model,
)

if TYPE_CHECKING:
    from repro.workloads.base import Application

#: candidates measured per region when the model is trusted.  12 of
#: the 162-point Table I space is well under a third of what a
#: Nelder-Mead search spends on SP-class regions.
DEFAULT_TOP_K = 12

#: held-out median relative time error above which the ranking is not
#: trusted and tuning falls back to Nelder-Mead.
DEFAULT_MAX_FIT_ERROR = 0.35

#: every surrogate degradation note starts with this, so differential
#: tests (and readers) can separate them from measurement notes.
FALLBACK_NOTE_PREFIX = "surrogate: "


def fallback_note(reason: str) -> str:
    """The degradation note recorded when surrogate tuning falls back."""
    return (
        f"{FALLBACK_NOTE_PREFIX}{reason}; "
        "tuning fell back to nelder-mead"
    )


def strip_surrogate_notes(notes: Iterable[str]) -> tuple[str, ...]:
    """Degradation notes minus the surrogate-fallback ones - what a
    plain Nelder-Mead run of the same experiment would have recorded."""
    return tuple(
        n for n in notes if not n.startswith(FALLBACK_NOTE_PREFIX)
    )


def _unusable_model(reason: str) -> SurrogateModel:
    """A placeholder model carrying only an unusable report, so a
    missing/corrupt model file flows through the same fallback path as
    a failed fit."""
    return SurrogateModel(
        dim=DEFAULT_DIM,
        seed=0,
        weights=np.zeros(DEFAULT_DIM),
        report=FitReport(
            n_records=0,
            n_train=0,
            n_holdout=0,
            n_unresolvable=0,
            dim=DEFAULT_DIM,
            seed=0,
            holdout_rel_err=None,
            train_rel_err=None,
            usable=False,
            reason=reason,
        ),
    )


@dataclass(frozen=True)
class SurrogateTuning:
    """Everything the runner needs to tune with the surrogate."""

    model: SurrogateModel
    top_k: int = DEFAULT_TOP_K
    max_fit_error: float = DEFAULT_MAX_FIT_ERROR

    @classmethod
    def load(
        cls,
        path: str | Path,
        *,
        top_k: int = DEFAULT_TOP_K,
        max_fit_error: float = DEFAULT_MAX_FIT_ERROR,
    ) -> "SurrogateTuning":
        """Load a saved model; an unreadable or incompatible file
        produces a tuning whose :meth:`fallback_reason` reports it
        (degradation, not a crash)."""
        try:
            model = load_model(path)
        except SurrogateError as exc:
            model = _unusable_model(str(exc))
        return cls(
            model=model, top_k=top_k, max_fit_error=max_fit_error
        )

    def fallback_reason(self) -> str | None:
        """Why tuning must fall back to Nelder-Mead; ``None`` when the
        model's ranking can be trusted."""
        report = self.model.report
        if not report.usable:
            return (
                "model unusable "
                f"({report.reason or 'no reason recorded'})"
            )
        err = report.holdout_rel_err
        if err is None:
            return "fit has no held-out records to validate against"
        if err > self.max_fit_error:
            return (
                f"held-out fit error {err:.3f} exceeds the trust "
                f"threshold {self.max_fit_error:g}"
            )
        return None

    def orders_for(
        self,
        app: "Application",
        spec: MachineSpec,
        cap_w: float | None,
        space: SearchSpace | None = None,
    ) -> dict[str, tuple[tuple[int, ...], ...]]:
        return surrogate_orders(
            self.model,
            app,
            spec,
            cap_w,
            space=space,
            top_k=self.top_k,
        )


def surrogate_orders(
    model: SurrogateModel,
    app: "Application",
    spec: MachineSpec,
    cap_w: float | None,
    *,
    space: SearchSpace | None = None,
    top_k: int = DEFAULT_TOP_K,
) -> dict[str, tuple[tuple[int, ...], ...]]:
    """Per-region probe orders: the model-selected top-k subset of
    ``space``, in row-major space order.

    With ``top_k >= space.size`` every order is the full row-major
    walk - exactly :class:`~repro.harmony.exhaustive.ExhaustiveSearch`.
    """
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    space = space if space is not None else search_space_for(spec)
    row_major = list(space.iter_indices())
    orders: dict[str, tuple[tuple[int, ...], ...]] = {}
    for profile in app.regions():
        ctx = context_from_profile(
            app.label, spec.name, cap_w, profile, spec.tdp_w
        )
        ranked = model.rank(ctx, space)
        selected = set(ranked[: min(top_k, len(ranked))])
        orders[profile.name] = tuple(
            indices for indices in row_major if indices in selected
        )
    return orders
