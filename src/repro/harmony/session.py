"""Tuning sessions: the ask/tell protocol between APEX and a strategy.

A session mirrors Active Harmony's client workflow: the client fetches
the next candidate configuration (``suggest``), runs with it, and
reports the measured objective (``report``).  After the strategy
converges, ``suggest`` returns the best point forever after - exactly
the behaviour ARCS needs ("the policy sets the number of threads,
schedule, and chunk size to the next value requested by the tuning
session, or, if tuning has converged, to the converged values").

Sessions are also the trust boundary between measurement and search:
one NaN, infinity or wildly-spiked timing fed into ``tell`` corrupts a
Nelder-Mead simplex for the rest of the run.  ``report`` therefore
validates every objective value.  Without a :class:`MeasurementGuard`
an invalid value raises :class:`InvalidMeasurementError`; with a guard
(how ARCS builds its sessions) invalid and outlier values are
*rejected* instead - the candidate stays outstanding so the next
execution re-measures it - and sustained divergence restarts the
simplex from scratch, then fails the session so the controller can
fall back to the default configuration.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Callable
from dataclasses import dataclass

from repro.harmony.space import SearchSpace
from repro.telemetry.bus import bus


class InvalidMeasurementError(ValueError):
    """A reported objective value was NaN, infinite or negative."""

    def __init__(self, value: float) -> None:
        self.value = value
        super().__init__(
            f"objective must be a finite non-negative number, got "
            f"{value!r}"
        )


@dataclass(frozen=True)
class MeasurementGuard:
    """Acceptance policy for reported objective values.

    A value is rejected when it is non-finite/negative, or - once
    ``warmup`` values have been accepted - larger than
    ``outlier_factor`` times the largest value accepted so far (the
    legitimate spread across OpenMP configurations is well under that;
    an injected timer spike is orders of magnitude beyond it).  After
    ``max_rejects`` consecutive rejections the session restarts its
    strategy (the simplex has diverged from reality), and after
    ``max_restarts`` restarts it gives up and marks itself failed.
    """

    outlier_factor: float = 50.0
    warmup: int = 3
    max_rejects: int = 3
    max_restarts: int = 2

    def __post_init__(self) -> None:
        if self.outlier_factor <= 1.0:
            raise ValueError(
                f"outlier_factor must be > 1, got {self.outlier_factor}"
            )
        if self.warmup < 1:
            raise ValueError(f"warmup must be >= 1, got {self.warmup}")
        if self.max_rejects < 1:
            raise ValueError(
                f"max_rejects must be >= 1, got {self.max_rejects}"
            )
        if self.max_restarts < 0:
            raise ValueError(
                f"max_restarts must be >= 0, got {self.max_restarts}"
            )

    def is_acceptable(
        self, value: float, accepted: list[float]
    ) -> bool:
        if not math.isfinite(value) or value < 0:
            return False
        if len(accepted) < self.warmup:
            return True
        ceiling = max(accepted)
        if ceiling <= 0:
            return True
        return value <= self.outlier_factor * ceiling


class SearchStrategy(ABC):
    """Strategy interface over index vectors."""

    def __init__(self, space: SearchSpace) -> None:
        self.space = space

    @abstractmethod
    def ask(self) -> tuple[int, ...] | None:
        """Next index vector to evaluate, or ``None`` once converged."""

    @abstractmethod
    def tell(self, indices: tuple[int, ...], value: float) -> None:
        """Report the objective for a previously asked vector."""

    def probe_preview(self) -> tuple[tuple[int, ...], ...]:
        """Index vectors the strategy expects to ask for soon.

        A *hint* for batched prefetching (see ``repro.openmp.batch``),
        never a promise: the strategy may ask for other points, fewer
        points, or the same points in a different order, and callers
        must not change behaviour based on the preview.  The base
        implementation previews nothing.
        """
        return ()

    @property
    @abstractmethod
    def converged(self) -> bool: ...

    @property
    @abstractmethod
    def best(self) -> tuple[tuple[int, ...], float] | None:
        """Best (indices, value) seen so far, or None before any tell."""


@dataclass
class SessionStats:
    suggestions: int = 0
    reports: int = 0
    converged_at_report: int | None = None
    rejected: int = 0
    restarts: int = 0


class TuningSession:
    """One per-region tuning session (ARCS keeps one per OpenMP region).

    ``guard`` enables measurement validation with re-measure semantics
    (see :class:`MeasurementGuard`); ``strategy_factory`` supplies a
    fresh strategy for divergence restarts (without one, a divergent
    session fails immediately instead of restarting).
    """

    def __init__(
        self,
        space: SearchSpace,
        strategy: SearchStrategy,
        guard: MeasurementGuard | None = None,
        strategy_factory: Callable[[], SearchStrategy] | None = None,
        name: str | None = None,
    ) -> None:
        self._check_space(space, strategy)
        self.space = space
        self.strategy = strategy
        self.guard = guard
        self.strategy_factory = strategy_factory
        #: label used in telemetry events (ARCS passes the region key).
        self.name = name
        self.stats = SessionStats()
        #: objectives accepted while searching (pre-convergence) - the
        #: raw material of the Section III-C search-overhead estimate.
        self.search_values: list[float] = []
        self._outstanding: tuple[int, ...] | None = None
        self._consecutive_rejects = 0
        self.failure_reason: str | None = None
        #: best accepted (indices, value) across the whole session -
        #: survives strategy restarts, which discard the strategy's own
        #: bookkeeping but not the measurements already trusted.
        self._best: tuple[tuple[int, ...], float] | None = None

    @staticmethod
    def _check_space(
        space: SearchSpace, strategy: SearchStrategy
    ) -> None:
        if strategy.space is not space:
            # identical content is fine, identity just the common case
            if strategy.space != space:
                raise ValueError(
                    "strategy was built for a different search space"
                )

    # ------------------------------------------------------------------
    @property
    def converged(self) -> bool:
        return self.strategy.converged

    @property
    def failed(self) -> bool:
        """True once the session has given up (measurements diverged
        beyond ``guard.max_restarts`` simplex restarts); the caller
        should fall back to a safe configuration."""
        return self.failure_reason is not None

    def _session_best(self) -> tuple[tuple[int, ...], float] | None:
        if self._best is not None:
            return self._best
        return self.strategy.best

    def best_point(self) -> dict[str, object] | None:
        best = self._session_best()
        if best is None:
            return None
        return self.space.decode(best[0])

    def best_value(self) -> float | None:
        best = self._session_best()
        return None if best is None else best[1]

    def probe_preview(self) -> tuple[tuple[int, ...], ...]:
        """Clamped index vectors the session is likely to suggest soon
        (the strategy's preview) - the batched evaluator's prefetch
        hint.  Empty once converged or failed."""
        if self.failed or self.strategy.converged:
            return ()
        return tuple(
            self.space.clamp(p) for p in self.strategy.probe_preview()
        )

    # ------------------------------------------------------------------
    def suggest(self) -> tuple[int, ...]:
        """Index vector of the configuration to use for the next
        execution (``space.decode`` gives its parameter values).

        While searching this is the strategy's next candidate; once
        converged it is the best known point.  A candidate stays
        outstanding until :meth:`report` is called.
        """
        self.stats.suggestions += 1
        if self._outstanding is not None:
            return self._outstanding
        if not self.strategy.converged and not self.failed:
            indices = self.strategy.ask()
            if indices is not None:
                self._outstanding = self.space.clamp(indices)
                return self._outstanding
        best = self._session_best()
        if best is None:
            if self.failed:
                raise RuntimeError(
                    f"tuning session failed without a trusted best "
                    f"point: {self.failure_reason}"
                )
            raise RuntimeError(
                "strategy converged without evaluating any point"
            )
        return best[0]

    def report(self, value: float) -> bool:
        """Report the objective for the outstanding candidate; returns
        True if the value was accepted into the strategy.

        Reports made after convergence (the region keeps executing with
        the converged config) are recorded in the stats but do not feed
        the strategy.  A non-finite or negative value raises
        :class:`InvalidMeasurementError` unless a guard is installed,
        in which case it is rejected like any outlier: the candidate
        stays outstanding and is re-measured on the next execution.
        """
        valid = math.isfinite(value) and value >= 0
        if not valid and self.guard is None:
            raise InvalidMeasurementError(value)
        self.stats.reports += 1
        if self._outstanding is None:
            return valid
        if self.guard is not None and not self.guard.is_acceptable(
            value, self.search_values
        ):
            self._reject(value)
            return False
        self._consecutive_rejects = 0
        self.search_values.append(value)
        if self._best is None or value < self._best[1]:
            self._best = (self._outstanding, value)
        bus().count("harmony.tells")
        self.strategy.tell(self._outstanding, value)
        self._outstanding = None
        if self.strategy.converged and (
            self.stats.converged_at_report is None
        ):
            self.stats.converged_at_report = self.stats.reports
        return True

    # ------------------------------------------------------------------
    def _reject(self, value: float) -> None:
        """Handle an untrusted measurement: re-measure the outstanding
        candidate, restarting the strategy (then failing the session)
        if rejections keep coming."""
        assert self.guard is not None
        self.stats.rejected += 1
        self._consecutive_rejects += 1
        bus().emit(
            "harmony.reject",
            region=self.name,
            value=value,
            consecutive=self._consecutive_rejects,
        )
        if self._consecutive_rejects <= self.guard.max_rejects:
            return  # keep the candidate outstanding -> re-measure
        if (
            self.strategy_factory is not None
            and self.stats.restarts < self.guard.max_restarts
        ):
            self.stats.restarts += 1
            self._consecutive_rejects = 0
            strategy = self.strategy_factory()
            self._check_space(self.space, strategy)
            self.strategy = strategy
            self._outstanding = None
            bus().emit(
                "harmony.restart",
                region=self.name,
                restarts=self.stats.restarts,
            )
            return
        self.failure_reason = (
            f"measurements diverged: {self.stats.rejected} rejected "
            f"value(s) (last {value!r}) after {self.stats.restarts} "
            "simplex restart(s)"
        )
        self._outstanding = None
        bus().emit(
            "harmony.failed",
            region=self.name,
            reason=self.failure_reason,
        )
