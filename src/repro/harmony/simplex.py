"""Shared machinery for simplex-style searches (Nelder-Mead, PRO).

The strategies run as generators: they ``yield`` index vectors that
need a real measurement and receive the objective via ``send``.  A
point cache short-circuits re-evaluations of already-measured points
(the discrete lattice makes revisits common near convergence), so a
cached revisit costs zero region executions.

Replay contract (relied on by session checkpointing): a strategy's
entire state is a deterministic function of its constructor arguments
and the sequence of ``tell`` values it has received.  Replaying the
same tells against a freshly-constructed strategy reproduces the same
``ask`` sequence bit-for-bit - there is no hidden wall-clock or global
RNG state.  Subclasses must preserve this.
"""

from __future__ import annotations

from abc import abstractmethod
from collections.abc import Generator

import numpy as np

from repro.harmony.session import SearchStrategy
from repro.harmony.space import SearchSpace
from repro.telemetry.bus import bus
from repro.util.validation import require_positive


class BudgetExhausted(Exception):
    """Raised inside the algorithm generator when the evaluation budget
    is spent; terminates the search gracefully."""


EvalGen = Generator[tuple[int, ...], float, float]


class SimplexSearchBase(SearchStrategy):
    """Cache + generator plumbing for simplex searches on the lattice."""

    def __init__(
        self,
        space: SearchSpace,
        max_evals: int = 48,
        start: tuple[int, ...] | None = None,
    ) -> None:
        super().__init__(space)
        require_positive("max_evals", max_evals)
        self.max_evals = max_evals
        self._cache: dict[tuple[int, ...], float] = {}
        self._evals = 0
        self._best: tuple[tuple[int, ...], float] | None = None
        self._pending: tuple[int, ...] | None = None
        self._done = False
        self._started = False
        if start is not None:
            start = space.clamp(start)
        self._start = start
        self._gen = self._driver()

    # ------------------------------------------------------------------
    # SearchStrategy interface
    # ------------------------------------------------------------------
    def ask(self) -> tuple[int, ...] | None:
        if self._done:
            return None
        if self._pending is not None:
            return self._pending
        if not self._started:
            self._started = True
            try:
                self._pending = next(self._gen)
            except StopIteration:
                self._done = True
                return None
            return self._pending
        raise RuntimeError(
            "ask() called with no outstanding point and no pending tell; "
            "call tell() first"
        )

    def tell(self, indices: tuple[int, ...], value: float) -> None:
        if self._pending is None or indices != self._pending:
            raise ValueError(
                f"tell({indices}) does not match the outstanding ask "
                f"({self._pending})"
            )
        self._pending = None
        try:
            self._pending = self._gen.send(value)
        except StopIteration:
            self._done = True

    @property
    def converged(self) -> bool:
        return self._done

    @property
    def best(self) -> tuple[tuple[int, ...], float] | None:
        return self._best

    def probe_preview(self) -> tuple[tuple[int, ...], ...]:
        """Before the first ask: the whole initial simplex (its vertex
        evaluation order is fixed), deduplicated after lattice
        rounding.  Mid-search the next move depends on unreported
        measurements, so only the outstanding point is previewed."""
        if self._done:
            return ()
        if self._started:
            return () if self._pending is None else (self._pending,)
        preview: list[tuple[int, ...]] = []
        seen: set[tuple[int, ...]] = set()
        for v in self._initial_simplex(self._initial_vertex_count()):
            key = self._round(v)
            if key not in seen:
                seen.add(key)
                preview.append(key)
        return tuple(preview)

    def _initial_vertex_count(self) -> int:
        """Vertices in the initial simplex; subclasses override."""
        return self.space.dimensions + 1

    # ------------------------------------------------------------------
    # helpers for subclasses
    # ------------------------------------------------------------------
    def _round(self, x: np.ndarray) -> tuple[int, ...]:
        return self.space.clamp(
            tuple(int(round(v)) for v in np.asarray(x, dtype=float))
        )

    def _evaluate(self, x: np.ndarray) -> EvalGen:
        """Measure the lattice point nearest ``x`` (cached)."""
        key = self._round(x)
        if key in self._cache:
            bus().count("simplex.cache_hits")
            return self._cache[key]
        if self._evals >= self.max_evals:
            raise BudgetExhausted
        self._evals += 1
        bus().count("simplex.evals")
        value = yield key
        self._cache[key] = value
        if self._best is None or value < self._best[1]:
            self._best = (key, value)
        return value

    def _initial_simplex(self, n_vertices: int) -> list[np.ndarray]:
        """Axis-aligned simplex around the start point with steps of
        roughly a third of each dimension's range."""
        cards = [p.cardinality for p in self.space.parameters]
        if self._start is not None:
            x0 = np.array(self._start, dtype=float)
        else:
            x0 = np.array([(c - 1) / 2.0 for c in cards])
        vertices = [x0]
        d = self.space.dimensions
        for i in range(n_vertices - 1):
            dim = i % d
            step = max(1.0, (cards[dim] - 1) / 3.0)
            v = x0.copy()
            # alternate directions, reflect if out of range
            direction = 1.0 if (i // d) % 2 == 0 else -1.0
            v[dim] += direction * step
            if v[dim] > cards[dim] - 1 or v[dim] < 0:
                v[dim] = x0[dim] - direction * step
            vertices.append(np.clip(v, 0, np.array(cards) - 1))
        return vertices

    def _simplex_collapsed(self, vertices: list[np.ndarray]) -> bool:
        keys = {self._round(v) for v in vertices}
        return len(keys) == 1

    def _driver(self) -> Generator[tuple[int, ...], float, None]:
        try:
            yield from self._algorithm()
        except BudgetExhausted:
            return

    @abstractmethod
    def _algorithm(self) -> Generator[tuple[int, ...], float, None]:
        """The search itself; use ``yield from self._evaluate(x)``."""
