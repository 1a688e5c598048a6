"""Strategy factory - the front door APEX/ARCS uses to create searches."""

from __future__ import annotations

from repro.harmony.exhaustive import ExhaustiveSearch
from repro.harmony.neldermead import NelderMeadSearch
from repro.harmony.pro import ParallelRankOrderSearch
from repro.harmony.random_search import RandomSearch
from repro.harmony.session import SearchStrategy
from repro.harmony.space import SearchSpace

#: the strategy names :func:`make_strategy` builds.
STRATEGIES = ("exhaustive", "nelder-mead", "pro", "random")


def make_strategy(
    name: str,
    space: SearchSpace,
    max_evals: int = 48,
    seed: int = 0,
    start: tuple[int, ...] | None = None,
) -> SearchStrategy:
    """Build a search strategy by name.

    ``start`` seeds simplex strategies with an initial point (ARCS
    starts near the default configuration); exhaustive and random
    ignore it.
    """
    key = name.lower()
    if key == "exhaustive":
        return ExhaustiveSearch(space)
    if key in ("nelder-mead", "neldermead", "nm"):
        return NelderMeadSearch(space, max_evals=max_evals, start=start)
    if key == "pro":
        return ParallelRankOrderSearch(
            space, max_evals=max_evals, start=start
        )
    if key == "random":
        return RandomSearch(space, max_evals=max_evals, seed=seed)
    raise ValueError(f"unknown strategy {name!r}; known: {STRATEGIES}")
