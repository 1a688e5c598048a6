"""APEX profiles: accumulated statistics per timer / counter name."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class TimerStats:
    """Streaming statistics for one timer name."""

    name: str
    calls: int = 0
    total_s: float = 0.0
    min_s: float = float("inf")
    max_s: float = 0.0
    last_s: float = 0.0

    def observe(self, elapsed_s: float) -> None:
        if elapsed_s < 0:
            raise ValueError(f"elapsed_s must be >= 0, got {elapsed_s}")
        self.calls += 1
        self.total_s += elapsed_s
        self.min_s = min(self.min_s, elapsed_s)
        self.max_s = max(self.max_s, elapsed_s)
        self.last_s = elapsed_s

    @property
    def mean_s(self) -> float:
        return self.total_s / self.calls if self.calls else 0.0


@dataclass
class ApexProfile:
    """All timer statistics for one APEX instance - the data the ARCS
    policy queries ("The rules can ... request profile values from any
    measurement collected by APEX")."""

    timers: dict[str, TimerStats] = field(default_factory=dict)

    def observe(self, name: str, elapsed_s: float) -> None:
        stats = self.timers.get(name)
        if stats is None:
            stats = TimerStats(name=name)
            self.timers[name] = stats
        stats.observe(elapsed_s)

    def stats(self, name: str) -> TimerStats:
        try:
            return self.timers[name]
        except KeyError:
            raise KeyError(f"no profile for timer {name!r}") from None

    def names(self) -> list[str]:
        return sorted(self.timers)

    def top_by_total(self, n: int) -> list[TimerStats]:
        """The ``n`` most time-consuming timers (Figure 9's top-5)."""
        return sorted(
            self.timers.values(), key=lambda s: s.total_s, reverse=True
        )[:n]
