"""APEX timers.

A timer is identified by a *task identifier* - here the OpenMP region
name, matching how ARCS keys tuning sessions ("When a timer is started
for a parallel region which has not been previously encountered, the
policy starts an Active Harmony tuning session for that parallel
region").  Timers nest per identifier is not needed for parallel
regions (they do not recurse), so one outstanding start per name is
enforced.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class TimerRegistry:
    """Tracks running timers (their start times) and whether a name was
    seen before."""

    _running: dict[str, float] = field(default_factory=dict)
    _seen: set[str] = field(default_factory=set)
    _starts: int = 0

    def start(self, name: str, now_s: float) -> bool:
        """Start a timer; returns whether ``name`` is seen the first
        time."""
        if name in self._running:
            raise RuntimeError(f"timer {name!r} is already running")
        first = name not in self._seen
        self._seen.add(name)
        self._starts += 1
        self._running[name] = now_s
        return first

    def stop(self, name: str, now_s: float) -> float:
        """Stop a timer and return its elapsed seconds."""
        try:
            start_s = self._running.pop(name)
        except KeyError:
            raise RuntimeError(f"timer {name!r} is not running") from None
        return now_s - start_s

    def is_running(self, name: str) -> bool:
        return name in self._running

    @property
    def total_starts(self) -> int:
        return self._starts

    def seen(self) -> frozenset[str]:
        return frozenset(self._seen)
