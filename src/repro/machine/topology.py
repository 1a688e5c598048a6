"""Thread-to-core placement.

The OpenMP team is placed the way a throughput-oriented runtime binds
threads: spread across sockets round-robin, fill distinct physical
cores first, and only then co-schedule SMT siblings.  Placement
determines (a) how many cores are active per socket (which feeds the
power/frequency model) and (b) each thread's SMT throughput factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from repro.machine.spec import MachineSpec


@dataclass(frozen=True)
class ThreadSlot:
    """Where one OpenMP thread lands: socket, core within the socket,
    and its hardware-thread index on that core."""

    thread_id: int
    socket: int
    core: int          # core index within the socket
    smt_slot: int      # 0 = first hw thread on the core


@dataclass(frozen=True)
class Placement:
    """Full placement of an OpenMP team on a machine."""

    spec: MachineSpec
    slots: tuple[ThreadSlot, ...]

    @property
    def n_threads(self) -> int:
        return len(self.slots)

    # Team context, derived once per placement (``Topology.place``
    # caches one placement per team size): the engine reads it on every
    # region evaluation.
    @cached_property
    def cores(self) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
        """``(socket, core, thread ids)`` of each physical core the team
        occupies, in order of first occupancy."""
        tids: dict[tuple[int, int], list[int]] = {}
        for slot in self.slots:
            tids.setdefault((slot.socket, slot.core), []).append(
                slot.thread_id
            )
        return tuple(
            (socket, core, tuple(ids))
            for (socket, core), ids in tids.items()
        )

    @cached_property
    def active_cores_per_socket(self) -> tuple[int, ...]:
        counts = [0] * self.spec.sockets
        for socket, _core, _tids in self.cores:
            counts[socket] += 1
        return tuple(counts)

    @cached_property
    def threads_per_socket(self) -> tuple[int, ...]:
        counts = [0] * self.spec.sockets
        for slot in self.slots:
            counts[slot.socket] += 1
        return tuple(counts)

    @cached_property
    def _siblings(self) -> dict[tuple[int, int], int]:
        return {
            (socket, core): len(tids) for socket, core, tids in self.cores
        }

    def siblings_active(self, slot: ThreadSlot) -> int:
        """Number of team threads sharing ``slot``'s physical core."""
        return self._siblings.get((slot.socket, slot.core), 0)

    @cached_property
    def _throughput(self) -> tuple[float, ...]:
        return tuple(
            self.spec.smt_per_thread_throughput(self.siblings_active(s))
            for s in self.slots
        )

    def per_thread_throughput(self) -> tuple[float, ...]:
        """SMT throughput factor for each thread (1.0 = full core)."""
        return self._throughput


class Topology:
    """Places OpenMP teams onto a :class:`MachineSpec`."""

    def __init__(self, spec: MachineSpec) -> None:
        self.spec = spec
        self._place_cached = lru_cache(maxsize=None)(self._place)

    def place(self, n_threads: int) -> Placement:
        """Place ``n_threads`` on the machine (scatter across sockets,
        physical cores before SMT siblings).

        Raises :class:`ValueError` if the team exceeds the machine's
        hardware-thread count — the simulator does not model OS
        oversubscription.
        """
        if not 1 <= n_threads <= self.spec.total_hw_threads:
            raise ValueError(
                f"n_threads must be in [1, {self.spec.total_hw_threads}] "
                f"on {self.spec.name}, got {n_threads}"
            )
        return self._place_cached(n_threads)

    def _place(self, n_threads: int) -> Placement:
        spec = self.spec
        slots: list[ThreadSlot] = []
        # Enumerate hardware-thread slots in scatter order: smt slot 0 on
        # (socket0,core0), (socket1,core0), (socket0,core1), ... then smt
        # slot 1 in the same core order, etc.
        tid = 0
        for smt_slot in range(spec.smt_per_core):
            for core in range(spec.cores_per_socket):
                for socket in range(spec.sockets):
                    if tid >= n_threads:
                        return Placement(spec=spec, slots=tuple(slots))
                    slots.append(
                        ThreadSlot(
                            thread_id=tid,
                            socket=socket,
                            core=core,
                            smt_slot=smt_slot,
                        )
                    )
                    tid += 1
        return Placement(spec=spec, slots=tuple(slots))
