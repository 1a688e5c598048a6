"""Execution records produced by the simulator.

A :class:`RegionExecutionRecord` carries everything the paper measures
per region execution: wall time, per-thread compute/barrier split (the
OMP_BARRIER metric of Figures 3/6/10), cache miss rates (L1/L2/L3),
package energy, and the operating frequency chosen by RAPL.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.openmp.types import OMPConfig


@dataclass(frozen=True)
class RegionExecutionRecord:
    """Result of one execution of one parallel region."""

    region_name: str
    config: OMPConfig
    time_s: float                      # wall time of the region
    loop_time_s: float                 # max per-thread useful loop time
    serial_time_s: float               # serial prologue
    fork_join_s: float                 # team fork + join + barrier base
    barrier_wait_total_s: float        # sum of per-thread barrier waits
    barrier_wait_max_s: float
    thread_busy_s: tuple[float, ...]   # per-thread useful time
    energy_j: float                    # node package energy (all sockets)
    avg_power_w: float
    frequencies_ghz: tuple[float, ...]
    l1_miss_rate: float
    l2_miss_rate: float
    l3_miss_rate: float
    dram_bytes: float
    dispatch_overhead_s: float         # dynamic/guided dequeue cost (max thread)
    dram_energy_j: float = 0.0         # DRAM-domain energy (future work)

    def __post_init__(self) -> None:
        if self.time_s < 0:
            raise ValueError(f"time_s must be >= 0, got {self.time_s}")
        if self.energy_j < 0:
            raise ValueError(f"energy_j must be >= 0, got {self.energy_j}")

    def scaled(self, factor: float) -> RegionExecutionRecord:
        """This record with run-to-run noise ``factor`` applied to its
        times and energies (serial prologue and fork/join stay put).

        Built once per noisy region invocation, so it copies the field
        dict instead of running the frozen ``__init__`` and
        ``__post_init__``: ``factor >= 1`` keeps both invariants.
        """
        noisy = object.__new__(RegionExecutionRecord)
        fields = noisy.__dict__
        fields.update(self.__dict__)
        fields["time_s"] = self.time_s * factor
        fields["loop_time_s"] = self.loop_time_s * factor
        fields["barrier_wait_total_s"] = self.barrier_wait_total_s * factor
        fields["barrier_wait_max_s"] = self.barrier_wait_max_s * factor
        fields["thread_busy_s"] = tuple(
            [t * factor for t in self.thread_busy_s]
        )
        fields["energy_j"] = self.energy_j * factor
        fields["dram_energy_j"] = self.dram_energy_j * factor
        return noisy

    @property
    def n_threads(self) -> int:
        return self.config.n_threads

    @property
    def barrier_fraction(self) -> float:
        """Fraction of aggregate thread time spent waiting at the
        barrier - the paper's load-balance symptom."""
        total = self.time_s * self.n_threads
        if total <= 0:
            return 0.0
        return self.barrier_wait_total_s / total


@dataclass(frozen=True)
class RegionTotals:
    """Accumulated per-region totals over a whole application run
    (the Figure 9 breakdown: IMPLICIT_TASK / LOOP / BARRIER)."""

    region_name: str
    calls: int
    implicit_task_s: float   # total region wall time across calls
    loop_s: float            # total useful loop-body time
    barrier_s: float         # total barrier wait
    energy_j: float

    @property
    def time_per_call_s(self) -> float:
        return self.implicit_task_s / self.calls if self.calls else 0.0
