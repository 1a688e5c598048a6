"""The simulated node: one object tying the hardware models together.

A :class:`SimulatedNode` owns the machine spec, topology, frequency /
power / cache / memory models, the MSR file and the RAPL interface,
plus a simulation clock.  The OpenMP execution engine asks the node for
the cap-constrained frequency, charges wall time and deposits energy;
experiment harnesses set power caps and read the energy counters the
same way the paper's scripts drove libmsr.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.inject import FaultInjector
from repro.machine.cache import CacheModel
from repro.machine.frequency import FrequencyModel
from repro.machine.memory import MemoryModel
from repro.machine.msr import MsrFile
from repro.machine.power import PowerModel
from repro.machine.rapl import Rapl
from repro.machine.spec import MachineSpec
from repro.machine.topology import Placement, Topology
from repro.telemetry.bus import bus
from repro.util.validation import require_nonnegative


@dataclass(frozen=True)
class NodePowerView:
    """Snapshot of the node's power state at a point in time."""

    now_s: float
    caps_w: tuple[float | None, ...]
    frequencies_ghz: tuple[float, ...]


class SimulatedNode:
    """A power-cappable multicore node with a simulation clock."""

    def __init__(
        self, spec: MachineSpec, faults: FaultInjector | None = None
    ) -> None:
        self.spec = spec
        #: fault injector consulted by the RAPL layer and (via the
        #: OMPT bridge) the APEX measurement path; ``None`` = clean.
        self.faults = faults
        self.topology = Topology(spec)
        self.frequency = FrequencyModel(spec)
        self.power = PowerModel(spec)
        self.cache = CacheModel(
            spec.cache,
            smt_conflict_l1=spec.smt_conflict_l1,
            smt_conflict_l1_cap=spec.smt_conflict_l1_cap,
            smt_conflict_l2=spec.smt_conflict_l2,
            smt_conflict_l2_cap=spec.smt_conflict_l2_cap,
        )
        self.memory = MemoryModel(spec)
        self.msr = MsrFile(spec.sockets)
        self.rapl = Rapl(spec, self.msr, faults=faults)
        #: the simulation clock, moved by :meth:`advance` (a plain
        #: attribute: every region invocation reads it a dozen times)
        self.now_s = 0.0
        #: userspace-governor frequency ceiling (None = hardware
        #: managed).  The paper's future work: "Currently, we are not
        #: looking into the DVFS strategy.  We plan to include this
        #: policy in the future." - this is that extension's knob.
        self.frequency_limit_ghz: float | None = None
        # the newest node's simulated clock becomes the telemetry
        # timestamp source (the bus keeps earlier nodes' timelines
        # monotone via its rebind offset).
        bus().bind_clock(lambda: self.now_s)

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    def advance(self, seconds: float) -> float:
        """Advance simulated wall time and return the new clock."""
        if not seconds >= 0:
            require_nonnegative("seconds", seconds)
        self.now_s += seconds
        return self.now_s

    # ------------------------------------------------------------------
    # power control (the harness-facing libmsr surface)
    # ------------------------------------------------------------------
    def set_power_cap(self, cap_w: float | None) -> None:
        """Cap every package at ``cap_w`` (None = uncapped/TDP)."""
        self.rapl.set_package_cap(cap_w, now_s=self.now_s)

    def settle_after_cap(self) -> None:
        """Sleep the simulated clock past the RAPL settle window - the
        paper's 'warm up period after enforcing a power cap'."""
        self.advance(self.rapl.cap_settle_s)

    def effective_cap_w(self, socket: int = 0) -> float | None:
        return self.rapl.effective_cap_w(socket, self.now_s)

    def set_frequency_limit(self, freq_ghz: float | None) -> None:
        """Set a userspace DVFS ceiling (None restores hw-managed)."""
        if freq_ghz is not None and not (
            self.spec.min_freq_ghz
            <= freq_ghz
            <= self.spec.turbo_freq_ghz
        ):
            raise ValueError(
                f"frequency limit must be within "
                f"[{self.spec.min_freq_ghz}, {self.spec.turbo_freq_ghz}] "
                f"GHz, got {freq_ghz}"
            )
        self.frequency_limit_ghz = freq_ghz

    def frequency_for_team(self, placement: Placement) -> tuple[float, ...]:
        """Per-socket sustainable frequency for an active team.

        All team threads count as active cores on their socket; RAPL
        clamps each package independently (both packages get the same
        cap in the paper's setup).  A userspace DVFS ceiling, if set,
        caps the result further.
        """
        freqs = []
        active = placement.active_cores_per_socket
        threads = placement.threads_per_socket
        for socket in range(self.spec.sockets):
            n_active = max(1, active[socket])
            cap = self.rapl.effective_cap_w(socket, self.now_s)
            smt_mult = self.power.smt_power_multiplier(
                max(1.0, threads[socket] / n_active)
            )
            f = self.frequency.frequency_for_cap(
                cap, n_active=n_active, smt_mult=smt_mult
            )
            if self.frequency_limit_ghz is not None:
                f = min(f, self.frequency_limit_ghz)
            freqs.append(f)
        return tuple(freqs)

    # ------------------------------------------------------------------
    # energy accounting (engine-facing)
    # ------------------------------------------------------------------
    def deposit_energy(self, socket: int, joules: float) -> None:
        self.rapl.deposit_energy(socket, joules, self.now_s)

    def deposit_region_energy(
        self, per_socket: float, dram_per_socket: float
    ) -> None:
        """Deposit one region execution's energy: ``per_socket`` joules
        into every package and ``dram_per_socket`` into every DRAM
        domain."""
        self.rapl.deposit_region_energy(
            per_socket, dram_per_socket, self.now_s
        )

    def read_package_energy_j(self) -> float:
        """Node-total package energy (sum over sockets), flushing
        pending deposits first (a synchronous read)."""
        self.rapl.force_update(self.now_s)
        return sum(
            self.rapl.read_package_energy_j(s)
            for s in range(self.spec.sockets)
        )

    def energy_delta_j(self, before_j: float, after_j: float) -> float:
        """Energy consumed between two counter reads, corrected for a
        32-bit wraparound the unwrap bookkeeping missed.

        Mirrors the classic RAPL delta fix: a reading smaller than its
        predecessor means the counter rolled over between the reads, so
        whole counter spans are added back until the delta is
        non-negative.
        """
        delta = after_j - before_j
        span = self.rapl.counter_span_j(0)
        corrected = delta < 0 and span > 0
        while delta < 0 and span > 0:
            delta += span
        if corrected:
            bus().emit(
                "node.wrap_corrected",
                raw_delta_j=after_j - before_j,
                corrected_delta_j=delta,
            )
        return delta

    def read_dram_energy_j(self) -> float:
        """Node-total DRAM-domain energy (the future-work memory-power
        accounting)."""
        self.rapl.force_update(self.now_s)
        return sum(
            self.rapl.read_dram_energy_j(s)
            for s in range(self.spec.sockets)
        )

    def power_view(self, n_threads: int) -> NodePowerView:
        placement = self.topology.place(n_threads)
        return NodePowerView(
            now_s=self.now_s,
            caps_w=tuple(
                self.rapl.effective_cap_w(s, self.now_s)
                for s in range(self.spec.sockets)
            ),
            frequencies_ghz=self.frequency_for_team(placement),
        )

    def reset(self) -> None:
        """Fresh clock, counters and caps (a 'reboot' between runs).
        The fault injector, if any, stays armed - rebooting does not
        fix flaky hardware."""
        self.msr = MsrFile(self.spec.sockets)
        self.rapl = Rapl(self.spec, self.msr, faults=self.faults)
        self.now_s = 0.0
        self.frequency_limit_ghz = None
        # pin the telemetry offset: the rebooted clock restarts at zero
        # but the run-wide virtual timeline must not go backwards.
        bus().bind_clock(lambda: self.now_s)
