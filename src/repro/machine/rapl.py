"""RAPL interface: package power capping and energy counters.

Models the two "known issues of RAPL" that Section IV-D says the
authors had to tackle:

* **counter update frequency** - the energy-status MSRs only update
  roughly every millisecond, so energy deposited between updates is
  invisible until the next boundary; and
* **warm-up after enforcing a cap** - a freshly-written power limit
  takes a settle interval before the running average actually clamps
  the package, during which the old limit still governs frequency.

Two domains are modelled: **PACKAGE** (cap + counter, as used
throughout the paper) and **DRAM** (counter only - the paper "used
maximum power for other components (DRAM, Network card, etc.), because
we did not have capping capability on these subsystems"; accounting
DRAM energy is the paper's stated future work).

Energy is deposited by the execution engine in simulated time; reads
return whole RAPL energy units (2^-16 J) with 32-bit wraparound, like
the real counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.faults.inject import FaultInjector
from repro.machine.msr import (
    MSR_DRAM_ENERGY_STATUS,
    MSR_PKG_ENERGY_STATUS,
    MSR_PKG_POWER_LIMIT,
    MsrFile,
)
from repro.machine.spec import MachineSpec
from repro.telemetry.bus import bus
from repro.util.validation import require_nonnegative, require_positive

_COUNTER_BITS = 32


class RaplReadError(OSError):
    """An energy-counter read failed (the msr-safe driver returning
    ``EIO``/``EAGAIN`` under contention).  Injectable via the
    ``rapl.read``/``error`` fault; harnesses retry a bounded number of
    times and degrade to time-only measurement if reads stay broken."""

    def __init__(self, domain: "RaplDomain", socket: int) -> None:
        self.domain = domain
        self.socket = socket
        super().__init__(
            f"RAPL {domain.value} energy read failed on socket {socket}"
        )


class CapWriteRejectedError(OSError):
    """A package power-limit write was rejected (locked limit register,
    transient msr-safe failure).  Injectable via ``rapl.cap_write``/
    ``reject``; distinct from :class:`PermissionError` on machines that
    never allow capping."""

    def __init__(self, cap_w: float | None, socket: int) -> None:
        self.cap_w = cap_w
        self.socket = socket
        cap = "TDP" if cap_w is None else f"{cap_w:g} W"
        super().__init__(
            f"package power-limit write ({cap}) rejected on socket "
            f"{socket}"
        )


class RaplDomain(Enum):
    """RAPL power domains."""

    PACKAGE = "package"
    DRAM = "dram"


_DOMAIN_MSR = {
    RaplDomain.PACKAGE: MSR_PKG_ENERGY_STATUS,
    RaplDomain.DRAM: MSR_DRAM_ENERGY_STATUS,
}


@dataclass
class _CapState:
    cap_w: float | None = None
    pending_cap_w: float | None = None
    cap_applies_at_s: float = 0.0


@dataclass
class _EnergyAccount:
    pending_j: float = 0.0
    last_update_s: float = 0.0
    wraps: int = 0


@dataclass
class Rapl:
    """libmsr-style RAPL access for one simulated node."""

    spec: MachineSpec
    msr: MsrFile
    update_interval_s: float = 1.0e-3
    cap_settle_s: float = 10.0e-3
    faults: FaultInjector | None = None
    _caps: list[_CapState] = field(default_factory=list)
    _energy: dict[tuple[RaplDomain, int], _EnergyAccount] = field(
        default_factory=dict
    )
    _last_read_j: dict[tuple[RaplDomain, int], float] = field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        require_positive("update_interval_s", self.update_interval_s)
        require_nonnegative("cap_settle_s", self.cap_settle_s)
        self._caps = [_CapState() for _ in range(self.spec.sockets)]
        self._energy = {
            (domain, socket): _EnergyAccount()
            for domain in RaplDomain
            for socket in range(self.spec.sockets)
        }
        # per-domain {socket: account} views of _energy for the deposit
        # path, which runs several times per region invocation: picking
        # a domain by identity avoids hashing the enum.
        self._package_accounts = {
            socket: account
            for (domain, socket), account in self._energy.items()
            if domain is RaplDomain.PACKAGE
        }
        self._dram_accounts = {
            socket: account
            for (domain, socket), account in self._energy.items()
            if domain is RaplDomain.DRAM
        }
        self._region_accounts = [
            (s, self._package_accounts[s], self._dram_accounts[s])
            for s in range(self.spec.sockets)
        ]

    # ------------------------------------------------------------------
    # power capping (PACKAGE domain only, as on the paper's machines)
    # ------------------------------------------------------------------
    def set_package_cap(
        self, cap_w: float | None, now_s: float, socket: int | None = None
    ) -> None:
        """Write a package power limit (``None`` clears to TDP-limited).

        Raises :class:`PermissionError` on machines without capping
        privilege (Minotaur), mirroring the paper's constraint.
        """
        if not self.spec.supports_power_cap:
            raise PermissionError(
                f"{self.spec.name} does not allow power capping"
            )
        if cap_w is not None:
            require_positive("cap_w", cap_w)
        targets = range(self.spec.sockets) if socket is None else [socket]
        if self.faults is not None:
            spec = self.faults.draw("rapl.cap_write")
            if spec is not None and spec.action == "reject":
                bus().emit(
                    "rapl.cap_write_rejected",
                    cap_w=cap_w,
                    socket=next(iter(targets)),
                )
                raise CapWriteRejectedError(cap_w, next(iter(targets)))
        for s in targets:
            state = self._caps[s]
            state.pending_cap_w = cap_w
            state.cap_applies_at_s = now_s + self.cap_settle_s
            self._write_limit_register(s, cap_w)
        bus().emit(
            "rapl.cap_write",
            cap_w=cap_w,
            sockets=self.spec.sockets if socket is None else 1,
        )

    def effective_cap_w(self, socket: int, now_s: float) -> float | None:
        """The cap actually governing the package at ``now_s``
        (pending writes apply only after the settle interval)."""
        state = self._caps[socket]
        if now_s >= state.cap_applies_at_s:
            state.cap_w = state.pending_cap_w
        return state.cap_w

    def _write_limit_register(self, socket: int, cap_w: float | None) -> None:
        if cap_w is None:
            self.msr.write(socket, MSR_PKG_POWER_LIMIT, 0)
            return
        # power unit = 1/8 W; enable bit 15.
        raw = (int(round(cap_w * 8)) & 0x7FFF) | (1 << 15)
        self.msr.write(socket, MSR_PKG_POWER_LIMIT, raw)

    # ------------------------------------------------------------------
    # energy counters
    # ------------------------------------------------------------------
    def deposit_energy(
        self,
        socket: int,
        joules: float,
        now_s: float,
        domain: RaplDomain = RaplDomain.PACKAGE,
    ) -> None:
        """Account energy consumed by a domain of ``socket`` up to
        ``now_s``.  The MSR counter is only bumped when simulated time
        crosses an update-interval boundary, modelling the counter's
        refresh rate."""
        if not joules >= 0:
            require_nonnegative("joules", joules)
        if domain is RaplDomain.PACKAGE:
            accounts = self._package_accounts
            address = MSR_PKG_ENERGY_STATUS
        elif domain is RaplDomain.DRAM:
            accounts = self._dram_accounts
            address = MSR_DRAM_ENERGY_STATUS
        else:
            raise KeyError((domain, socket))
        account = accounts[socket]
        account.pending_j += joules
        boundary = (
            int(now_s / self.update_interval_s) * self.update_interval_s
        )
        if boundary > account.last_update_s:
            self._flush(account, address, socket)
            account.last_update_s = boundary

    def deposit_region_energy(
        self, joules: float, dram_joules: float, now_s: float
    ) -> None:
        """``deposit_energy`` of ``joules`` (package) then ``dram_joules``
        (DRAM) for each socket in turn, in one call."""
        if not joules >= 0:
            require_nonnegative("joules", joules)
        if not dram_joules >= 0:
            require_nonnegative("dram_joules", dram_joules)
        boundary = (
            int(now_s / self.update_interval_s) * self.update_interval_s
        )
        for socket, package, dram in self._region_accounts:
            package.pending_j += joules
            if boundary > package.last_update_s:
                self._flush(package, MSR_PKG_ENERGY_STATUS, socket)
                package.last_update_s = boundary
            dram.pending_j += dram_joules
            if boundary > dram.last_update_s:
                self._flush(dram, MSR_DRAM_ENERGY_STATUS, socket)
                dram.last_update_s = boundary

    def _flush(
        self, account: _EnergyAccount, address: int, socket: int
    ) -> None:
        units_per_j = self.msr.energy_units_per_joule(socket)
        units = int(account.pending_j * units_per_j)
        if units > 0:
            account.pending_j -= units / units_per_j
            before = self.msr.bump_counter(socket, address, units)
            account.wraps += (before + units) >> _COUNTER_BITS

    def counter_span_j(self, socket: int = 0) -> float:
        """Energy covered by one full revolution of the 32-bit counter
        (~65536 J at the default 2^-16 J unit) - the correction quantum
        for a read that observes a wrap before the unwrap bookkeeping
        does."""
        return (1 << _COUNTER_BITS) / self.msr.energy_units_per_joule(
            socket
        )

    def _read_energy_j(self, domain: RaplDomain, socket: int) -> float:
        if not self.spec.supports_energy_counters:
            raise PermissionError(
                f"{self.spec.name} does not expose energy counters"
            )
        account = self._energy[(domain, socket)]
        raw = self.msr.read(socket, _DOMAIN_MSR[domain])
        units_per_j = self.msr.energy_units_per_joule(socket)
        total_units = account.wraps * (1 << _COUNTER_BITS) + raw
        value = total_units / units_per_j
        bus().count("rapl.reads")
        if self.faults is not None:
            spec = self.faults.draw("rapl.read")
            if spec is not None:
                if spec.action == "error":
                    bus().emit(
                        "rapl.read_error",
                        domain=domain.value,
                        socket=socket,
                    )
                    raise RaplReadError(domain, socket)
                if spec.action == "stale":
                    # the counter has not refreshed since the last read
                    bus().emit(
                        "rapl.read_stale",
                        domain=domain.value,
                        socket=socket,
                    )
                    return self._last_read_j.get((domain, socket), 0.0)
                if spec.action == "wraparound":
                    # a read racing a 32-bit wrap: the raw counter has
                    # already rolled over but the wrap has not been
                    # accounted, so the value appears one span behind
                    bus().emit(
                        "rapl.read_wraparound",
                        domain=domain.value,
                        socket=socket,
                    )
                    return value - self.counter_span_j(socket)
        self._last_read_j[(domain, socket)] = value
        return value

    def read_package_energy_j(self, socket: int) -> float:
        """Package-domain energy in joules, unwrapping the counter.
        Raises :class:`PermissionError` on machines without counter
        access (Minotaur)."""
        return self._read_energy_j(RaplDomain.PACKAGE, socket)

    def read_dram_energy_j(self, socket: int) -> float:
        """DRAM-domain energy in joules."""
        return self._read_energy_j(RaplDomain.DRAM, socket)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Read-only JSON view of the mutable state (cap states, energy
        accounts, last successful reads), for tests that pin it.  The
        MSR registers themselves are owned - and viewed - by
        :class:`~repro.machine.msr.MsrFile`."""
        return {
            "caps": [
                [c.cap_w, c.pending_cap_w, c.cap_applies_at_s]
                for c in self._caps
            ],
            "energy": [
                [domain.value, socket, a.pending_j, a.last_update_s,
                 a.wraps]
                for (domain, socket), a in sorted(
                    self._energy.items(),
                    key=lambda item: (item[0][0].value, item[0][1]),
                )
            ],
            "last_read": [
                [domain.value, socket, value]
                for (domain, socket), value in sorted(
                    self._last_read_j.items(),
                    key=lambda item: (item[0][0].value, item[0][1]),
                )
            ],
        }

    def force_update(self, now_s: float) -> None:
        """Flush pending energy into the counters (used at run teardown,
        mirroring a final synchronous read after a settle sleep)."""
        for (domain, socket), account in self._energy.items():
            account.last_update_s = now_s
            self._flush(account, _DOMAIN_MSR[domain], socket)
