"""A libmsr-like model-specific-register file.

The paper accesses RAPL through libmsr [13].  We model the MSR surface
that libmsr's RAPL wrappers touch: the power-unit register, the package
power-limit register and the 32-bit wrapping package energy-status
counter.  :mod:`repro.machine.rapl` layers the libmsr-style API on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.telemetry.bus import bus

# Architectural MSR addresses (Intel SDM vol. 4).
MSR_RAPL_POWER_UNIT = 0x606
MSR_PKG_POWER_LIMIT = 0x610
MSR_PKG_ENERGY_STATUS = 0x611
MSR_DRAM_ENERGY_STATUS = 0x619

#: Default RAPL units (Sandy Bridge): power unit 1/8 W, energy unit
#: 2^-16 J (~15.3 uJ), time unit 976 us.  Encoded as the SDM does:
#: bits 3:0 power, 12:8 energy, 19:16 time (each value is 1/2^bits).
DEFAULT_POWER_UNIT_RAW = (0xA << 16) | (0x10 << 8) | 0x3

_COUNTER_BITS = 32
_COUNTER_MASK = (1 << _COUNTER_BITS) - 1


def _energy_units_per_joule(power_unit_raw: int) -> float:
    """Decode the energy-status unit (bits 12:8) of a power-unit
    register value."""
    return float(1 << ((power_unit_raw >> 8) & 0x1F))


@dataclass
class MsrFile:
    """Per-socket register storage with the semantics MSRs actually have
    (fixed width, wrapping counters)."""

    sockets: int
    _regs: dict[tuple[int, int], int] = field(default_factory=dict)
    #: per socket: the decoded energy unit of MSR_RAPL_POWER_UNIT,
    #: refreshed whenever that register is written.
    _units_per_j: list[float] = field(
        default_factory=list, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._units_per_j = [
            _energy_units_per_joule(DEFAULT_POWER_UNIT_RAW)
        ] * self.sockets
        for socket in range(self.sockets):
            self._regs[(socket, MSR_RAPL_POWER_UNIT)] = (
                DEFAULT_POWER_UNIT_RAW
            )
            self._regs[(socket, MSR_PKG_POWER_LIMIT)] = 0
            self._regs[(socket, MSR_PKG_ENERGY_STATUS)] = 0
            self._regs[(socket, MSR_DRAM_ENERGY_STATUS)] = 0

    def _check_socket(self, socket: int) -> None:
        if not 0 <= socket < self.sockets:
            raise ValueError(
                f"socket must be in [0, {self.sockets}), got {socket}"
            )

    def read(self, socket: int, address: int) -> int:
        """Read a 64-bit MSR; unknown addresses fault like rdmsr would."""
        self._check_socket(socket)
        bus().count("msr.reads")
        try:
            return self._regs[(socket, address)]
        except KeyError:
            raise KeyError(
                f"rdmsr fault: MSR {address:#x} not implemented"
            ) from None

    def write(self, socket: int, address: int, value: int) -> None:
        """Write a 64-bit MSR. Energy-status counters are read-only."""
        self._check_socket(socket)
        bus().count("msr.writes")
        if address in (MSR_PKG_ENERGY_STATUS, MSR_DRAM_ENERGY_STATUS):
            raise PermissionError("energy-status MSRs are read-only")
        if (socket, address) not in self._regs:
            raise KeyError(f"wrmsr fault: MSR {address:#x} not implemented")
        self._regs[(socket, address)] = value & ((1 << 64) - 1)
        if address == MSR_RAPL_POWER_UNIT:
            self._units_per_j[socket] = _energy_units_per_joule(
                self._regs[(socket, address)]
            )

    # -- energy counter helpers (used by the RAPL layer) ----------------
    def energy_units_per_joule(self, socket: int) -> float:
        """Counter units per joule, as ``MSR_RAPL_POWER_UNIT`` encodes
        them (decoded when the register is written, not per call)."""
        self._check_socket(socket)
        return self._units_per_j[socket]

    def snapshot(self) -> dict:
        """Read-only JSON view of the register contents (tuple keys
        flattened to ``[socket, address, value]`` triples)."""
        return {
            "regs": [
                [socket, address, value]
                for (socket, address), value in sorted(self._regs.items())
            ]
        }

    def bump_counter(self, socket: int, address: int, units: int) -> int:
        """Advance a wrapping 32-bit counter MSR by ``units``; returns
        the value before the bump."""
        if units < 0:
            raise ValueError(f"units must be >= 0, got {units}")
        self._check_socket(socket)
        key = (socket, address)
        before = self._regs.get(key)
        if before is None:
            raise KeyError(f"MSR {address:#x} not implemented")
        self._regs[key] = (before + units) & _COUNTER_MASK
        return before

    def bump_energy_counter(self, socket: int, units: int) -> None:
        """Advance the wrapping package energy counter by ``units``."""
        self.bump_counter(socket, MSR_PKG_ENERGY_STATUS, units)

    def read_energy_counter(self, socket: int) -> int:
        return self.read(socket, MSR_PKG_ENERGY_STATUS)
