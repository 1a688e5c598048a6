"""Tests for the MSR register file and the RAPL interface."""

from __future__ import annotations

import json
import random

import pytest

from repro.machine.msr import (
    MSR_DRAM_ENERGY_STATUS,
    MSR_PKG_ENERGY_STATUS,
    MSR_PKG_POWER_LIMIT,
    MSR_RAPL_POWER_UNIT,
    MsrFile,
)
from repro.machine.node import SimulatedNode
from repro.machine.rapl import Rapl, RaplDomain
from repro.machine.spec import crill, minotaur


@pytest.fixture
def msr():
    return MsrFile(sockets=2)


@pytest.fixture
def rapl(msr):
    return Rapl(crill(), msr)


class TestMsrFile:
    def test_power_unit_register_initialized(self, msr):
        raw = msr.read(0, MSR_RAPL_POWER_UNIT)
        assert (raw >> 8) & 0x1F == 0x10   # 2^-16 J energy units

    def test_unknown_msr_faults(self, msr):
        with pytest.raises(KeyError, match="rdmsr fault"):
            msr.read(0, 0x123)
        with pytest.raises(KeyError, match="wrmsr fault"):
            msr.write(0, 0x123, 1)

    def test_energy_counter_read_only(self, msr):
        with pytest.raises(PermissionError):
            msr.write(0, MSR_PKG_ENERGY_STATUS, 5)

    def test_energy_counter_wraps_at_32_bits(self, msr):
        msr.bump_energy_counter(0, (1 << 32) - 1)
        msr.bump_energy_counter(0, 2)
        assert msr.read_energy_counter(0) == 1

    def test_sockets_isolated(self, msr):
        msr.bump_energy_counter(0, 100)
        assert msr.read_energy_counter(1) == 0

    def test_invalid_socket_rejected(self, msr):
        with pytest.raises(ValueError):
            msr.read(5, MSR_RAPL_POWER_UNIT)

    def test_energy_units(self, msr):
        assert msr.energy_units_per_joule(0) == pytest.approx(65536.0)


class TestRaplCapping:
    def test_cap_written_to_limit_register(self, rapl, msr):
        rapl.set_package_cap(85.0, now_s=0.0)
        raw = msr.read(0, MSR_PKG_POWER_LIMIT)
        assert raw & (1 << 15)             # enable bit
        assert (raw & 0x7FFF) == 85 * 8    # 1/8 W units

    def test_cap_settles_after_warmup(self, rapl):
        """Section IV-D's 'warm up period after enforcing a power cap'."""
        rapl.set_package_cap(55.0, now_s=1.0)
        assert rapl.effective_cap_w(0, 1.0) is None      # not yet
        assert rapl.effective_cap_w(0, 1.0 + rapl.cap_settle_s) == 55.0

    def test_clearing_cap(self, rapl):
        rapl.set_package_cap(55.0, now_s=0.0)
        rapl.set_package_cap(None, now_s=1.0)
        assert rapl.effective_cap_w(0, 2.0) is None

    def test_both_sockets_capped(self, rapl):
        rapl.set_package_cap(70.0, now_s=0.0)
        assert rapl.effective_cap_w(0, 1.0) == 70.0
        assert rapl.effective_cap_w(1, 1.0) == 70.0

    def test_minotaur_has_no_capping_privilege(self):
        msr = MsrFile(sockets=2)
        rapl = Rapl(minotaur(), msr)
        with pytest.raises(PermissionError):
            rapl.set_package_cap(100.0, now_s=0.0)

    def test_invalid_cap_rejected(self, rapl):
        with pytest.raises(ValueError):
            rapl.set_package_cap(-5.0, now_s=0.0)


class TestRaplEnergyCounters:
    def test_energy_visible_after_update_interval(self, rapl):
        rapl.deposit_energy(0, 10.0, now_s=0.0005)
        # pending: the counter refreshes only at interval boundaries
        assert rapl.read_package_energy_j(0) == 0.0
        rapl.deposit_energy(0, 10.0, now_s=0.0021)
        assert rapl.read_package_energy_j(0) == pytest.approx(
            20.0, abs=0.001
        )

    def test_force_update_flushes(self, rapl):
        rapl.deposit_energy(0, 5.0, now_s=0.0001)
        rapl.force_update(0.0001)
        assert rapl.read_package_energy_j(0) == pytest.approx(
            5.0, abs=0.001
        )

    def test_quantized_to_energy_units(self, rapl):
        rapl.deposit_energy(0, 1.0 / 65536 / 2, now_s=0.0)  # half a unit
        rapl.force_update(1.0)
        assert rapl.read_package_energy_j(0) == 0.0

    def test_unwrap_across_counter_overflow(self, rapl):
        # 2^32 units = 65536 J per wrap; deposit enough to wrap once
        big = (2**32 + 5) / 65536.0
        rapl.deposit_energy(0, big, now_s=0.0)
        rapl.force_update(1.0)
        assert rapl.read_package_energy_j(0) == pytest.approx(
            big, rel=1e-6
        )

    def test_minotaur_counters_unreadable(self):
        rapl = Rapl(minotaur(), MsrFile(sockets=2))
        with pytest.raises(PermissionError):
            rapl.read_package_energy_j(0)

    def test_negative_deposit_rejected(self, rapl):
        with pytest.raises(ValueError):
            rapl.deposit_energy(0, -1.0, now_s=0.0)


# ---------------------------------------------------------------------------
# checkpoint round trip of the energy accounts
# ---------------------------------------------------------------------------
_PKG, _DRAM = RaplDomain.PACKAGE, RaplDomain.DRAM
#: (socket, joules, now_s, domain): crosses update boundaries, wraps the
#: socket-1 package counter once, and leaves energy pending at the end
_BEFORE = [
    (0, 1.5, 0.0004, _PKG),
    (1, 0.75, 0.0012, _DRAM),
    (0, 2.25, 0.0031, _PKG),
    (1, 70000.0, 0.0031, _PKG),
]
_AFTER = [
    (0, 0.5, 0.0047, _DRAM),
    (1, 3.125, 0.0052, _PKG),
    (0, 0.0625, 0.0052, _PKG),
    (0, 0.001, 0.0052, _PKG),
    (1, 0.25, 0.0068, _DRAM),
    (1, 0.125, 0.0069, _DRAM),
]
#: the state _BEFORE + _AFTER leaves, pinned: the read-only views the
#: deposit tests compare
_PINNED = (
    '{"msr": {"regs": [[0, 1542, 659459], [0, 1552, 0], '
    '[0, 1553, 249856], [0, 1561, 32768], [1, 1542, 659459], '
    '[1, 1552, 0], [1, 1553, 292757504], [1, 1561, 65536]]}, '
    '"rapl": {"caps": [[null, null, 0.0], [null, null, 0.0]], '
    '"energy": [["dram", 0, 0.0, 0.004, 0], ["dram", 1, 0.125, 0.006, 0], '
    '["package", 0, 0.001, 0.005, 0], ["package", 1, 0.0, 0.005, 1]], '
    '"last_read": [["package", 1, 70003.125]]}}'
)


def _deposit_all(rapl, deposits):
    for socket, joules, now_s, domain in deposits:
        rapl.deposit_energy(socket, joules, now_s, domain)


def _state(rapl, msr) -> str:
    rapl.read_package_energy_j(1)
    return json.dumps(
        {"rapl": rapl.snapshot(), "msr": msr.snapshot()}, sort_keys=True
    )


class TestRaplRestore:
    def test_uninterrupted_snapshot_is_pinned(self, rapl, msr):
        _deposit_all(rapl, _BEFORE + _AFTER)
        assert _state(rapl, msr) == _PINNED


# ---------------------------------------------------------------------------
# the fused per-region deposit against the per-domain reference
# ---------------------------------------------------------------------------
def test_region_deposit_matches_per_domain_deposits():
    """``deposit_region_energy`` leaves the raw counters, wrap counts and
    pending energy bit-equal to package-then-DRAM ``deposit_energy``
    calls per socket, across update boundaries and a counter wrap."""
    rng = random.Random(20161017)
    node = SimulatedNode(crill())
    reference = Rapl(crill(), MsrFile(sockets=2))

    def state(rapl, msr):
        return json.dumps([
            [msr.read(socket, address)
             for socket in range(2)
             for address in (MSR_PKG_ENERGY_STATUS, MSR_DRAM_ENERGY_STATUS)],
            rapl.snapshot()["energy"],
        ])

    for step in range(300):
        # mostly sub-interval advances, some spanning several intervals
        node.advance(rng.choice([0.0, rng.uniform(0.0, 2.5e-3)]))
        joules = 70000.0 if step == 150 else rng.uniform(0.0, 3.0)
        dram_joules = rng.uniform(0.0, 0.5)
        node.deposit_region_energy(joules, dram_joules)
        for socket in range(2):
            reference.deposit_energy(socket, joules, node.now_s, _PKG)
            reference.deposit_energy(socket, dram_joules, node.now_s, _DRAM)
        assert state(node.rapl, node.msr) == state(reference, reference.msr)
    accounts = node.rapl.snapshot()["energy"]
    assert [wraps for domain, *_, wraps in accounts] == [0, 0, 1, 1]
    assert all(pending > 0 for _, _, pending, _, _ in accounts)
