"""Tests for the package power model."""

from __future__ import annotations

import pytest

from repro.machine.power import PowerModel
from repro.machine.spec import crill


@pytest.fixture
def power():
    return PowerModel(crill())


class TestInstantaneousPower:
    def test_full_package_at_base_is_tdp(self, power):
        spec = crill()
        draw = power.package_power_w(spec.base_freq_ghz, n_active=8)
        # all other cores default to sleep, adding a little
        assert draw == pytest.approx(spec.tdp_w, rel=0.01)

    def test_cubic_in_frequency(self, power):
        assert power.core_dynamic_w(2.0) == pytest.approx(
            8 * power.core_dynamic_w(1.0)
        )

    def test_more_active_cores_more_power(self, power):
        f = 2.4
        draws = [
            power.package_power_w(f, n_active=n) for n in range(1, 9)
        ]
        assert all(b > a for a, b in zip(draws, draws[1:]))

    def test_spin_power_below_active(self, power):
        f = 2.4
        active = power.package_power_w(f, n_active=2)
        spin = power.package_power_w(f, n_active=1, n_spin=1)
        sleep = power.package_power_w(f, n_active=1, n_spin=0)
        assert sleep < spin < active

    def test_core_states_cannot_exceed_socket(self, power):
        with pytest.raises(ValueError):
            power.package_power_w(2.4, n_active=8, n_spin=1)

    def test_negative_counts_rejected(self, power):
        with pytest.raises(ValueError):
            power.package_power_w(2.4, n_active=-1)

    def test_uncore_scales_with_frequency(self, power):
        assert power.uncore_w(2.4) > power.uncore_w(1.2)


class TestIdleIntervals:
    """Barrier waits through the per-frequency constants the engine
    integrates with (``at_frequency(f).idle_energy_j``)."""

    def test_short_wait_spins(self, power):
        at = power.at_frequency(2.4)
        wait = 10e-6
        assert wait <= at.sleep_after_s
        assert at.idle_energy_j(wait) == wait * at.spin_w

    def test_long_wait_sleeps(self, power):
        at = power.at_frequency(2.4)
        wait = 10e-3
        assert wait > at.sleep_after_s
        assert at.transition_s > 0.0
        assert at.idle_energy_j(wait) == (
            at.transition_s * at.spin_w
            + (wait - at.transition_s) * at.sleep_w
        )

    def test_sleep_saves_energy_for_long_waits(self, power):
        wait = 50e-3
        sleeping = power.at_frequency(2.4).idle_energy_j(wait)
        spin_w = crill().idle_spin_fraction * power.core_dynamic_w(2.4)
        assert sleeping < wait * spin_w

    def test_zero_wait_zero_energy(self, power):
        assert power.at_frequency(2.4).idle_energy_j(0.0) == 0.0

    def test_energy_monotone_in_wait(self, power):
        at = power.at_frequency(2.4)
        waits = [1e-6, 1e-4, 1e-3, 1e-2, 1e-1]
        energies = [at.idle_energy_j(w) for w in waits]
        assert all(b >= a for a, b in zip(energies, energies[1:]))
