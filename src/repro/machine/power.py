"""Package power model.

Power is modelled per package (socket) as the paper's Section V
describes the hardware: *"cores and caches are the main power
consuming components of a processor; the total power of a processor is
divided between these two"*.

``P_pkg(f) = P_static + P_cache * (f / f_base) + n_active * kappa * f^3
            + n_spin * spin_fraction * kappa * f^3
            + n_sleep * P_sleep``

* active cores burn dynamic power cubic in frequency (f ~ V, P ~ f V^2);
* cores spinning at a barrier burn a large fraction of active power
  (``idle_spin_fraction``) - the paper notes short waits do not reach
  sleep states;
* deep-sleep cores burn a small constant, but entering/leaving sleep
  costs ``sleep_transition_us`` of wasted time and energy, which is why
  *"entering and exiting sleep states ... can cause negative savings if
  the idle duration is short"* (Section V).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.machine.spec import MachineSpec
from repro.util.units import us
from repro.util.validation import require_nonnegative


#: extra dynamic power an SMT sibling adds to an already-active core.
SMT_POWER_FACTOR = 0.15


@dataclass(frozen=True)
class FrequencyPower:
    """The power model's per-core constants at one frequency: what the
    engine's energy integral reads once per region instead of
    re-deriving per core."""

    core_dynamic_w: float
    uncore_w: float
    spin_w: float
    sleep_w: float
    #: waits longer than this sleep, shorter ones spin.
    sleep_after_s: float
    transition_s: float

    def idle_energy_j(self, wait_s: float) -> float:
        """Energy burnt by one core waiting ``wait_s`` at a barrier:
        spinning throughout, or one transition spent spinning and the
        rest asleep."""
        if wait_s <= self.sleep_after_s:
            return wait_s * self.spin_w
        sleep_time = max(0.0, wait_s - self.transition_s)
        return self.transition_s * self.spin_w + sleep_time * self.sleep_w


class PowerModel:
    """Evaluates package power draw and, per frequency, the constants
    of idle-interval energy."""

    def __init__(self, spec: MachineSpec) -> None:
        self.spec = spec
        # bounded: a fleet's allocator hands out arbitrary caps, so the
        # set of frequencies a node visits is open-ended
        self.at_frequency = lru_cache(maxsize=1024)(self._at_frequency)

    # ------------------------------------------------------------------
    # instantaneous power
    # ------------------------------------------------------------------
    def core_dynamic_w(self, freq_ghz: float) -> float:
        """Dynamic power of one fully-active core at ``freq_ghz``."""
        return self.spec.core_dyn_coeff_w_per_ghz3 * freq_ghz ** 3

    def uncore_w(self, freq_ghz: float) -> float:
        """Static plus cache (uncore) power of one package."""
        rel = freq_ghz / self.spec.base_freq_ghz
        return self.spec.static_power_w + self.spec.cache_power_w * rel

    def smt_power_multiplier(self, avg_siblings: float) -> float:
        """Dynamic-power multiplier for cores running ``avg_siblings``
        SMT threads each (1.0 for one thread per core)."""
        if avg_siblings < 1.0:
            raise ValueError(
                f"avg_siblings must be >= 1, got {avg_siblings}"
            )
        return 1.0 + SMT_POWER_FACTOR * (avg_siblings - 1.0)

    def package_power_w(
        self,
        freq_ghz: float,
        n_active: int,
        n_spin: int = 0,
        n_sleep: int | None = None,
        smt_mult: float = 1.0,
    ) -> float:
        """Total draw of one package.

        ``n_sleep`` defaults to the remaining cores of the package;
        ``smt_mult`` scales the active cores' dynamic power for SMT
        co-residency (see :meth:`smt_power_multiplier`).
        """
        require_nonnegative("n_active", n_active)
        require_nonnegative("n_spin", n_spin)
        if n_sleep is None:
            n_sleep = self.spec.cores_per_socket - n_active - n_spin
        require_nonnegative("n_sleep", n_sleep)
        if n_active + n_spin + n_sleep > self.spec.cores_per_socket:
            raise ValueError(
                "core states exceed cores per socket: "
                f"{n_active}+{n_spin}+{n_sleep} > "
                f"{self.spec.cores_per_socket}"
            )
        dyn = self.core_dynamic_w(freq_ghz)
        return (
            self.uncore_w(freq_ghz)
            + n_active * dyn * smt_mult
            + n_spin * self.spec.idle_spin_fraction * dyn
            + n_sleep * self.spec.idle_core_sleep_w
        )

    # ------------------------------------------------------------------
    # idle intervals (barrier waits)
    # ------------------------------------------------------------------
    #: Governor heuristic: a core only enters deep sleep when the
    #: expected wait exceeds this many transition times; shorter waits
    #: spin (the Section V "short OpenMP waits don't reach sleep" case).
    SLEEP_BREAKEVEN_MULTIPLIER = 3.0

    def _at_frequency(self, freq_ghz: float) -> FrequencyPower:
        """Per-core constants at ``freq_ghz`` (cached per frequency as
        :attr:`at_frequency`)."""
        dyn = self.core_dynamic_w(freq_ghz)
        spin_w = self.spec.idle_spin_fraction * dyn
        transition = us(self.spec.sleep_transition_us)
        if spin_w <= self.spec.idle_core_sleep_w:
            sleep_after = float("inf")
        else:
            sleep_after = self.SLEEP_BREAKEVEN_MULTIPLIER * transition
        return FrequencyPower(
            core_dynamic_w=dyn,
            uncore_w=self.uncore_w(freq_ghz),
            spin_w=spin_w,
            sleep_w=self.spec.idle_core_sleep_w,
            sleep_after_s=sleep_after,
            transition_s=transition,
        )
