"""Simulated multicore node substrate.

The paper runs on two real machines (*Crill*: 2x 8-core Intel Sandy
Bridge Xeon E5, 2-way HT; *Minotaur*: 2x 10-core IBM POWER8, SMT-8) and
uses RAPL via libmsr for power capping and energy measurement.  This
package provides the simulated equivalents:

* :mod:`repro.machine.spec` - hardware descriptions plus the
  :func:`crill` and :func:`minotaur` factory functions;
* :mod:`repro.machine.topology` - thread-to-core placement with SMT;
* :mod:`repro.machine.frequency` - the DVFS solver mapping a package
  power cap to the highest sustainable core frequency;
* :mod:`repro.machine.power` - the package power model (static, cache,
  per-core dynamic, idle states);
* :mod:`repro.machine.cache` - analytic L1/L2/L3 miss-rate model;
* :mod:`repro.machine.memory` - DRAM bandwidth/queueing model;
* :mod:`repro.machine.msr` / :mod:`repro.machine.rapl` - a libmsr-like
  MSR register file and the RAPL power-cap/energy-counter interface;
* :mod:`repro.machine.node` - :class:`SimulatedNode`, tying it together.
"""

from repro.machine.cache import CacheModel, CacheTraffic
from repro.machine.frequency import FrequencyModel
from repro.machine.node import SimulatedNode
from repro.machine.power import PowerModel
from repro.machine.rapl import Rapl, RaplDomain
from repro.machine.spec import CacheSpec, MachineSpec, crill, minotaur
from repro.machine.topology import Placement, Topology

__all__ = [
    "CacheModel",
    "CacheSpec",
    "CacheTraffic",
    "FrequencyModel",
    "MachineSpec",
    "Placement",
    "PowerModel",
    "Rapl",
    "RaplDomain",
    "SimulatedNode",
    "Topology",
    "crill",
    "minotaur",
]
