"""APEX: Autonomic Performance Environment for eXascale (re-implemented).

The surface ARCS needs (paper Section III-B): timers started/stopped by
OMPT events, per-timer profiles, real-time introspection of node power
and energy, and a *policy engine* whose registered policies receive
callbacks when timers start and stop (plus periodic policies).  Active
Harmony tuning sessions plug into policies via :mod:`repro.harmony`.
"""

from repro.apex.instrument import ApexOmptBridge
from repro.apex.introspection import Introspection
from repro.apex.policy import Policy, PolicyEngine, TimerEventContext
from repro.apex.profile import ApexProfile, TimerStats
from repro.apex.tau import TauProfiler, TauRegionProfile
from repro.apex.timers import TimerRegistry

__all__ = [
    "ApexOmptBridge",
    "ApexProfile",
    "Introspection",
    "Policy",
    "PolicyEngine",
    "TauProfiler",
    "TauRegionProfile",
    "TimerEventContext",
    "TimerRegistry",
    "TimerStats",
]
