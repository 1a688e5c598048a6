"""Exact oracle for the engine's energy integral.

The scalar and batched evaluators both end in
``ExecutionEngine._energy``, so the differential wall
(``test_engine_differential``) cannot see a change to it.  This module
keeps the integral in its original per-call form - regroup the team's
slots by physical core, re-derive every power constant per core, the
spin/sleep rule written out - as a test-local oracle, and asserts the
engine's result equals it exactly (``==``, not approx) over every team
size on both machines, random finish times, waits at the sleep
threshold and one ulp either side, and serial prologues of zero and
above.
"""

from __future__ import annotations

import math

import pytest

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is an extra
    pytest.skip(
        "hypothesis is not installed", allow_module_level=True
    )

from repro.machine.node import SimulatedNode
from repro.machine.power import SMT_POWER_FACTOR
from repro.machine.spec import MachineSpec, crill, minotaur
from repro.openmp.engine import ExecutionEngine

ENGINES = {
    spec.name: ExecutionEngine(SimulatedNode(spec))
    for spec in (crill(), minotaur())
}


# ---------------------------------------------------------------------------
# the oracle: the integral as it was written before its constants were
# hoisted out of the per-core loop
# ---------------------------------------------------------------------------
def _dynamic_w(spec: MachineSpec, f: float) -> float:
    return spec.core_dyn_coeff_w_per_ghz3 * f ** 3


def _sleep_threshold_s(spec: MachineSpec, f: float) -> float:
    spin_w = spec.idle_spin_fraction * _dynamic_w(spec, f)
    if spin_w <= spec.idle_core_sleep_w:
        return float("inf")
    return 3.0 * (spec.sleep_transition_us * 1.0e-6)


def _idle_j(spec: MachineSpec, wait_s: float, f: float) -> float:
    spin_w = spec.idle_spin_fraction * _dynamic_w(spec, f)
    transition = spec.sleep_transition_us * 1.0e-6
    if wait_s <= _sleep_threshold_s(spec, f):
        return wait_s * spin_w
    sleep_time = max(0.0, wait_s - transition)
    return transition * spin_w + sleep_time * spec.idle_core_sleep_w


def oracle_energy(
    spec, placement, freqs, finish, t_compute, serial_s, time_s
) -> float:
    energy = 0.0
    cores: dict[tuple[int, int], list[int]] = {}
    for slot in placement.slots:
        cores.setdefault((slot.socket, slot.core), []).append(
            slot.thread_id
        )
    team_cores_per_socket = [0] * spec.sockets
    for (socket, _core), tids in cores.items():
        team_cores_per_socket[socket] += 1
        f = freqs[socket]
        dyn = _dynamic_w(spec, f)
        active = float(max(finish[tid] for tid in tids))
        smt_extra = SMT_POWER_FACTOR * (len(tids) - 1)
        energy += dyn * (1.0 + smt_extra) * active
        wait = max(0.0, t_compute - active)
        energy += _idle_j(spec, wait, f)
        if serial_s > 0 and 0 not in tids:
            energy += _idle_j(spec, serial_s, f)
    if serial_s > 0:
        master_socket = placement.slots[0].socket
        energy += _dynamic_w(spec, freqs[master_socket]) * serial_s
    for socket in range(spec.sockets):
        f = freqs[socket]
        energy += (
            spec.static_power_w
            + spec.cache_power_w * (f / spec.base_freq_ghz)
        ) * time_s
        unused = spec.cores_per_socket - team_cores_per_socket[socket]
        energy += unused * spec.idle_core_sleep_w * time_s
    return energy


def _check(spec_name, n_threads, freqs, finish, serial_s, overhead_s):
    engine = ENGINES[spec_name]
    spec = engine.node.spec
    placement = engine.node.topology.place(n_threads)
    t_compute = max(finish)
    time_s = serial_s + t_compute + overhead_s
    expected = oracle_energy(
        spec, placement, freqs, finish, t_compute, serial_s, time_s
    )
    got = engine._energy(
        placement, freqs, list(finish), t_compute, serial_s, time_s
    )
    assert got == expected, (spec_name, n_threads, got, expected)


def _edges(spec: MachineSpec) -> tuple[float, float, float]:
    """The sleep threshold and its neighbouring doubles."""
    threshold = _sleep_threshold_s(spec, spec.base_freq_ghz)
    return (
        math.nextafter(threshold, 0.0),
        threshold,
        math.nextafter(threshold, math.inf),
    )


# ---------------------------------------------------------------------------
# deterministic threshold cases
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("spec_name", sorted(ENGINES))
@pytest.mark.parametrize("edge", [0, 1, 2], ids=["below", "at", "above"])
def test_threshold_waits_match_oracle(spec_name, edge):
    """One thread finishes at the threshold, the rest at zero: every
    other core waits exactly the threshold (or an ulp off it), and so
    does a serial prologue of that length."""
    spec = ENGINES[spec_name].node.spec
    wait = _edges(spec)[edge]
    freqs = (spec.base_freq_ghz,) * spec.sockets
    for n_threads in range(1, spec.total_hw_threads + 1):
        finish = [wait] + [0.0] * (n_threads - 1)
        for serial_s in (0.0, wait):
            _check(spec_name, n_threads, freqs, finish, serial_s, 1e-6)


# ---------------------------------------------------------------------------
# random cases
# ---------------------------------------------------------------------------
@st.composite
def energy_cases(draw):
    spec_name = draw(st.sampled_from(sorted(ENGINES)))
    spec = ENGINES[spec_name].node.spec
    n_threads = draw(st.integers(1, spec.total_hw_threads))
    freqs = tuple(
        draw(st.floats(spec.min_freq_ghz, spec.turbo_freq_ghz))
        for _ in range(spec.sockets)
    )
    edges = _edges(spec)
    edge = draw(st.sampled_from((None,) + edges))
    if edge is None:
        finish = draw(
            st.lists(
                st.floats(0.0, 0.05),
                min_size=n_threads,
                max_size=n_threads,
            )
        )
    else:
        # the slowest thread finishes at the edge; threads at zero
        # leave their core waiting exactly that long
        finish = draw(
            st.lists(
                st.one_of(st.just(0.0), st.floats(0.0, edge)),
                min_size=n_threads,
                max_size=n_threads,
            )
        )
        finish[draw(st.integers(0, n_threads - 1))] = edge
    serial_s = draw(
        st.one_of(
            st.just(0.0),
            st.sampled_from(edges),
            st.floats(1e-9, 0.01),
        )
    )
    overhead_s = draw(st.floats(0.0, 1e-3))
    return spec_name, n_threads, freqs, finish, serial_s, overhead_s


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(energy_cases())
def test_energy_matches_oracle(case):
    _check(*case)
