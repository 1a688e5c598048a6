"""Every registered paper figure and table, and the paper's claims
about it.

Each test regenerates one non-``external`` entry of the figure
registry (:mod:`repro.analysis.registry`) and writes its
``results/<name>.txt`` and ``BENCH_<name>.json`` through
:func:`~repro.analysis.registry.write_figure` - the same spec and the
same writer behind ``repro figures NAME --formats txt,json``, so the
two produce identical bytes.  Sweep-backed entries run serially on the
``results/.cache`` store, as ``repro figures`` does by default.

It then checks the paper's claims about the data: ``CLAIMS`` maps a
registry name to a function of the generated data holding plain
asserts.  They stay here, not in ``src/``, so pytest rewrites them into
readable failures and ``python -O`` cannot strip them.
"""

from __future__ import annotations

import pytest

from repro.analysis.registry import (
    REGISTRY,
    GenOptions,
    figure_names,
    generate_figure,
    write_figure,
)
from repro.experiments.journal import SweepJournal
from repro.experiments.figures import SP_MAJOR_REGIONS

#: every entry the repo can regenerate on its own.
NAMES = [
    name for name in figure_names() if REGISTRY[name].cost != "external"
]


def fig1_claims(rows) -> None:
    capped = [r for r in rows if r.default_time_s is not None]
    # the optimal configuration beats the default at every power level
    assert all(r.improvement_pct > 5.0 for r in capped)
    # the paper's ~10-20% headroom
    assert max(r.improvement_pct for r in capped) > 12.0
    # the optimal configuration at a lower power level can beat the
    # default at TDP (Section II's 70W-vs-TDP observation)
    tdp_default = next(r for r in capped if r.label == "TDP")
    best_70 = next(r for r in capped if r.label == "70W")
    assert best_70.time_s < tdp_default.default_time_s


def fig3_claims(comparison) -> None:
    for region in SP_MAJOR_REGIONS:
        feats = comparison.offline_normalized[region]
        # barrier time drops substantially in every region (paper: >50%)
        assert feats["OMP_BARRIER"] < 0.8
        # L3 behaviour improves (paper: up to ~90%)
        assert feats["L3 miss"] < 0.9
    best_l3 = min(
        comparison.offline_normalized[r]["L3 miss"]
        for r in SP_MAJOR_REGIONS
    )
    assert best_l3 < 0.55


def fig4_claims(sweep) -> None:
    for label in sweep.labels:
        offline = sweep.cells[(label, "arcs-offline")]
        online = sweep.cells[(label, "arcs-online")]
        # "all the strategies in all five power levels outperform the
        # default configuration by a large margin" (26-40%)
        assert offline.time_norm < 0.85
        assert online.time_norm < 0.95
        assert offline.energy_norm is not None
        assert offline.energy_norm < 0.90
    best_time_gain = 1.0 - min(
        sweep.cells[(label, "arcs-offline")].time_norm
        for label in sweep.labels
    )
    assert best_time_gain > 0.20


def fig5_claims(sweep) -> None:
    offline = sweep.cells[("TDP", "arcs-offline")]
    # paper: up to 40% time / 42% energy improvement on the larger set
    assert offline.time_norm < 0.85
    assert offline.energy_norm is not None
    assert offline.energy_norm < 0.85


def fig6_claims(comparison) -> None:
    feats = comparison.offline_normalized["compute_rhs"]
    # paper: significant OMP_BARRIER improvement (~80%) for compute_rhs
    assert feats["OMP_BARRIER"] < 0.75
    # and the long-stride L1 behaviour is algorithmically stuck near 1.0
    assert feats["L1 miss"] > 0.85


def fig7_claims(sweep) -> None:
    for label in sweep.labels:
        offline = sweep.cells[(label, "arcs-offline")]
        online = sweep.cells[(label, "arcs-online")]
        # paper: improvements are small at every level (<= ~3%), and
        # ARCS can even lose to the default
        assert 0.93 < offline.time_norm < 1.06
        assert 0.93 < online.time_norm < 1.08


def fig8_crill_claims(crill_sweep) -> None:
    for label in crill_sweep.labels:
        online = crill_sweep.cells[(label, "arcs-online")]
        offline = crill_sweep.cells[(label, "arcs-offline")]
        # Crill: Online degrades at every power level (Section V-C);
        # Offline stays within a few percent of the default
        assert online.time_norm > 0.995
        assert 0.90 < offline.time_norm < 1.06
        # energy improves for Offline at every level
        assert offline.energy_norm is not None
        assert offline.energy_norm < 1.0


def fig8_minotaur_claims(minotaur_sweep) -> None:
    # Minotaur: Offline clearly wins, Online modest (paper: 14% / 4%)
    mino_online = minotaur_sweep.cells[("TDP", "arcs-online")]
    mino_offline = minotaur_sweep.cells[("TDP", "arcs-offline")]
    assert mino_offline.time_norm < 0.96
    assert mino_offline.time_norm < mino_online.time_norm


def fig9_claims(rows) -> None:
    names = [r.region for r in rows]
    # the most time-consuming region is EvalEOSForElems_ (paper)
    assert names[0] == "EvalEOSForElems_"
    assert "CalcFBHourglassForceForElems_" in names
    eval_eos = rows[0]
    # most of EvalEOS's inclusive time is not loop work
    assert eval_eos.loop_s < 0.6 * eval_eos.implicit_task_s
    assert eval_eos.barrier_fraction > 0.3
    # tiny per-call times comparable to the 0.8 ms config overhead
    assert eval_eos.time_per_call_s < 1.5e-3
    # the big element loops are nearly barrier-free
    kin = next(r for r in rows if r.region == "CalcKinematicsForElems_")
    assert kin.barrier_fraction < 0.05


def fig10_claims(comparison) -> None:
    feats = comparison.offline_normalized[
        "CalcFBHourglassForceForElems_"
    ]
    # paper: the chosen config drives OMP_BARRIER to almost zero and
    # improves L1/L3 visibly
    assert feats["OMP_BARRIER"] < 0.5
    assert feats["L3 miss"] < 0.9


def table1_claims(rows) -> None:
    assert len(rows) == 4
    assert "2, 4, 8, 16, 24, 32, default" in rows[0].values
    assert "10, 20, 40, 80, 120, 160, default" in rows[1].values


def table2_claims(rows) -> None:
    assert [r.region for r in rows] == [
        "compute_rhs", "x_solve", "y_solve", "z_solve",
    ]
    # shape check: the tuned configs are not the default configuration
    assert all(r.config != "32, static, default" for r in rows)


#: registry name -> the paper's claims about its generated data.
CLAIMS = {
    "fig1_motivation": fig1_claims,
    "fig3_sp_features": fig3_claims,
    "fig4_sp_power_sweep": fig4_claims,
    "fig5_sp_classC": fig5_claims,
    "fig6_bt_features": fig6_claims,
    "fig7_bt_power_sweep": fig7_claims,
    "fig8_lulesh_crill": fig8_crill_claims,
    "fig8_lulesh_minotaur": fig8_minotaur_claims,
    "fig9_lulesh_regions": fig9_claims,
    "fig10_lulesh_features": fig10_claims,
    "table1_search_space": table1_claims,
    "table2_sp_optimal_configs": table2_claims,
}


def test_claims_name_registered_figures():
    assert sorted(set(CLAIMS) - set(NAMES)) == []


@pytest.mark.parametrize("name", NAMES)
def test_figure(name, benchmark, results_dir):
    options = GenOptions(cache=SweepJournal.in_dir(results_dir / ".cache"))
    artifact = benchmark.pedantic(
        generate_figure, args=(name, options), rounds=1, iterations=1
    )
    write_figure(artifact, results_dir, ("txt", "json"))
    print()
    print(artifact.text)
    if name in CLAIMS:
        CLAIMS[name](artifact.data)
