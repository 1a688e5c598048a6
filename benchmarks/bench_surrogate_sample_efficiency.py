"""Sample efficiency: surrogate-ranked search vs Nelder-Mead.

The surrogate strategy's pitch is that a model fit on *other* tuning
runs lets a new run measure only a handful of configurations instead
of searching.  This benchmark quantifies that on the Table I space:
the model is fit leave-one-cap-out (the target region's sweeps at
every *other* power cap, plus full sweeps of the sibling SP regions at
every cap including the target's), then both strategies tune SP
``y_solve`` at the held-out cap through the noisy runtime measurement
path - the same path real tuning sessions use.

The gate asserts the headline claim: the surrogate's choice lands
within 5% of the exhaustive optimum while spending at most a third of
the probes Nelder-Mead needs to converge, at both cap levels.
"""

from repro.core.config import config_from_point, search_space_for
from repro.harmony.engine import make_strategy
from repro.harmony.session import TuningSession
from repro.machine.node import SimulatedNode
from repro.machine.spec import crill
from repro.openmp.engine import ExecutionEngine
from repro.openmp.runtime import OpenMPRuntime
from repro.surrogate import SurrogateTuning, TrainingRecord, fit_surrogate
from repro.util.tables import format_table
from repro.workloads.sp import sp_application

SEED = 3
TOP_K = 4
NM_BUDGET = 40
TARGET_REGION = "y_solve"
TRAIN_REGIONS = ("x_solve", "z_solve", "compute_rhs", "txinvr", "add")
ALL_CAPS = (55.0, 70.0, 85.0, 100.0, None)
TARGET_CAPS = (85.0, 55.0)


def _engine(spec, cap_w):
    node = SimulatedNode(spec)
    if cap_w is not None:
        node.set_power_cap(cap_w)
        node.settle_after_cap()
    return ExecutionEngine(node)


def _runtime(spec, cap_w):
    node = SimulatedNode(spec)
    if cap_w is not None:
        node.set_power_cap(cap_w)
        node.settle_after_cap()
    return OpenMPRuntime(node, seed=SEED)


def _noisy_objective(runtime, region):
    def objective(point) -> float:
        config = config_from_point(point)
        runtime.omp_set_num_threads(config.n_threads)
        runtime.omp_set_schedule(config.schedule, config.chunk)
        return runtime.parallel_for(region).time_s

    return objective


def _corpus(app, spec, space, regions, target_cap):
    """Leave-one-cap-out training corpus: the target region everywhere
    *except* the held-out cap, sibling regions everywhere."""
    engines = {cap: _engine(spec, cap) for cap in ALL_CAPS}

    def record(region_name, cap_w, indices) -> TrainingRecord:
        config = config_from_point(space.decode(indices))
        time_s = engines[cap_w]._simulate(
            regions[region_name], config
        ).time_s
        return TrainingRecord(
            app=app.label,
            machine="crill",
            region=region_name,
            cap_w=cap_w,
            n_threads=config.n_threads,
            schedule=config.schedule.value,
            chunk=config.chunk,
            time_s=time_s,
            energy_j=None,
            source="cache",
            provenance="bench_surrogate_sample_efficiency",
        )

    records = []
    for cap_w in ALL_CAPS:
        region_names = TRAIN_REGIONS + (
            () if cap_w == target_cap else (TARGET_REGION,)
        )
        for region_name in region_names:
            for indices in space.iter_indices():
                records.append(record(region_name, cap_w, indices))
    return records


def _tune(space, strategy, objective):
    session = TuningSession(space, strategy)
    evals = 0
    while not session.converged and evals < space.size + 10:
        point = session.space.decode(session.suggest())
        session.report(objective(point))
        evals += 1
    assert session.converged
    return session.best_point(), evals


def run_sample_efficiency():
    spec = crill()
    space = search_space_for(spec)
    app = sp_application("B")
    regions = {p.name: p for p in app.regions()}
    region = regions[TARGET_REGION]

    results = []
    for cap_w in TARGET_CAPS:
        truth_engine = _engine(spec, cap_w)
        truth = {
            indices: truth_engine._simulate(
                region, config_from_point(space.decode(indices))
            ).time_s
            for indices in space.iter_indices()
        }
        optimum = min(truth.values())

        model = fit_surrogate(
            _corpus(app, spec, space, regions, cap_w), seed=SEED
        )
        tuning = SurrogateTuning(model=model, top_k=TOP_K)
        assert tuning.fallback_reason() is None, (
            f"model not trusted at cap {cap_w}: "
            f"{tuning.fallback_reason()}"
        )
        order = tuning.orders_for(app, spec, cap_w)[TARGET_REGION]

        surr_point, surr_evals = _tune(
            space,
            make_strategy("surrogate", space, seed=SEED, order=order),
            _noisy_objective(_runtime(spec, cap_w), region),
        )
        nm_point, nm_evals = _tune(
            space,
            make_strategy(
                "nelder-mead", space, max_evals=NM_BUDGET, seed=SEED
            ),
            _noisy_objective(_runtime(spec, cap_w), region),
        )

        results.append(
            {
                "cap_w": cap_w,
                "exhaustive_best_s": optimum,
                "surrogate_best_s": truth[space.encode(surr_point)],
                "surrogate_probes": surr_evals,
                "nm_best_s": truth[space.encode(nm_point)],
                "nm_probes": nm_evals,
                # the least-squares fit differs from host to host in
                # its last digits; 12 significant digits reproduce
                "holdout_rel_err": float(
                    f"{model.report.holdout_rel_err:.12g}"
                ),
            }
        )
    return results


def test_surrogate_sample_efficiency(benchmark, save_result):
    results = benchmark.pedantic(
        run_sample_efficiency, rounds=1, iterations=1
    )
    rows = [
        (
            f"{row['cap_w']:g} W",
            f"{row['exhaustive_best_s'] * 1e3:.3f}",
            f"{row['surrogate_best_s'] * 1e3:.3f}",
            row["surrogate_probes"],
            f"{row['nm_best_s'] * 1e3:.3f}",
            row["nm_probes"],
            f"{row['nm_probes'] / row['surrogate_probes']:.1f}x",
        )
        for row in results
    ]
    metrics = {}
    for row in results:
        cap = f"{row['cap_w']:g}W"
        metrics[f"surrogate_best_s[{cap}]"] = {
            "value": row["surrogate_best_s"],
            "direction": "lower",
            "unit": "s",
        }
        metrics[f"surrogate_probes[{cap}]"] = {
            "value": row["surrogate_probes"],
            "direction": "lower",
            "unit": "probes",
        }
        metrics[f"nm_probes[{cap}]"] = {
            "value": row["nm_probes"],
            "direction": "lower",
            "unit": "probes",
        }
        metrics[f"holdout_rel_err[{cap}]"] = {
            "value": row["holdout_rel_err"],
            "direction": "lower",
        }
    save_result(
        "surrogate_sample_efficiency",
        format_table(
            (
                "power cap",
                "exhaustive best (ms)",
                "surrogate best (ms)",
                "surrogate probes",
                "nelder-mead best (ms)",
                "nelder-mead probes",
                "probe advantage",
            ),
            rows,
            title=(
                "Surrogate sample efficiency on SP y_solve "
                "(Crill, leave-one-cap-out)"
            ),
        ),
        metrics=metrics,
        records=results,
        machine="crill",
        seed=SEED,
        config={
            "top_k": TOP_K,
            "nm_budget": NM_BUDGET,
            "target_region": TARGET_REGION,
            "train_regions": list(TRAIN_REGIONS),
            "caps": [cap if cap is not None else "tdp" for cap in ALL_CAPS],
        },
    )
    for row in results:
        # the headline claim: within 5% of the exhaustive optimum in
        # at most a third of Nelder-Mead's probes, at both cap levels
        assert (
            row["surrogate_best_s"]
            <= 1.05 * row["exhaustive_best_s"]
        ), f"surrogate missed the optimum at {row['cap_w']:g} W"
        assert 3 * row["surrogate_probes"] <= row["nm_probes"], (
            f"surrogate spent too many probes at {row['cap_w']:g} W"
        )
