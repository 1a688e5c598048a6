"""The ARCS policy - the heart of the framework.

"Using the policy engine, we designed a policy to tune OpenMP thread
count, schedule, and chunk size based upon the reduced search space
... At program initialization, the policy registers itself with the
APEX policy engine, and receives callbacks whenever an APEX timer is
started or stopped. ... When a timer is started for a parallel region
which has not been previously encountered, the policy starts an Active
Harmony tuning session for that parallel region.  When a timer is
stopped, the policy reports the time to complete the parallel region.
When a timer is started for a parallel region which has been
previously encountered, the policy sets the number of threads,
schedule, and chunk size to the next value requested by the tuning
session, or, if tuning has converged, to the converged values."
(Section III-B)

Modes:

* *search* (default): per-region tuning sessions with a pluggable
  Harmony strategy (``"nelder-mead"`` for ARCS-Online, ``"exhaustive"``
  for the ARCS-Offline tuning run);
* *replay*: apply configurations from a history file without
  searching (the ARCS-Offline measured run);
* *selective* (the paper's future-work extension): regions whose
  per-call time is below a threshold are never tuned, avoiding the
  Section V-C overhead collapse on tiny LULESH regions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.apex.policy import Policy, TimerEventContext
from repro.core.config import (
    config_from_point,
    default_start_point,
    search_space_for,
)
from repro.core.overhead import search_overhead_s
from repro.harmony.engine import make_strategy
from repro.harmony.session import MeasurementGuard, TuningSession
from repro.harmony.space import SearchSpace
from repro.openmp.runtime import OpenMPRuntime
from repro.openmp.types import OMPConfig, default_config
from repro.telemetry.bus import bus
from repro.util.rng import derive_seed


#: objective functions available for tuning sessions.  The paper tunes
#: for time; ``energy`` and ``edp`` (energy-delay product) are natural
#: extensions once the DVFS dimension exists.
OBJECTIVES = ("time", "energy", "edp")

#: per-source apply-counter names, precomputed - _apply runs once per
#: region invocation and the f-string shows up in the telemetry
#: overhead budget.
_APPLY_COUNTERS = {
    source: f"policy.applies.{source}"
    for source in ("search", "converged", "replay", "pinned", "degraded")
}


class MissingRegionConfigError(KeyError):
    """Replay mode hit a region with no saved configuration.

    A replayed run silently executing unknown regions with whatever
    configuration happens to be current defeats the point of
    ARCS-Offline's measured run, so the policy fails loudly instead."""

    def __init__(self, region: str, known: tuple[str, ...]) -> None:
        self.region = region
        self.known = known
        super().__init__(
            f"replay history has no configuration for region "
            f"{region!r}; saved regions: {list(known) or 'none'}"
        )

    def __str__(self) -> str:  # KeyError quotes its arg; keep prose
        return self.args[0]


@dataclass
class RegionTuningState:
    """Bookkeeping the policy keeps per OpenMP region."""

    session: TuningSession | None = None
    applied: OMPConfig | None = None
    applied_freq_ghz: float | None = None
    skipped: bool = False          # selective mode opted out
    first_elapsed_s: float | None = None
    executions: int = 0
    #: why tuning gave up on this region (``None`` = healthy); when
    #: set, the region runs the default configuration from then on.
    degraded: str | None = None
    #: the resolved start point the session was created with (the warm
    #: start, or the policy default).
    session_start: tuple[int, ...] | None = None
    #: restart count at the last batched-prefetch hint; -1 = never
    #: hinted.  Re-hinting happens once per strategy instance (session
    #: start and each divergence restart), when the strategy's preview
    #: is worth a vectorized prefetch.
    hinted_restarts: int = -1


class ArcsPolicy(Policy):
    """APEX policy implementing ARCS."""

    name = "arcs"

    def __init__(
        self,
        runtime: OpenMPRuntime,
        strategy: str = "nelder-mead",
        space: SearchSpace | None = None,
        max_evals: int = 40,
        replay: dict[str, OMPConfig] | None = None,
        selective_threshold_s: float | None = None,
        cap_aware: bool = False,
        objective: str = "time",
        seed: int = 0,
        surrogate_orders: (
            dict[str, tuple[tuple[int, ...], ...]] | None
        ) = None,
    ) -> None:
        if objective not in OBJECTIVES:
            raise ValueError(
                f"objective must be one of {OBJECTIVES}, got {objective!r}"
            )
        if objective != "time" and not (
            runtime.node.spec.supports_energy_counters
        ):
            raise ValueError(
                f"objective {objective!r} needs energy counters, which "
                f"{runtime.node.spec.name} does not expose"
            )
        self.objective = objective
        self.runtime = runtime
        self.strategy_name = strategy
        self.space = space or search_space_for(runtime.node.spec)
        self.max_evals = max_evals
        self.replay = dict(replay) if replay is not None else None
        self.selective_threshold_s = selective_threshold_s
        #: Section II: "the resource manager may ... adjust [nodes']
        #: power level dynamically.  To get the best per node
        #: performance at each power level, the runtime configurations
        #: need to be changed dynamically."  With ``cap_aware`` the
        #: policy keeps one tuning session per (region, power level):
        #: a mid-run cap change opens fresh sessions instead of
        #: trusting configurations tuned for the old level.
        self.cap_aware = cap_aware
        self.seed = seed
        #: model-ranked probe orders per region (base region name, no
        #: cap suffix), consumed by the ``"surrogate"`` strategy; a
        #: region with no order searches with Nelder-Mead instead (the
        #: cold-region half of the fallback contract).
        self.surrogate_orders = (
            dict(surrogate_orders) if surrogate_orders else None
        )
        self.regions: dict[str, RegionTuningState] = {}
        #: regions the watchdog pinned to the default configuration
        #: (region name -> reason).  A pinned region is never tuned
        #: again for the rest of the run, at any power level.
        self._pinned: dict[str, str] = {}
        self._start_point = default_start_point(
            runtime.node.spec, self.space
        )
        self._tunes_frequency = any(
            p.name == "freq_ghz" for p in self.space.parameters
        )
        #: search point -> (config, frequency ceiling), decoded once:
        #: every region invocation applies one
        self._decoded: dict[tuple, tuple[OMPConfig, float | None]] = {}

    def _state_key(self, region_name: str) -> str:
        if not self.cap_aware:
            return region_name
        cap = self.runtime.node.rapl.effective_cap_w(
            0, self.runtime.node.now_s
        )
        cap_label = "tdp" if cap is None else f"{cap:g}W"
        return f"{region_name}@{cap_label}"

    # ------------------------------------------------------------------
    # Policy callbacks
    # ------------------------------------------------------------------
    def on_timer_start(self, context: TimerEventContext) -> None:
        key = self._state_key(context.timer_name)
        state = self.regions.get(key)
        if state is None:
            state = RegionTuningState()
            self.regions[key] = state
        state.executions += 1

        if self.replay is not None:
            config = self.replay.get(context.timer_name)
            if config is None:
                raise MissingRegionConfigError(
                    context.timer_name, tuple(sorted(self.replay))
                )
            self._apply(state, config, context.timer_name, "replay")
            return

        pin = self._pinned.get(context.timer_name)
        if pin is not None:
            if state.degraded is None:
                state.degraded = pin
            self._apply(
                state, self._default_config(), context.timer_name,
                "pinned",
            )
            return

        if state.skipped:
            return

        if state.session is None:
            if (
                self.selective_threshold_s is not None
                and state.first_elapsed_s is None
            ):
                # selective mode measures the first call with the
                # current config before deciding whether to tune
                return
            start = self._warm_start(context.timer_name)
            state.session_start = (
                start if start is not None else self._start_point
            )
            state.session = self._new_session(key, start=start)

        if state.session.failed:
            # degraded mode: tuning could not produce a trusted
            # configuration, so run the paper's default instead of
            # crashing or trusting a corrupted simplex.
            if state.degraded is None:
                state.degraded = (
                    state.session.failure_reason or "tuning diverged"
                )
            self._apply(
                state, self._default_config(), context.timer_name,
                "degraded",
            )
            return

        if state.hinted_restarts != state.session.stats.restarts:
            state.hinted_restarts = state.session.stats.restarts
            self._hint_probes(context.timer_name, state.session)

        config, freq = self._decode(state.session.suggest())
        source = "converged" if state.session.converged else "search"
        self._apply(state, config, context.timer_name, source)
        if self._tunes_frequency:
            if freq != self.runtime.frequency_limit():
                self.runtime.set_frequency_limit(freq)
            state.applied_freq_ghz = freq

    def on_timer_stop(self, context: TimerEventContext) -> None:
        state = self.regions.get(self._state_key(context.timer_name))
        if state is None or context.elapsed_s is None:
            return
        if state.first_elapsed_s is None:
            state.first_elapsed_s = context.elapsed_s
            if (
                self.selective_threshold_s is not None
                and self.replay is None
                and state.session is None
            ):
                if context.elapsed_s < self.selective_threshold_s:
                    state.skipped = True
                return
        if (
            state.session is not None
            and self.replay is None
            and not state.session.failed
        ):
            value = self._objective_value(context)
            accepted = state.session.report(value)
            tb = bus()
            if tb.enabled:
                tb.count("policy.reports")
                tb.emit(
                    "policy.report",
                    region=context.timer_name,
                    objective=value,
                    accepted=accepted,
                    cap_w=self._cap_w(),
                )

    def _objective_value(self, context: TimerEventContext) -> float:
        if self.objective == "time" or context.record is None:
            return context.elapsed_s or 0.0
        if self.objective == "energy":
            return context.record.energy_j
        # energy-delay product
        return context.record.energy_j * (context.elapsed_s or 0.0)

    # ------------------------------------------------------------------
    def _warm_start(self, region_name: str) -> tuple[int, ...] | None:
        """In cap-aware mode, seed a new power level's search with the
        best configuration found for the same region at the *nearest*
        already-tuned power level - optima shift with the cap but
        rarely jump far, so the closer the donor level, the faster the
        re-tuning search converges.  Ties prefer the lower cap (its
        optimum is the conservative choice under a tighter budget)."""
        if not self.cap_aware:
            return None
        current = self.runtime.node.rapl.effective_cap_w(
            0, self.runtime.node.now_s
        )
        tdp_w = self.runtime.node.spec.tdp_w
        current_w = tdp_w if current is None else current
        candidates: list[tuple[float, float, tuple[int, ...]]] = []
        for key, state in self.regions.items():
            name, sep, cap_label = key.rpartition("@")
            if not sep or name != region_name:
                continue
            if state.session is None:
                continue
            point = state.session.best_point()
            if point is None:
                continue
            cap_w = (
                tdp_w if cap_label == "tdp" else float(cap_label[:-1])
            )
            candidates.append(
                (abs(cap_w - current_w), cap_w, self.space.encode(point))
            )
        if not candidates:
            return None
        candidates.sort(key=lambda c: (c[0], c[1]))
        return candidates[0][2]

    def pin_region(self, region_name: str, reason: str) -> None:
        """Permanently pin ``region_name`` to the default configuration
        (the watchdog's second escalation rung).  Applies across every
        power level, including levels not yet encountered."""
        self._pinned[region_name] = reason
        for key, state in self.regions.items():
            if key.split("@")[0] != region_name:
                continue
            if state.degraded is None:
                state.degraded = reason

    def _default_config(self) -> OMPConfig:
        return default_config(self.runtime.node.spec.total_hw_threads)

    def _decode(
        self, indices: tuple[int, ...]
    ) -> tuple[OMPConfig, float | None]:
        decoded = self._decoded.get(indices)
        if decoded is None:
            point = self.space.decode(indices)
            freq = point.get("freq_ghz")
            decoded = (
                config_from_point(point),
                None if freq is None else float(freq),  # type: ignore[arg-type]
            )
            self._decoded[indices] = decoded
        return decoded

    def _hint_probes(
        self, region_name: str, session: TuningSession
    ) -> None:
        """Pass the session's probe preview to the runtime as a
        batched-prefetch hint.  Happens once per strategy instance -
        the preview covers the configs the strategy will definitely ask
        for up front (the whole exhaustive/random plan, a simplex's
        initial vertices); later asks depend on measurements and run
        through the scalar path unchanged."""
        preview = session.probe_preview()
        if not preview:
            return
        configs: list[OMPConfig] = []
        seen: set[OMPConfig] = set()
        for indices in preview:
            config = self._decode(indices)[0]
            if config not in seen:
                seen.add(config)
                configs.append(config)
        self.runtime.hint_probes(region_name, tuple(configs))

    def _session_strategy(
        self, region_name: str
    ) -> tuple[str, tuple[tuple[int, ...], ...] | None]:
        """Resolve the strategy (and probe order) for one region's
        session.  Only the ``"surrogate"`` strategy is region-
        dependent: a region the model produced no ranking for searches
        with Nelder-Mead instead - the per-region half of the fallback
        contract (the whole-run half lives in the runner)."""
        if self.strategy_name != "surrogate":
            return self.strategy_name, None
        orders = self.surrogate_orders or {}
        order = orders.get(region_name)
        if order is None:
            # cap-aware state keys carry an ``@<cap>`` suffix; orders
            # are keyed by the bare region name.
            base, sep, _ = region_name.rpartition("@")
            if sep:
                order = orders.get(base)
        if order is None:
            return "nelder-mead", None
        return "surrogate", order

    def _new_session(
        self, region_name: str, start: tuple[int, ...] | None = None
    ) -> TuningSession:
        start_point = start if start is not None else self._start_point
        strategy_name, order = self._session_strategy(region_name)
        strategy = make_strategy(
            strategy_name,
            self.space,
            max_evals=self.max_evals,
            seed=derive_seed(self.seed, "arcs-session", region_name),
            start=start_point,
            order=order,
        )
        restart_ids = itertools.count(1)

        def restarted_strategy():
            # a fresh simplex for divergence recovery, seeded on a
            # stream distinct from the original (and from previous
            # restarts) so a restart never replays the diverged path.
            return make_strategy(
                strategy_name,
                self.space,
                max_evals=self.max_evals,
                seed=derive_seed(
                    self.seed,
                    "arcs-session",
                    region_name,
                    "restart",
                    next(restart_ids),
                ),
                start=start_point,
                order=order,
            )

        return TuningSession(
            self.space,
            strategy,
            guard=MeasurementGuard(),
            strategy_factory=restarted_strategy,
            name=region_name,
        )

    def _cap_w(self) -> float | None:
        return self.runtime.node.rapl.effective_cap_w(
            0, self.runtime.node.now_s
        )

    def _apply(
        self,
        state: RegionTuningState,
        config: OMPConfig,
        region: str | None = None,
        source: str = "search",
    ) -> None:
        """Drive the runtime to ``config``; only touches the runtime
        routines whose value actually changes (each call costs real
        configuration-changing overhead)."""
        current = self.runtime.current_config()
        if config.n_threads != current.n_threads:
            self.runtime.omp_set_num_threads(config.n_threads)
        if (config.schedule, config.chunk) != (
            current.schedule,
            current.chunk,
        ):
            self.runtime.omp_set_schedule(config.schedule, config.chunk)
        state.applied = config
        tb = bus()
        if tb.enabled:
            tb.count("policy.applies")
            tb.count(_APPLY_COUNTERS.get(source)
                     or f"policy.applies.{source}")
            tb.emit(
                "policy.apply",
                region=region or "?",
                config=config.label(),
                source=source,
                cap_w=self._cap_w(),
            )

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def sessions(self) -> dict[str, TuningSession]:
        return {
            name: state.session
            for name, state in self.regions.items()
            if state.session is not None
        }

    def all_converged(self) -> bool:
        """True when every tuned region's session has converged (regions
        skipped by selective mode, replayed regions and failed sessions
        count as done - a failed session will never converge)."""
        sessions = self.sessions()
        if self.replay is not None:
            return True
        if not sessions:
            return False
        return all(s.converged or s.failed for s in sessions.values())

    def degradations(self) -> dict[str, str]:
        """Regions that fell back to the default configuration, with
        the reason tuning gave up on each."""
        return {
            name: state.degraded
            for name, state in sorted(self.regions.items())
            if state.degraded is not None
        }

    def best_configs(self) -> dict[str, OMPConfig]:
        """Best configuration found per region (search modes), or the
        replayed mapping.  Degraded regions report the default
        configuration - the one actually applied - rather than a best
        point from a corrupted search."""
        if self.replay is not None:
            return dict(self.replay)
        configs = {}
        for name, session in self.sessions().items():
            if session.failed:
                configs[name] = self._default_config()
                continue
            point = session.best_point()
            if point is not None:
                configs[name] = config_from_point(point)
        return configs

    def best_points(self) -> dict[str, dict[str, object]]:
        """Full best search-space points (including the ``freq_ghz``
        dimension when tuning with DVFS)."""
        points = {}
        for name, session in self.sessions().items():
            point = session.best_point()
            if point is not None:
                points[name] = point
        return points

    def best_values(self) -> dict[str, float]:
        values = {}
        for name, session in self.sessions().items():
            value = session.best_value()
            if value is not None:
                values[name] = value
        return values

    def search_overhead_s(self) -> float:
        return search_overhead_s(self.sessions())
