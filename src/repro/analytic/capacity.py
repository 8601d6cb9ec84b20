"""Orbital-plane capacity model ``P(k)`` (paper Section 4.2.2, Fig. 7).

The paper computes the steady-state probability that an orbital plane
has ``k`` active operational satellites with an UltraSAN model of the
plane's degradation and spare-deployment behaviour.  Steady-state
analysis is justified because signal occurrence is Poisson (PASTA).
We rebuild that model on :mod:`repro.san`:

* the plane starts with 14 active satellites and 2 in-orbit spares;
* each active satellite fails independently at rate ``lambda`` (the
  exponential ``failure`` activity has the marking-dependent rate
  ``k * lambda``);
* an in-orbit spare replaces a failed satellite immediately while
  spares remain (instantaneous ``deploy_in_orbit_spare``);
* the **threshold-triggered ground-spare deployment policy** keeps the
  plane from operating below the threshold ``eta``: when the capacity
  would drop below ``eta`` (spares exhausted), a replacement ground
  spare is launched, arriving after a deterministic
  ``replacement latency``.  The paper motivates this reading -- "the
  threshold-triggered ground-spare deployment policy prevents the
  scenario in which the plane's capacity drops below the threshold from
  happening" (Section 4.3) -- and it is the only policy structure we
  found that reproduces Fig. 7's shape (``P(eta)`` dominant at high
  ``lambda``, ``P(eta - 1)`` small but reachable) *and* Fig. 9's
  OAQ/BAQ anchor values simultaneously;
* the **scheduled ground-spare deployment policy** restores the plane
  to its original capacity (14 active + 2 in-orbit spares) every
  ``phi`` hours (deterministic clock).

The paper does not publish the replacement latency; the default
(168 hours) is our calibration -- see EXPERIMENTS.md for the
sensitivity study.

Solution paths:

* :func:`capacity_distribution` -- numerical: reachability graph,
  Erlang phase-type unfolding of the two deterministic timers,
  sparse steady-state solve;
* :func:`capacity_distribution_simulated` -- discrete-event simulation
  of the same SAN with *exact* deterministic timers (cross-check);
* :func:`capacity_distribution_exponential` -- all-exponential variant
  (timers replaced by exponentials of equal mean), the crudest
  approximation, used in the ablation benchmark.

The numerical paths are **memoized**: ``P(k)`` depends only on the
frozen :class:`CapacityModelConfig` and the stage count, so sweeps over
``tau`` / ``mu`` (and repeated figure regenerations) reuse one solve
per distinct key.  Both the final distributions and the intermediate
structures are cached in module-level
:class:`~repro.analytic.solve_cache.LRUSolveCache` instances;
:func:`capacity_cache_stats` exposes hit/miss counters for tests and
benchmarks, :func:`capacity_caches_disabled` restores the seed's
solve-per-call behaviour for baseline measurements.

Sweeps varying a *rate* (failure rate ``lambda``, the period ``phi``,
the replacement latency) additionally exploit the **topology/rate
split** (:mod:`repro.san.assembled`): the expensive reachability +
unfolding structure is cached per *topology*
(:func:`assemble_capacity_topology`), each parameter point re-rates the
arrays in microseconds, and successive steady states on one topology
are warm-started iterative solves seeded from the previous point's
``pi`` (with automatic fallback to the direct factorisation).
:func:`capacity_stage_timings` and :func:`capacity_solver_stats`
expose the per-stage costs and solve-method counters.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro import obs
from repro.analytic.distributions import Deterministic, Exponential
from repro.analytic.solve_cache import CacheStats, LRUSolveCache
from repro.core.config import EvaluationParams
from repro.errors import ConfigurationError, ModelError
from repro.san import (
    AssembledChain,
    Case,
    InputGate,
    InstantaneousActivity,
    LumpedStateSpace,
    OutputGate,
    Place,
    PlaceIndex,
    SANModel,
    SANSimulator,
    SteadyStateWarmStart,
    TimedActivity,
    assemble,
    from_state_space,
    generate,
    lumped_state_space,
    steady_state_marking_distribution,
    unfold,
)

__all__ = [
    "CapacityModelConfig",
    "assemble_capacity_topology",
    "build_capacity_san",
    "build_capacity_san_expanded",
    "capacity_distribution",
    "capacity_distribution_expanded",
    "capacity_distribution_simulated",
    "capacity_distribution_exponential",
    "capacity_transient",
    "capacity_cross_check",
    "capacity_cache_stats",
    "capacity_cache_snapshot",
    "capacity_caches_disabled",
    "capacity_solver_stats",
    "capacity_stage_timings",
    "capacity_topology_key",
    "clear_capacity_caches",
    "configure_capacity_caches",
    "expanded_capacity_summary",
    "seed_capacity_cache",
]


#: Valid ``deployment_policy`` values: which ground-spare deployment
#: machinery the SAN contains (a structural choice, see the topology
#: key).
_DEPLOYMENT_POLICIES = frozenset({"combined", "threshold", "scheduled"})


@dataclass(frozen=True)
class CapacityModelConfig:
    """Parameters of the orbital-plane capacity model.

    Attributes
    ----------
    full_capacity:
        Active satellites when the plane is at its original capacity
        (14).
    in_orbit_spares:
        In-orbit spares available for immediate replacement (2).
    failure_rate_per_hour:
        Per-satellite failure rate ``lambda``.
    threshold:
        ``eta`` -- the plane is sustained at this capacity by the
        threshold-triggered ground-spare deployment policy.
    scheduled_period_hours:
        ``phi`` -- period of the scheduled full restore.
    replacement_latency_hours:
        Launch-to-arrival latency of a threshold-triggered replacement
        ground spare (not published in the paper; calibrated).
    deployment_policy:
        Which ground-spare deployment machinery the plane runs --
        ``"combined"`` (the paper's model: both policies active, the
        default), ``"threshold"`` (no scheduled restore clock) or
        ``"scheduled"`` (no threshold trigger).  This is a *structural*
        choice: it adds or removes activities, so it is part of the
        topology key and two policies never share an assembled chain.
    repair_rate_per_hour:
        Optional on-orbit repair/servicing: each failed satellite is
        independently restored to service at this exponential rate.
        ``None`` (the default) omits the repair activity entirely
        (structural absence); a float -- **including exactly 0.0** --
        keeps the activity in the topology at that rate, so a design
        sweep crossing zero stays on one assembled structure and
        re-rates in place (zero-rate transitions are dropped by the
        CTMC, never by the topology).
    """

    full_capacity: int = 14
    in_orbit_spares: int = 2
    failure_rate_per_hour: float = 1e-5
    threshold: int = 10
    scheduled_period_hours: float = 30000.0
    replacement_latency_hours: float = 168.0
    deployment_policy: str = "combined"
    repair_rate_per_hour: Optional[float] = None

    def __post_init__(self) -> None:
        if self.full_capacity < 1:
            raise ConfigurationError(
                f"full_capacity must be >= 1, got {self.full_capacity}"
            )
        if self.in_orbit_spares < 0:
            raise ConfigurationError(
                f"in_orbit_spares must be >= 0, got {self.in_orbit_spares}"
            )
        if self.failure_rate_per_hour <= 0:
            raise ConfigurationError(
                f"failure_rate_per_hour must be positive, got "
                f"{self.failure_rate_per_hour}"
            )
        if not 1 <= self.threshold <= self.full_capacity:
            raise ConfigurationError(
                f"threshold must be in [1, {self.full_capacity}], got "
                f"{self.threshold}"
            )
        if self.scheduled_period_hours <= 0:
            raise ConfigurationError(
                f"scheduled_period_hours must be positive, got "
                f"{self.scheduled_period_hours}"
            )
        if self.replacement_latency_hours <= 0:
            raise ConfigurationError(
                f"replacement_latency_hours must be positive, got "
                f"{self.replacement_latency_hours}"
            )
        if self.deployment_policy not in _DEPLOYMENT_POLICIES:
            raise ConfigurationError(
                f"deployment_policy must be one of "
                f"{sorted(_DEPLOYMENT_POLICIES)}, got "
                f"{self.deployment_policy!r}"
            )
        if self.repair_rate_per_hour is not None and (
            self.repair_rate_per_hour < 0
        ):
            raise ConfigurationError(
                f"repair_rate_per_hour must be >= 0 (or None to omit "
                f"repair), got {self.repair_rate_per_hour}"
            )

    @classmethod
    def from_params(cls, params: EvaluationParams) -> "CapacityModelConfig":
        """Build from an :class:`EvaluationParams` (Fig. 7-9 sweeps)."""
        return cls(
            full_capacity=params.constellation.active_per_plane,
            in_orbit_spares=params.constellation.in_orbit_spares_per_plane,
            failure_rate_per_hour=params.lam,
            threshold=params.eta,
            scheduled_period_hours=params.phi,
            replacement_latency_hours=params.replacement_latency_hours,
        )


def build_capacity_san(
    config: CapacityModelConfig, *, exponential_timers: bool = False
) -> SANModel:
    """Construct the orbital-plane SAN.

    Places: ``active`` (operational satellites in service), ``spares``
    (in-orbit spares), ``pending`` (threshold-triggered replacement
    launches in flight).

    Setting ``exponential_timers`` replaces the deterministic scheduled
    clock and replacement latency with exponentials of the same mean
    (used by the ablation study).

    ``config.deployment_policy`` selects the ground-spare machinery:
    ``"threshold"`` drops the scheduled clock, ``"scheduled"`` drops
    the threshold trigger, ``"combined"`` (default) keeps both.  A
    non-``None`` ``config.repair_rate_per_hour`` adds an on-orbit
    ``repair`` activity restoring failed satellites to service at
    ``rho * (full - active)``.
    """
    full = config.full_capacity
    eta = config.threshold
    policy = config.deployment_policy

    places = [
        Place("active", full),
        Place("spares", config.in_orbit_spares),
        Place("pending", 0),
    ]

    failure = TimedActivity.exponential(
        "failure",
        lambda m: config.failure_rate_per_hour * m["active"],
        input_arcs={"active": 1},
    )

    def restore_full(m) -> None:
        m["active"] = full
        m["spares"] = config.in_orbit_spares
        m["pending"] = 0

    if exponential_timers:
        scheduled_dist = Exponential(1.0 / config.scheduled_period_hours)
        replacement_dist = Exponential(1.0 / config.replacement_latency_hours)
    else:
        scheduled_dist = Deterministic(config.scheduled_period_hours)
        replacement_dist = Deterministic(config.replacement_latency_hours)

    scheduled = TimedActivity(
        "scheduled_deployment",
        scheduled_dist,
        input_gates=[
            # Always enabled: the launch schedule is a free-running clock.
            InputGate("always", predicate=lambda m: True),
        ],
        cases=[
            # Restore to original capacity; in-flight replacements are
            # superseded by the full restore.
            Case(
                output_gates=[OutputGate("restore_full", restore_full)]
            )
        ],
    )

    if config.repair_rate_per_hour is None:
        arrival_cases = [Case(output_arcs={"active": 1})]
    else:
        # With on-orbit repair the failed satellite may already be back
        # in service when the replacement arrives; the late spare is
        # then discarded (the launch was wasted).  Unreachable without
        # repair, so the plain-arc case above keeps the no-repair
        # topology identical to the paper's model.
        def arrive_or_discard(m) -> None:
            if m["active"] < full:
                m["active"] += 1

        arrival_cases = [
            Case(output_gates=[OutputGate("arrive_or_discard", arrive_or_discard)])
        ]

    replacement_arrival = TimedActivity(
        "replacement_arrival",
        replacement_dist,
        input_arcs={"pending": 1},
        cases=arrival_cases,
    )

    deploy_spare = InstantaneousActivity(
        "deploy_in_orbit_spare",
        priority=2,
        input_arcs={"spares": 1},
        input_gates=[
            InputGate("slot_open", predicate=lambda m: m["active"] < full)
        ],
        cases=[
            Case(
                output_arcs={"active": 1}
            )
        ],
    )

    threshold_trigger = InstantaneousActivity(
        "threshold_trigger",
        priority=1,
        input_gates=[
            InputGate(
                "below_threshold",
                predicate=lambda m: (
                    m["spares"] == 0 and m["active"] + m["pending"] < eta
                ),
            )
        ],
        cases=[
            Case(
                output_arcs={"pending": 1}
            )
        ],
    )

    timed = [failure]
    if policy in ("combined", "scheduled"):
        timed.append(scheduled)
    timed.append(replacement_arrival)
    if config.repair_rate_per_hour is not None:
        timed.append(
            TimedActivity.exponential(
                "repair",
                lambda m: config.repair_rate_per_hour * (full - m["active"]),
                input_gates=[
                    InputGate(
                        "repairable", predicate=lambda m: m["active"] < full
                    )
                ],
                cases=[Case(output_arcs={"active": 1})],
            )
        )
    instantaneous = [deploy_spare]
    if policy in ("combined", "threshold"):
        instantaneous.append(threshold_trigger)
    return SANModel(
        places,
        timed_activities=timed,
        instantaneous_activities=instantaneous,
        name="orbital-plane-capacity",
    )


def _satellite_names(full: int) -> Tuple[str, ...]:
    return tuple(f"sat_{i}" for i in range(1, full + 1))


def build_capacity_san_expanded(config: CapacityModelConfig) -> SANModel:
    """The *per-satellite* formulation of the orbital-plane SAN.

    Instead of one counter place ``active``, every satellite gets its
    own binary place ``sat_i`` -- the natural formulation when
    satellites carry identity (per-satellite rewards, heterogeneous
    extensions) and the stress test for state lumping: the tangible
    state space is exponential in the satellite count
    (:math:`2^{\\text{full}} + \\text{spares}` markings versus the
    counted model's handful), but every permutation of the identical
    satellites is a symmetry, declared via ``exchangeable_groups`` and
    collapsed exactly by :mod:`repro.san.lumping`.  The quotient is the
    counted model's chain, so ``P(k)`` matches
    :func:`capacity_distribution` to solver precision.

    Repairs (spare deployment, replacement arrival) pick the satellite
    to restore *uniformly among the failed ones* -- the choice is
    probabilistically irrelevant for identical satellites, and the
    uniform tie-break is what keeps the model exactly symmetric (a
    deterministic "lowest index first" rule would break exact
    lumpability: low-index satellites would accumulate more uptime).

    Honours ``config.deployment_policy`` and
    ``config.repair_rate_per_hour`` exactly like
    :func:`build_capacity_san`; the per-satellite ``repair`` activity
    fires at ``rho * down_count`` and picks the restored satellite
    uniformly among the failed ones (same symmetry argument as the
    other repairs), so the quotient stays the counted model's chain.
    """
    full = config.full_capacity
    eta = config.threshold
    policy = config.deployment_policy
    sats = _satellite_names(full)

    places = [Place(s, 1) for s in sats] + [
        Place("spares", config.in_orbit_spares),
        Place("pending", 0),
    ]

    failures = [
        TimedActivity.exponential(
            f"failure_{i}",
            config.failure_rate_per_hour,
            input_arcs={s: 1},
        )
        for i, s in enumerate(sats, 1)
    ]

    # Gate code runs once per case per marking in every re-rate check,
    # so the satellite positions are resolved once and the down count
    # of a marking is shared by all of its cases (one-entry memo).
    sat_positions = PlaceIndex(p.name for p in places).positions(sats)
    last_down = ((), 0)

    def down_count_of(marking) -> int:
        nonlocal last_down
        key, down = last_down
        if marking != key:
            down = full - sum(map(marking.__getitem__, sat_positions))
            last_down = (marking, down)
        return down

    def down_count(m) -> int:
        return down_count_of(m.freeze())

    def repair_case(position: int, s: str) -> Case:
        def probability(m) -> float:
            marking = m.freeze()
            down = down_count_of(marking)
            return (1 - marking[position]) / down if down else 0.0

        return Case(probability=probability, output_arcs={s: 1})

    def repair_cases() -> List[Case]:
        return [repair_case(p, s) for p, s in zip(sat_positions, sats)]

    def restore_full(m) -> None:
        for s in sats:
            m[s] = 1
        m["spares"] = config.in_orbit_spares
        m["pending"] = 0

    scheduled = TimedActivity(
        "scheduled_deployment",
        Deterministic(config.scheduled_period_hours),
        input_gates=[InputGate("always", predicate=lambda m: True)],
        cases=[Case(output_gates=[OutputGate("restore_full", restore_full)])],
    )

    if config.repair_rate_per_hour is None:
        arrival_cases = repair_cases()
    else:
        # Mirror of the counted model's arrive-or-discard: with repair,
        # a replacement can arrive at a fully-healthy plane (down == 0)
        # and is discarded.  The discard probability is symmetric under
        # satellite permutation, so the exact lumpability is preserved.
        def discard_probability(m) -> float:
            return 1.0 if down_count(m) == 0 else 0.0

        arrival_cases = repair_cases() + [
            Case(probability=discard_probability)
        ]

    replacement_arrival = TimedActivity(
        "replacement_arrival",
        Deterministic(config.replacement_latency_hours),
        input_arcs={"pending": 1},
        cases=arrival_cases,
    )

    deploy_spare = InstantaneousActivity(
        "deploy_in_orbit_spare",
        priority=2,
        input_arcs={"spares": 1},
        input_gates=[
            InputGate("slot_open", predicate=lambda m: down_count(m) > 0)
        ],
        cases=repair_cases(),
    )

    threshold_trigger = InstantaneousActivity(
        "threshold_trigger",
        priority=1,
        input_gates=[
            InputGate(
                "below_threshold",
                predicate=lambda m: (
                    m["spares"] == 0
                    and (full - down_count(m)) + m["pending"] < eta
                ),
            )
        ],
        cases=[Case(output_arcs={"pending": 1})],
    )

    timed = [*failures]
    if policy in ("combined", "scheduled"):
        timed.append(scheduled)
    timed.append(replacement_arrival)
    if config.repair_rate_per_hour is not None:
        timed.append(
            TimedActivity.exponential(
                "repair",
                lambda m: config.repair_rate_per_hour * down_count(m),
                input_gates=[
                    InputGate(
                        "repairable", predicate=lambda m: down_count(m) > 0
                    )
                ],
                cases=repair_cases(),
            )
        )
    instantaneous = [deploy_spare]
    if policy in ("combined", "threshold"):
        instantaneous.append(threshold_trigger)
    return SANModel(
        places,
        timed_activities=timed,
        instantaneous_activities=instantaneous,
        name="orbital-plane-capacity-expanded",
        exchangeable_groups=[sats],
    )


# ----------------------------------------------------------------------
# Memoization layer
# ----------------------------------------------------------------------
# Final P(k) dictionaries are tiny; the unfolded chains are not, so the
# structural caches are kept small.  Distribution keys are
# (config, stages, variant); unfold keys are (config, stages); assemble
# keys are topology-only (_topology_key) so every rate point of a sweep
# shares one structure.
_DISTRIBUTION_CACHE = LRUSolveCache(maxsize=256, name="capacity-distribution")
_UNFOLD_CACHE = LRUSolveCache(maxsize=8, name="capacity-unfold")
_ASSEMBLE_CACHE = LRUSolveCache(maxsize=8, name="capacity-assemble")
_CACHING_ENABLED = True

# Per-stage wall-clock seconds and solver counters live in the
# process-wide counter registry (repro.obs); the experiment engine
# reports run-level deltas, benchmarks and tests read them directly.
obs.declare(
    "capacity.stage.", ("assemble", "refine", "quotient", "rerate", "solve"), 0.0
)
obs.declare(
    "capacity.solver.",
    ("direct", "iterative", "warm_started", "gmres_iterations",
     "solver_fallbacks", "structure_fallbacks"),
)


def capacity_stage_timings() -> Dict[str, float]:
    """Cumulative seconds this process spent in the solver stages:
    ``assemble`` (reachability + array-native unfolding), ``refine``
    (symmetry verification: canonical-orbit reachability of the
    expanded model), ``quotient`` (assembling the reduced chain from
    the verified orbit space), ``rerate`` (rate evaluation + CTMC
    build) and ``solve`` (steady-state linear algebra).  ``refine`` and
    ``quotient`` accrue once per lumped topology however many rate
    points are swept on it -- the composition the lumping tests pin."""
    return obs.section(obs.snapshot(), "capacity.stage.")


def capacity_solver_stats() -> Dict[str, int]:
    """Counters of how capacity steady states were obtained.

    ``direct`` / ``iterative`` count solve methods, ``warm_started``
    the solves seeded from a previous point, ``gmres_iterations`` the
    total inner iterations, ``solver_fallbacks`` iterative attempts
    that fell back to direct, and ``structure_fallbacks`` re-rate
    attempts rejected by topology validation (full rebuild taken).
    """
    return obs.section(obs.snapshot(), "capacity.solver.")


def _note_solution(solution) -> None:
    obs.add(
        "capacity.solver.iterative"
        if solution.method == "gmres"
        else "capacity.solver.direct"
    )
    if solution.warm_started:
        obs.add("capacity.solver.warm_started")
    obs.add("capacity.solver.gmres_iterations", solution.iterations)
    if solution.fallback is not None:
        obs.add("capacity.solver.solver_fallbacks")


def capacity_cache_stats() -> Dict[str, CacheStats]:
    """Hit/miss/eviction counters of the capacity caches.

    ``distribution`` misses count actual steady-state solves, the
    quantity the experiment engine's tests pin down ("a 9-point tau
    sweep performs exactly one capacity solve"); ``assemble`` misses
    count structure builds -- one per distinct topology, however many
    rate points are solved on it.
    """
    return {
        "distribution": _DISTRIBUTION_CACHE.stats(),
        "unfold": _UNFOLD_CACHE.stats(),
        "assemble": _ASSEMBLE_CACHE.stats(),
    }


def clear_capacity_caches(*, reset_stats: bool = False) -> None:
    """Drop all cached solves, including assembled topologies and their
    warm-start state (counters survive unless asked not to)."""
    _DISTRIBUTION_CACHE.clear(reset_stats=reset_stats)
    _UNFOLD_CACHE.clear(reset_stats=reset_stats)
    _ASSEMBLE_CACHE.clear(reset_stats=reset_stats)
    if reset_stats:
        obs.reset("capacity.")


def configure_capacity_caches(
    *,
    distribution_maxsize: Optional[int] = None,
    unfold_maxsize: Optional[int] = None,
    assemble_maxsize: Optional[int] = None,
) -> None:
    """Resize the caches (evicting LRU entries when shrinking)."""
    if distribution_maxsize is not None:
        _DISTRIBUTION_CACHE.resize(distribution_maxsize)
    if unfold_maxsize is not None:
        _UNFOLD_CACHE.resize(unfold_maxsize)
    if assemble_maxsize is not None:
        _ASSEMBLE_CACHE.resize(assemble_maxsize)


def capacity_cache_snapshot():
    """The distribution cache's ``(key, P(k))`` entries -- what the
    parallel sweep runner ships to worker processes so a shared solve
    is not repeated per worker."""
    return _DISTRIBUTION_CACHE.snapshot()


def seed_capacity_cache(entries) -> None:
    """Install precomputed distribution entries (worker-side)."""
    _DISTRIBUTION_CACHE.seed(entries)


@contextmanager
def capacity_caches_disabled() -> Iterator[None]:
    """Temporarily restore solve-per-call behaviour (benchmark
    baselines).  Not safe under concurrent use from other threads."""
    global _CACHING_ENABLED
    previous = _CACHING_ENABLED
    _CACHING_ENABLED = False
    try:
        yield
    finally:
        _CACHING_ENABLED = previous


def _memoized(cache: LRUSolveCache, key, factory):
    if not _CACHING_ENABLED:
        return factory()
    return cache.get_or_compute(key, factory)


def _unfolded_chain(config: CapacityModelConfig, stages: int):
    """Cached (model, space, chain) triple for the deterministic-timer
    SAN -- shared by the transient path and the full-rebuild fallback."""

    def build():
        with obs.timed("capacity.stage.assemble"):
            model = build_capacity_san(config)
            space = generate(model)
            chain = unfold(space, stages=stages)
        return model, space, chain

    return _memoized(_UNFOLD_CACHE, (config, stages), build)


# ----------------------------------------------------------------------
# Topology/rate split
# ----------------------------------------------------------------------
def _topology_key(config: CapacityModelConfig, stages: int) -> Tuple:
    """The fields that determine the SAN's *structure*.  The rate
    parameters (failure rate, scheduled period, replacement latency,
    repair rate) only scale transitions, so every point of a rate sweep
    maps to the same key and shares one assembled chain.  Everything
    structural must appear here: the spare count and threshold change
    the reachable markings, the deployment policy and the *presence* of
    a repair activity (``repair_rate_per_hour is not None`` -- the rate
    value itself, including 0.0, is a rate) add or remove activities.
    Two design-grid cells that differ in any of these must never alias
    onto one cached structure."""
    return (
        config.full_capacity,
        config.in_orbit_spares,
        config.threshold,
        config.deployment_policy,
        config.repair_rate_per_hour is not None,
        stages,
    )


def capacity_topology_key(config: CapacityModelConfig, stages: int) -> Tuple:
    """Public form of the topology/rate split: the hashable key under
    which ``(config, stages)`` shares an assembled structure (and its
    warm-start state) with every other rate point on the same topology.
    The campaign orchestrator uses it as an affinity key so cells that
    share a topology execute consecutively on one worker."""
    return _topology_key(config, stages)


class _AssembledTopology:
    """One cached topology: the assembled chain plus the warm-start
    state threaded between successive solves on it."""

    __slots__ = ("chain", "lock", "warm_start")

    def __init__(self, chain: AssembledChain):
        self.chain = chain
        self.lock = threading.Lock()
        self.warm_start: Optional[SteadyStateWarmStart] = None


def _assembled_topology(
    config: CapacityModelConfig, stages: int
) -> _AssembledTopology:
    def build() -> _AssembledTopology:
        with obs.timed("capacity.stage.assemble"):
            model = build_capacity_san(config)
            space = generate(model)
            chain = assemble(space, stages=stages)
        return _AssembledTopology(chain)

    return _memoized(_ASSEMBLE_CACHE, _topology_key(config, stages), build)


def assemble_capacity_topology(
    config: CapacityModelConfig, *, stages: int = 24
) -> AssembledChain:
    """The re-ratable assembled chain for ``config``'s topology.

    Cached on the topology fields only (see :func:`_topology_key`);
    sweeps varying a rate reuse one structure.  The experiment engine
    calls this up front (``preassemble``) so workers inherit a built
    topology."""
    return _assembled_topology(config, stages).chain


def _marking_capacity_distribution(marking_probs, model: SANModel) -> Dict[int, float]:
    position = model.place_index.position("active")
    result: Dict[int, float] = {}
    for marking, probability in marking_probs.items():
        k = marking[position]
        result[k] = result.get(k, 0.0) + probability
    return {k: result[k] for k in sorted(result)}


def _solve_full_rebuild(
    config: CapacityModelConfig, stages: int
) -> Dict[int, float]:
    """The pre-split pipeline: regenerate, unfold and solve directly.
    Kept as the fallback when topology validation rejects a re-rate."""
    model, space, chain = _unfolded_chain(config, stages)
    with obs.timed("capacity.stage.solve"):
        by_marking_index = chain.steady_state_markings()
    marking_probs = {
        space.markings[idx]: prob for idx, prob in by_marking_index.items()
    }
    return _marking_capacity_distribution(marking_probs, model)


def _steady_state_marking_marginals(entry: _AssembledTopology, model: SANModel):
    """Re-rate ``entry``'s chain from ``model``, solve (warm-started)
    and return the tangible-marking marginals.  A structural mismatch
    propagates as :class:`ModelError` for the caller's fallback."""
    chain = entry.chain
    with obs.timed("capacity.stage.rerate"):
        ctmc = chain.rerate(model)
    with obs.timed("capacity.stage.solve"):
        with entry.lock:
            warm_start = entry.warm_start if _CACHING_ENABLED else None
            solution = ctmc.steady_state_solve(
                method="auto",
                warm_start=warm_start,
                prepare_warm_start=_CACHING_ENABLED,
            )
            if _CACHING_ENABLED and solution.warm_start is not None:
                entry.warm_start = solution.warm_start
        _note_solution(solution)
    return chain.marking_marginals(solution.pi)


def capacity_distribution(
    config: CapacityModelConfig, *, stages: int = 24
) -> Dict[int, float]:
    """Steady-state ``P(k)`` by phase-type unfolding of the SAN.

    ``stages`` controls the Erlang approximation of the two
    deterministic timers; 24 keeps the error well under simulation
    noise for the paper's parameter ranges (see the ablation
    benchmark).

    Memoized on ``(config, stages)``: repeated calls return the cached
    distribution without re-running the SAN pipeline.  Distinct configs
    sharing a topology (rate sweeps) share one assembled structure and
    only re-rate + solve per point; successive solves on a topology
    warm-start from the previous stationary vector
    (:meth:`repro.san.ctmc.CTMC.steady_state_solve`), falling back to
    the full rebuild path on any structural mismatch.
    """

    def solve() -> Dict[int, float]:
        entry = _assembled_topology(config, stages)
        model = build_capacity_san(config)
        try:
            marginals = _steady_state_marking_marginals(entry, model)
        except ModelError:
            # The new config changed the structure (should not happen
            # for capacity configs -- the topology key covers every
            # structural field -- but re-rating must never be wrong).
            obs.add("capacity.solver.structure_fallbacks")
            return _solve_full_rebuild(config, stages)
        position = model.place_index.position("active")
        result: Dict[int, float] = {}
        for marking, probability in zip(
            entry.chain.space.markings, marginals.tolist()
        ):
            k = marking[position]
            result[k] = result.get(k, 0.0) + probability
        return {k: result[k] for k in sorted(result)}

    result = _memoized(_DISTRIBUTION_CACHE, (config, stages, "erlang"), solve)
    return dict(result)


# ----------------------------------------------------------------------
# Expanded (per-satellite) model: the lumping showcase
# ----------------------------------------------------------------------
def _expanded_topology_key(
    config: CapacityModelConfig, stages: int, lumped: bool
) -> Tuple:
    """Lumping-aware topology key: the quotient and the full expanded
    structures are distinct cache entries (different state spaces,
    different warm-start vectors)."""
    return ("expanded", bool(lumped)) + _topology_key(config, stages)


def _expanded_assembled_topology(
    config: CapacityModelConfig, stages: int, *, lumped: bool
) -> _AssembledTopology:
    def build() -> _AssembledTopology:
        model = build_capacity_san_expanded(config)
        if lumped:
            # Refine once per topology: the canonical-orbit reachability
            # (symmetry verification included) and the quotient assembly
            # are cached with the chain, so a rate sweep pays them once
            # and re-rates per point, exactly like the counted path.
            with obs.timed("capacity.stage.refine"):
                space = lumped_state_space(model)
            with obs.timed("capacity.stage.quotient"):
                chain = assemble(space, stages=stages)
        else:
            with obs.timed("capacity.stage.assemble"):
                space = generate(model)
                chain = assemble(space, stages=stages)
        return _AssembledTopology(chain)

    return _memoized(
        _ASSEMBLE_CACHE, _expanded_topology_key(config, stages, lumped), build
    )


def _solve_expanded_pk(
    entry: _AssembledTopology, config: CapacityModelConfig
) -> Dict[int, float]:
    model = build_capacity_san_expanded(config)
    marginals = _steady_state_marking_marginals(entry, model)
    positions = model.place_index.positions(
        _satellite_names(config.full_capacity)
    )
    result: Dict[int, float] = {}
    for marking, probability in zip(
        entry.chain.space.markings, marginals.tolist()
    ):
        k = sum(marking[p] for p in positions)
        result[k] = result.get(k, 0.0) + probability
    return {k: result[k] for k in sorted(result)}


def capacity_distribution_expanded(
    config: CapacityModelConfig, *, stages: int = 24, lump: bool = True
) -> Dict[int, float]:
    """Steady-state ``P(k)`` of the per-satellite expanded plane model
    (:func:`build_capacity_san_expanded`).

    With ``lump`` (the default) the chain is built on the verified
    orbit quotient (:func:`repro.san.lumping.lumped_state_space`):
    state count collapses from :math:`O(2^{\\text{satellites}})` to the
    counted model's handful, which is what makes scaled constellations
    (:mod:`repro.experiments.scaled_capacity_exp`) solvable at all.
    Any :class:`ModelError` on the lumped path -- a non-lumpable model
    variant, a broken symmetry -- falls back to the unlumped expanded
    chain (counted in ``structure_fallbacks``).

    Memoized and topology-split like :func:`capacity_distribution`:
    rate sweeps refine/assemble once per topology, re-rate per point
    and warm-start successive solves.
    """

    def solve() -> Dict[int, float]:
        if lump:
            try:
                entry = _expanded_assembled_topology(
                    config, stages, lumped=True
                )
                return _solve_expanded_pk(entry, config)
            except ModelError:
                obs.add("capacity.solver.structure_fallbacks")
        entry = _expanded_assembled_topology(config, stages, lumped=False)
        return _solve_expanded_pk(entry, config)

    variant = "expanded-lumped" if lump else "expanded-full"
    result = _memoized(_DISTRIBUTION_CACHE, (config, stages, variant), solve)
    return dict(result)


def expanded_capacity_summary(
    config: CapacityModelConfig, *, stages: int = 24
) -> Dict[str, object]:
    """Size accounting of the lumped expanded topology: how many orbit
    representatives stand for how many tangible markings, and the
    unfolded quotient's dimensions.  Builds (and caches) the lumped
    topology as a side effect."""
    entry = _expanded_assembled_topology(config, stages, lumped=True)
    space = entry.chain.space
    assert isinstance(space, LumpedStateSpace)
    return {
        "orbit_representatives": len(space),
        "full_tangible_markings": space.full_state_count,
        "marking_reduction": space.full_state_count / len(space),
        "quotient_states": entry.chain.num_states,
        "quotient_transitions": entry.chain.num_transitions,
    }


def capacity_cross_check(
    config: CapacityModelConfig,
    *,
    stages: int = 24,
    include_unlumped: bool = False,
) -> Dict[str, object]:
    """Cross-solver agreement report for one capacity configuration.

    Solves ``P(k)`` through the counted chain
    (:func:`capacity_distribution`) and the symmetry-lumped expanded
    chain (:func:`capacity_distribution_expanded`), optionally also the
    *unlumped* expanded chain (exponential state space -- only feasible
    for small ``full_capacity``), and reports the maximum pointwise
    deltas.  The scenario-corpus conformance harness
    (:mod:`repro.scenarios.runner`) scores these deltas per cell."""
    counted = capacity_distribution(config, stages=stages)
    lumped = capacity_distribution_expanded(config, stages=stages, lump=True)
    ks = sorted(set(counted) | set(lumped))
    report: Dict[str, object] = {
        "counted": counted,
        "lumped": lumped,
        "lumped_vs_counted_delta": max(
            abs(counted.get(k, 0.0) - lumped.get(k, 0.0)) for k in ks
        ),
    }
    if include_unlumped:
        unlumped = capacity_distribution_expanded(
            config, stages=stages, lump=False
        )
        ks = sorted(set(lumped) | set(unlumped))
        report["unlumped"] = unlumped
        report["lumped_vs_unlumped_delta"] = max(
            abs(lumped.get(k, 0.0) - unlumped.get(k, 0.0)) for k in ks
        )
    return report


def capacity_distribution_exponential(
    config: CapacityModelConfig,
) -> Dict[int, float]:
    """Steady-state ``P(k)`` with all timers exponentialised (ablation
    baseline: what you get without deterministic-activity support).
    Memoized like :func:`capacity_distribution`."""

    def solve() -> Dict[int, float]:
        model = build_capacity_san(config, exponential_timers=True)
        space = generate(model)
        ctmc = from_state_space(space)
        pi = ctmc.steady_state()
        marking_probs = steady_state_marking_distribution(space, pi)
        return _marking_capacity_distribution(marking_probs, model)

    result = _memoized(
        _DISTRIBUTION_CACHE, (config, None, "exponential"), solve
    )
    return dict(result)


def capacity_distribution_simulated(
    config: CapacityModelConfig,
    *,
    horizon_hours: float = 3.0e6,
    warmup_hours: float = 1.0e5,
    seed: Optional[int] = None,
) -> Dict[int, float]:
    """Steady-state ``P(k)`` estimated by discrete-event simulation of
    the SAN with exact deterministic timers."""
    model = build_capacity_san(config)
    simulator = SANSimulator(model, seed=seed)
    result = simulator.run(horizon_hours, warmup=warmup_hours, rewards={})
    position = model.place_index.position("active")
    distribution: Dict[int, float] = {}
    for marking, fraction in result.marking_occupancy.items():
        k = marking[position]
        distribution[k] = distribution.get(k, 0.0) + fraction
    return {k: distribution[k] for k in sorted(distribution)}


#: Uniformisation truncation tolerance for transient solves.  Tight
#: enough that the incremental (advance-from-previous-point) and
#: from-scratch evaluation orders agree to well below 1e-12 even after
#: accumulating truncation error across many time points.
_TRANSIENT_TOLERANCE = 1e-14


def capacity_transient(
    config: CapacityModelConfig,
    times,
    *,
    stages: int = 16,
    incremental: bool = True,
) -> "Dict[float, Dict[int, float]]":
    """Time-dependent capacity distribution ``P(k at t)`` (hours),
    starting from a freshly deployed plane (14 active + 2 spares).

    An extension beyond the paper's steady-state evaluation (PASTA
    justified steady state there): useful for questions like "how
    degraded is the constellation likely to be halfway through a
    scheduled-deployment period?".  Solved by uniformisation on the
    phase-type-unfolded chain (cached, so evaluating more time points
    later reuses the structural work).

    With ``incremental`` (the default) the time points are evaluated in
    sorted order and each solve advances the state vector from the
    previous point over ``t - t_prev`` instead of restarting the
    Poisson sum from ``t = 0`` -- the total uniformisation work is one
    pass over ``max(times)`` rather than ``sum(times)``.  The Markov
    property makes the two orders mathematically identical; the shared
    truncation tolerance keeps them numerically identical to well
    below 1e-12.
    """
    model, space, chain = _unfolded_chain(config, stages)
    position = model.place_index.position("active")

    def marginal(probabilities) -> Dict[int, float]:
        by_marking = chain.marginalise(probabilities)
        distribution: Dict[int, float] = {}
        for marking_index, probability in by_marking.items():
            k = space.markings[marking_index][position]
            distribution[k] = distribution.get(k, 0.0) + probability
        return {k: distribution[k] for k in sorted(distribution)}

    unique_times = sorted({float(t) for t in times})
    by_time: Dict[float, Dict[int, float]] = {}
    if incremental:
        previous_time = 0.0
        vector = None
        for t in unique_times:
            vector = chain.ctmc.transient(
                t - previous_time,
                initial=vector,
                tolerance=_TRANSIENT_TOLERANCE,
            )
            previous_time = t
            by_time[t] = marginal(vector)
    else:
        for t in unique_times:
            by_time[t] = marginal(
                chain.ctmc.transient(t, tolerance=_TRANSIENT_TOLERANCE)
            )
    # Preserve the caller's key set / iteration order (duplicates
    # collapse onto the same float key exactly as before).
    return {float(t): by_time[float(t)] for t in times}
