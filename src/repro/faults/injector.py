"""Resolve a :class:`~repro.faults.plan.FaultPlan` against one seeded
run of the scalar protocol engine.

The plan is declarative; this module turns it into the engine's
mechanisms:

* ``fail_silent`` schedules (expanding the successor rule relative to
  the run's initial detector, which is ``S1`` when the signal starts
  covered and ``S2`` when it starts in the coverage gap);
* a time-aware ``link_loss_fn`` for per-link loss and downlink
  blackout windows;
* a stale-membership ``next_peer_override`` that skips satellites the
  (lagging) failure view knows to be dead.

:func:`resolve_seed` is the one per-seed resolution: the signal is
drawn from a generator seeded with the run's seed exactly as a plain
``CenterlineScenario(geometry, params, seed=seed)`` draws it, so a plan
changes the injected faults but never the sampled signal -- paired
comparisons across plans stay paired.  :func:`faulty_scenario` (one
run), :mod:`repro.faults.campaign` (many runs on a shared template)
and the protocol experiment's fail-silent successor all use it.
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Optional, Sequence

import numpy as np

from repro.core.config import EvaluationParams
from repro.core.schemes import Scheme
from repro.faults.plan import FaultPlan
from repro.geometry.plane import PlaneGeometry
from repro.protocol.runner import (
    CenterlineScenario,
    normalise_onset_position,
    resolve_satellite_count,
)
from repro.protocol.satellite import MessagingVariant

__all__ = [
    "SeedFaults",
    "StalePeerView",
    "build_link_loss_fn",
    "faulty_scenario",
    "resolve_seed",
]


def build_link_loss_fn(
    plan: FaultPlan,
) -> Optional[Callable[[float, str, str], float]]:
    """The network's per-message loss hook for ``plan`` (None when the
    plan has neither per-link loss nor blackout windows, so the fast
    scalar-only path stays in force)."""
    if not plan.link_loss and not plan.downlink_blackouts:
        return None

    def loss_fn(now: float, source: str, destination: str) -> float:
        return plan.link_loss_probability(now, source, destination)

    return loss_fn


class StalePeerView:
    """Next-peer selection from a stale failure view.

    The view at simulation time ``t`` contains exactly the failures
    that happened at or before ``t - staleness``; the peer invited is
    the first not-known-failed satellite after the caller in visit
    order.  With ``staleness = 0`` this is an omniscient membership
    service; large staleness converges to the default
    next-in-visit-order rule (failures are never learned in time).
    """

    def __init__(
        self,
        names: Sequence[str],
        failure_times: "dict[str, float]",
        staleness: float,
        scenario: object,
    ):
        # ``scenario`` is anything exposing a ``simulator`` attribute:
        # a CenterlineScenario (None before the first run) or a
        # ScenarioTemplate.
        self._names = list(names)
        self._failure_times = dict(failure_times)
        self._staleness = staleness
        self._scenario = scenario

    def _known_failed(self, now: float) -> "set[str]":
        view_time = now - self._staleness
        return {
            name
            for name, time in self._failure_times.items()
            if time <= view_time
        }

    def __call__(self, name: str) -> Optional[str]:
        simulator = self._scenario.simulator
        now = simulator.now if simulator is not None else 0.0
        failed = self._known_failed(now)
        index = self._names.index(name)
        for candidate in self._names[index + 1 :]:
            if candidate not in failed:
                return candidate
        return None


class SeedFaults(NamedTuple):
    """One seed's resolution of a plan: the signal and the faults to
    inject into the run (see :func:`resolve_seed`)."""

    onset_position: float
    signal_duration: float
    failure_times: Dict[str, float]
    names: Sequence[str]
    staleness: Optional[float]

    def peer_view(self, scenario: object) -> Optional[StalePeerView]:
        """The stale-membership next-peer override reading the clock of
        ``scenario`` (None when the plan keeps the default rule)."""
        if self.staleness is None:
            return None
        return StalePeerView(
            self.names, self.failure_times, self.staleness, scenario
        )


def resolve_seed(
    geometry: PlaneGeometry,
    params: EvaluationParams,
    plan: FaultPlan,
    names: Sequence[str],
    seed,
    *,
    onset_position: Optional[float] = None,
    signal_duration: Optional[float] = None,
) -> SeedFaults:
    """Draw the signal for ``seed`` (onset, then duration; a given
    value skips its draw), find the initial detector and expand the
    plan's failure schedule over the visit order ``names``."""
    probe = np.random.default_rng(seed)
    if onset_position is None:
        onset_position = float(probe.uniform(0.0, geometry.l1))
    else:
        onset_position = normalise_onset_position(geometry, onset_position)
    if signal_duration is None:
        signal_duration = float(probe.exponential(1.0 / params.mu))
    covered = (
        geometry.overlapping
        or onset_position < geometry.single_coverage_length
    )
    return SeedFaults(
        onset_position,
        signal_duration,
        plan.failure_times(names, "S1" if covered else "S2"),
        names,
        plan.membership_staleness,
    )


def faulty_scenario(
    geometry: PlaneGeometry,
    params: EvaluationParams,
    plan: FaultPlan,
    *,
    scheme: Scheme = Scheme.OAQ,
    variant: MessagingVariant = MessagingVariant.DONE_PROPAGATION,
    seed: int,
    onset_position: Optional[float] = None,
    signal_duration: Optional[float] = None,
    satellite_count: Optional[int] = None,
) -> CenterlineScenario:
    """A :class:`CenterlineScenario` with ``plan`` injected.

    The signal is drawn as a plain ``CenterlineScenario(geometry,
    params, seed=seed)`` would draw it, and the protocol's draws start
    from a fresh generator with the same seed -- the same per-seed
    contract as the fault campaign's runs.
    """
    count = resolve_satellite_count(geometry, params, satellite_count)
    names = [f"S{j + 1}" for j in range(count)]
    faults = resolve_seed(
        geometry,
        params,
        plan,
        names,
        seed,
        onset_position=onset_position,
        signal_duration=signal_duration,
    )
    scenario = CenterlineScenario(
        geometry,
        params,
        scheme=scheme,
        variant=variant,
        onset_position=faults.onset_position,
        signal_duration=faults.signal_duration,
        fail_silent=faults.failure_times,
        crosslink_loss_probability=plan.crosslink_loss,
        link_loss_fn=build_link_loss_fn(plan),
        satellite_count=count,
        seed=seed,
    )
    scenario.next_peer_override = faults.peer_view(scenario)
    return scenario
