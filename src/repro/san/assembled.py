"""Phase-type (Erlang) unfolding of a SAN into an array-native chain.

The paper's capacity model relies on UltraSAN's support for
**deterministic activity times** (the scheduled-deployment period
``phi`` and the launch delay).  We solve such models numerically by
replacing each deterministic delay ``d`` with an Erlang distribution of
``n`` stages and rate ``n/d`` -- same mean, squared coefficient of
variation ``1/n`` -- and expanding the state space with per-activity
stage counters.  As ``n`` grows the unfolded chain converges to the
Markov-regenerative behaviour of the deterministic model; the SAN
simulator (:mod:`repro.san.simulator`), which handles deterministic
delays exactly, is used to cross-check (see the ablation benchmark).
Unfolding semantics match the engine's execution rules: an activity
keeps its accumulated stages while it remains enabled across other
completions (preemptive-resume) and loses them when it becomes disabled
(preemptive-restart).  Explicit ``Erlang`` activities keep their own
shape.

This module is also the *structure phase* of the topology/rate split.
The expensive part of solving a SAN at many parameter points is not the
linear algebra -- it is rebuilding the Python object graph (tangible
reachability BFS + Erlang unfolding) for every point even when only the
*rates* change.  :func:`assemble` runs the unfolding BFS once per
topology and emits an :class:`AssembledChain`:

* augmented states encoded as integers
  ``marking_index * stage_span + sum(stage_a * stride_a)`` (a
  mixed-radix code over the global stage capacities of the general
  activities) instead of interned ``(marking, ((name, stage), ...))``
  tuples;
* transitions as flat ``(source, target, slot, weight)`` COO-style
  arrays, where ``slot`` indexes a small per-topology table of
  :class:`RateSlot` records -- one per ``(tangible marking, activity)``
  pair -- and ``weight`` carries the structural case / stabilisation
  probability.

The *rate phase* is then :meth:`AssembledChain.rerate`: evaluate one
rate per slot from a (re-parameterised but topology-identical) model --
a few dozen Python calls -- and gather ``rate_vector[slot] * weight``
over the transition arrays to build a :class:`~repro.san.ctmc.CTMC`
with :meth:`~repro.san.ctmc.CTMC.from_arrays`.  Re-rating a 10k-state
chain costs microseconds of numpy instead of a fresh BFS.

:meth:`AssembledChain.rate_vector` validates (by default) that the new
model really is topology-identical: same places, same enabled timed /
instantaneous activity sets in every tangible marking, same case
probabilities, and compatible distribution families (a Deterministic
timer may only be swapped for an Erlang of the recorded stage count).
A :class:`~repro.errors.ModelError` signals that the caller must fall
back to a full rebuild.

A one-off solve is ``assemble(space).rerate(space.model)`` followed by
:meth:`AssembledChain.marking_marginals` of the solved vector; sweeps
hold the :class:`AssembledChain` and call ``rerate`` per point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analytic.distributions import (
    Deterministic,
    Distribution,
    Erlang,
    Exponential,
)
from repro.errors import ModelError, StateSpaceExplosionError
from repro.san.ctmc import CTMC
from repro.san.model import SANModel, TimedActivity
from repro.san.reachability import StateSpace

__all__ = ["RateSlot", "AssembledChain", "assemble"]

#: Case probabilities are structural; a re-rated model must reproduce
#: them to this absolute tolerance.
_CASE_PROBABILITY_TOLERANCE = 1e-12


@dataclass(frozen=True)
class RateSlot:
    """One rateable ``(tangible marking, activity)`` pair.

    ``kind`` is ``"exponential"`` for markovian activities and
    ``"phase"`` for unfolded general (Deterministic/Erlang) ones;
    ``stages`` is 1 for exponential slots and the Erlang stage count
    otherwise.  ``case_probabilities`` snapshots the activity's case
    distribution in the marking -- structural data revalidated on
    re-rate.
    """

    marking_index: int
    activity: str
    kind: str
    stages: int
    case_probabilities: Tuple[float, ...]


def _phase_stage_count(
    activity: str, distribution: Distribution, stages: int
) -> int:
    """Erlang stage count of one general activity: ``stages`` for a
    Deterministic timer, the explicit shape of an Erlang."""
    if isinstance(distribution, Deterministic):
        if distribution.value <= 0:
            raise ModelError(
                f"activity {activity!r} has zero deterministic "
                "delay; model it as instantaneous instead"
            )
        return stages
    if isinstance(distribution, Erlang):
        return distribution.shape
    if isinstance(distribution, Exponential):  # pragma: no cover - defensive
        raise ModelError(
            f"activity {activity!r} is exponential; it should "
            "appear among the markovian transitions"
        )
    raise ModelError(
        f"activity {activity!r} has unsupported distribution "
        f"{distribution!r}; phase-type unfolding handles Deterministic and "
        "Erlang activities"
    )


def _phase_rate(
    slot: RateSlot, distribution: Distribution
) -> float:
    """Per-stage rate of a phase slot under a (new) distribution whose
    stage count must match the assembled structure."""
    if isinstance(distribution, Deterministic):
        if distribution.value <= 0:
            raise ModelError(
                f"activity {slot.activity!r} has zero deterministic "
                "delay; model it as instantaneous instead"
            )
        return slot.stages / distribution.value
    if isinstance(distribution, Erlang):
        if distribution.shape != slot.stages:
            raise ModelError(
                f"activity {slot.activity!r}: Erlang shape changed from "
                f"{slot.stages} to {distribution.shape}; the stage structure "
                "is topology, re-assemble instead of re-rating"
            )
        return distribution.rate
    raise ModelError(
        f"activity {slot.activity!r} changed to unsupported distribution "
        f"{distribution!r}; phase slots accept Deterministic (of the "
        f"assembled stage count {slot.stages}) or matching Erlang"
    )


class AssembledChain:
    """The re-ratable, array-native form of an unfolded SAN.

    Built by :func:`assemble`; everything here except
    :meth:`rate_vector` (which evaluates a new model's distributions)
    is pure array data.
    """

    def __init__(
        self,
        *,
        space: StateSpace,
        stages: int,
        general_names: Tuple[str, ...],
        stage_capacities: Tuple[int, ...],
        stage_strides: Tuple[int, ...],
        stage_span: int,
        codes: np.ndarray,
        marking_of_state: np.ndarray,
        transition_source: np.ndarray,
        transition_target: np.ndarray,
        transition_slot: np.ndarray,
        transition_weight: np.ndarray,
        slots: Tuple[RateSlot, ...],
        initial_distribution: Tuple[Tuple[float, int], ...],
        enabled_timed_names: Tuple[Tuple[str, ...], ...],
    ):
        self.space = space
        self.stages = stages
        #: Sorted names of the general (phase-unfolded) activities.
        self.general_names = general_names
        #: Mixed-radix digit capacity per general activity (max stages).
        self.stage_capacities = stage_capacities
        self.stage_strides = stage_strides
        self.stage_span = stage_span
        #: Integer code of each augmented state, in discovery order.
        self.codes = codes
        #: Tangible-marking index of each augmented state (codes // span).
        self.marking_of_state = marking_of_state
        self.transition_source = transition_source
        self.transition_target = transition_target
        self.transition_slot = transition_slot
        self.transition_weight = transition_weight
        self.slots = slots
        self.initial_distribution = initial_distribution
        self._enabled_timed_names = enabled_timed_names

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def num_states(self) -> int:
        return int(self.codes.shape[0])

    @property
    def num_transitions(self) -> int:
        return int(self.transition_source.shape[0])

    @property
    def num_slots(self) -> int:
        return len(self.slots)

    def describe(self) -> str:
        """One-line summary for logs and reports."""
        return (
            f"AssembledChain({self.space.model.name}: {self.num_states} "
            f"states, {self.num_transitions} transitions, "
            f"{self.num_slots} rate slots, stages={self.stages})"
        )

    # ------------------------------------------------------------------
    # Rate phase
    # ------------------------------------------------------------------
    def rate_vector(
        self, model: SANModel, *, validate: bool = True
    ) -> np.ndarray:
        """Evaluate one base rate per slot from ``model``.

        ``model`` must be topology-identical to the one this chain was
        assembled from: same places, same enabled-activity structure,
        same case probabilities, compatible distributions.  With
        ``validate`` (the default) those invariants are checked and a
        :class:`ModelError` is raised on any mismatch -- callers treat
        that as "fall back to a full rebuild".
        """
        if model.place_index.names != self.space.model.place_index.names:
            raise ModelError(
                f"model {model.name!r} has places {model.place_index.names}, "
                f"assembled topology has {self.space.model.place_index.names}"
            )
        activities: Dict[str, TimedActivity] = {
            a.name: a for a in model.timed_activities
        }
        if validate:
            self._validate_topology(model, activities)
        rates = np.empty(self.num_slots, dtype=float)
        markings = self.space.markings
        place_index = model.place_index
        for position, slot in enumerate(self.slots):
            activity = activities.get(slot.activity)
            if activity is None:
                raise ModelError(
                    f"model {model.name!r} has no timed activity "
                    f"{slot.activity!r} required by the assembled topology"
                )
            distribution = activity.distribution_in(
                place_index, markings[slot.marking_index]
            )
            if slot.kind == "exponential":
                if not isinstance(distribution, Exponential):
                    raise ModelError(
                        f"activity {slot.activity!r} changed from exponential "
                        f"to {distribution!r}; that changes the topology"
                    )
                rates[position] = distribution.rate
            else:
                rates[position] = _phase_rate(slot, distribution)
        if np.any(rates < 0.0):
            bad = self.slots[int(np.argmin(rates))]
            raise ModelError(
                f"activity {bad.activity!r} evaluated to a negative rate"
            )
        return rates

    def _validate_topology(
        self, model: SANModel, activities: Dict[str, TimedActivity]
    ) -> None:
        place_index = model.place_index
        for marking_index, marking in enumerate(self.space.markings):
            enabled = tuple(
                sorted(a.name for a in model.enabled_timed(marking))
            )
            if enabled != self._enabled_timed_names[marking_index]:
                raise ModelError(
                    f"marking {marking_index} enables timed activities "
                    f"{enabled}, assembled topology recorded "
                    f"{self._enabled_timed_names[marking_index]}"
                )
            if model.enabled_instantaneous(marking):
                raise ModelError(
                    f"marking {marking_index} is no longer tangible: "
                    "an instantaneous activity became enabled"
                )
        for slot in self.slots:
            activity = activities.get(slot.activity)
            if activity is None:
                raise ModelError(
                    f"model {model.name!r} has no timed activity "
                    f"{slot.activity!r} required by the assembled topology"
                )
            probabilities = tuple(
                activity.case_probabilities(
                    place_index, self.space.markings[slot.marking_index]
                )
            )
            # Exact equality (the usual outcome) settles the check in C;
            # only differing tuples need the per-case tolerance test.
            if probabilities != slot.case_probabilities and (
                len(probabilities) != len(slot.case_probabilities)
                or any(
                    abs(p - q) > _CASE_PROBABILITY_TOLERANCE
                    for p, q in zip(probabilities, slot.case_probabilities)
                )
            ):
                raise ModelError(
                    f"activity {slot.activity!r}: case probabilities changed "
                    f"in marking {slot.marking_index} "
                    f"({slot.case_probabilities} -> {probabilities}); "
                    "case structure is topology"
                )

    def transition_rates(self, rate_vector: np.ndarray) -> np.ndarray:
        """Per-transition rates: ``rate_vector[slot] * weight``."""
        rate_vector = np.asarray(rate_vector, dtype=float)
        if rate_vector.shape != (self.num_slots,):
            raise ModelError(
                f"rate vector has shape {rate_vector.shape}, expected "
                f"({self.num_slots},)"
            )
        return rate_vector[self.transition_slot] * self.transition_weight

    def rerate(
        self,
        model: Optional[SANModel] = None,
        *,
        rate_vector: Optional[np.ndarray] = None,
        validate: bool = True,
    ) -> CTMC:
        """Build the CTMC for a new parameter point.

        Pass either a topology-identical ``model`` (rates are evaluated
        with :meth:`rate_vector`) or a precomputed ``rate_vector``.
        """
        if rate_vector is None:
            if model is None:
                raise ModelError("rerate needs a model or a rate_vector")
            rate_vector = self.rate_vector(model, validate=validate)
        return CTMC.from_arrays(
            self.num_states,
            self.transition_source,
            self.transition_target,
            self.transition_rates(rate_vector),
            initial_distribution=self.initial_distribution,
        )

    # ------------------------------------------------------------------
    # Projections
    # ------------------------------------------------------------------
    def marking_marginals(self, pi: np.ndarray) -> np.ndarray:
        """Marginalise a distribution over augmented states onto the
        tangible markings (length ``len(self.space)`` array)."""
        return np.bincount(
            self.marking_of_state,
            weights=np.asarray(pi, dtype=float),
            minlength=len(self.space),
        )


def assemble(
    space: StateSpace,
    *,
    stages: int = 24,
    max_states: int = 2_000_000,
) -> AssembledChain:
    """Unfold ``space`` into an array-native, re-ratable chain.

    Runs the stage-augmented BFS over integer state codes (FIFO
    frontier, so states are numbered in discovery order), and factors
    every transition rate into ``rate_vector[slot] * weight`` so the
    chain can be re-rated without regeneration.  ``stages`` is the
    Erlang stage count used for Deterministic activities (explicit
    Erlangs keep their own shape).
    """
    if stages < 1:
        raise ModelError(f"stages must be >= 1, got {stages}")

    model = space.model
    place_index = model.place_index
    activities: Dict[str, TimedActivity] = {
        a.name: a for a in model.timed_activities
    }

    general_by_source = space.general_by_source()
    # Stage count and structural targets per (source marking, activity).
    spec_stages: Dict[Tuple[int, str], int] = {}
    spec_targets: Dict[Tuple[int, str], Tuple[Tuple[float, int], ...]] = {}
    for source, transitions in general_by_source.items():
        for transition in transitions:
            key = (source, transition.activity)
            spec_stages[key] = _phase_stage_count(
                transition.activity, transition.distribution, stages
            )
            spec_targets[key] = transition.targets

    markovian_by_source: Dict[int, List] = {}
    for transition in space.markovian:
        markovian_by_source.setdefault(transition.source, []).append(transition)

    # Mixed-radix layout: one digit per general activity, capacity = the
    # activity's largest stage count over all source markings.
    general_names = tuple(sorted({t.activity for t in space.general}))
    positions = {name: i for i, name in enumerate(general_names)}
    capacities = [1] * len(general_names)
    for (_, name), count in spec_stages.items():
        capacities[positions[name]] = max(capacities[positions[name]], count)
    strides = [1] * len(general_names)
    for i in range(1, len(general_names)):
        strides[i] = strides[i - 1] * capacities[i - 1]
    stage_span = strides[-1] * capacities[-1] if general_names else 1

    enabled_general: List[Tuple[str, ...]] = [
        tuple(sorted(t.activity for t in general_by_source.get(m, ())))
        for m in range(len(space))
    ]

    # Rate slots, in deterministic first-use order (markovian
    # transitions first, then general -- the BFS emit order).
    slot_index: Dict[Tuple[int, str], int] = {}
    slots: List[RateSlot] = []

    def slot_for(marking_index: int, name: str, kind: str, count: int) -> int:
        key = (marking_index, name)
        position = slot_index.get(key)
        if position is None:
            activity = activities[name]
            case_probabilities = tuple(
                activity.case_probabilities(
                    place_index, space.markings[marking_index]
                )
            )
            position = len(slots)
            slot_index[key] = position
            slots.append(
                RateSlot(
                    marking_index=marking_index,
                    activity=name,
                    kind=kind,
                    stages=count,
                    case_probabilities=case_probabilities,
                )
            )
        return position

    for transition in space.markovian:
        slot_for(transition.source, transition.activity, "exponential", 1)
    for transition in space.general:
        slot_for(
            transition.source,
            transition.activity,
            "phase",
            spec_stages[(transition.source, transition.activity)],
        )

    # Integer-coded BFS.  States are processed in discovery order (a
    # FIFO frontier).
    code_index: Dict[int, int] = {}
    codes: List[int] = []

    def intern(code: int) -> int:
        state = code_index.get(code)
        if state is None:
            if len(codes) >= max_states:
                raise StateSpaceExplosionError(
                    max_states,
                    marking=space.marking_dict(code // stage_span),
                )
            state = len(codes)
            code_index[code] = state
            codes.append(code)
        return state

    initial_distribution: List[Tuple[float, int]] = []
    for probability, marking_index in space.initial_distribution:
        initial_distribution.append(
            (probability, intern(marking_index * stage_span))
        )

    source_list: List[int] = []
    target_list: List[int] = []
    slot_list: List[int] = []
    weight_list: List[float] = []

    def emit(
        source_state: int, target_code: int, slot: int, weight: float
    ) -> None:
        source_list.append(source_state)
        target_list.append(intern(target_code))
        slot_list.append(slot)
        weight_list.append(weight)

    state = 0
    while state < len(codes):
        code = codes[state]
        marking_index, remainder = divmod(code, stage_span)
        enabled = enabled_general[marking_index]
        # Current stage of every running general activity.
        running = {
            name: (remainder // strides[positions[name]])
            % capacities[positions[name]]
            for name in enabled
        }

        def target_code_for(target_marking: int, carried: Dict[str, int]) -> int:
            # Stages enabled in the target marking: kept if previously
            # running (preemptive-resume), zero if newly enabled
            # (preemptive-restart); stages of disabled activities drop.
            base = target_marking * stage_span
            for name in enabled_general[target_marking]:
                stage = carried.get(name, 0)
                if stage:
                    base += stage * strides[positions[name]]
            return base

        # Exponential completions carry the running stages over.
        for transition in markovian_by_source.get(marking_index, ()):
            emit(
                state,
                target_code_for(transition.target, running),
                slot_index[(marking_index, transition.activity)],
                transition.probability,
            )

        # Stage advances / completions of each running general activity.
        for name in enabled:
            stage = running[name]
            key = (marking_index, name)
            slot = slot_index[key]
            if stage < spec_stages[key] - 1:
                advanced = dict(running)
                advanced[name] = stage + 1
                emit(state, target_code_for(marking_index, advanced), slot, 1.0)
            else:
                carried = {k: v for k, v in running.items() if k != name}
                for probability, target_marking in spec_targets[key]:
                    if probability == 0.0:
                        continue
                    emit(
                        state,
                        target_code_for(target_marking, carried),
                        slot,
                        probability,
                    )
        state += 1

    codes_array = np.asarray(codes, dtype=np.int64)
    enabled_timed_names = tuple(
        tuple(sorted(a.name for a in model.enabled_timed(marking)))
        for marking in space.markings
    )
    return AssembledChain(
        space=space,
        stages=stages,
        general_names=general_names,
        stage_capacities=tuple(capacities),
        stage_strides=tuple(strides),
        stage_span=stage_span,
        codes=codes_array,
        marking_of_state=(codes_array // stage_span).astype(np.int64),
        transition_source=np.asarray(source_list, dtype=np.int64),
        transition_target=np.asarray(target_list, dtype=np.int64),
        transition_slot=np.asarray(slot_list, dtype=np.int64),
        transition_weight=np.asarray(weight_list, dtype=float),
        slots=tuple(slots),
        initial_distribution=tuple(initial_distribution),
        enabled_timed_names=enabled_timed_names,
    )
