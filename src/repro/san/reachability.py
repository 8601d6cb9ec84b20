"""Tangible reachability-graph generation for SAN models.

A marking is *tangible* when no instantaneous activity is enabled in
it, and *vanishing* otherwise.  Generation starts from the initial
marking, eliminates vanishing markings on the fly (following
instantaneous completions, branching over their cases), and explores
every timed-activity completion from each tangible marking.

The result is a :class:`StateSpace` whose transitions are split into

* ``markovian`` -- completions of exponential activities, stored as
  ``(source, activity, rate, target)`` with the rate already weighted
  by case and stabilisation probabilities; and
* ``general`` -- completions of non-exponential activities
  (deterministic, Erlang, ...), stored with their distribution and the
  probability-weighted target list, for consumption by the phase-type
  unfolding (:mod:`repro.san.assembled`) or the simulator.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analytic.distributions import Distribution, Exponential
from repro.errors import ModelError, StateSpaceExplosionError
from repro.san.marking import Marking
from repro.san.model import SANModel

__all__ = ["MarkovianTransition", "GeneralTransition", "StateSpace", "generate"]

#: Safety bound on chained instantaneous completions from one marking.
_MAX_STABILISATION_DEPTH = 1000


@dataclass(frozen=True)
class MarkovianTransition:
    """An exponential completion: ``source -> target`` at ``rate``.

    ``rate`` folds the activity's base exponential rate with
    ``probability`` -- the combined case / vanishing-elimination weight
    of reaching ``target``.  The probability is kept separately so the
    topology/rate split (:mod:`repro.san.assembled`) can re-rate the
    transition from a new base rate without regenerating the graph.
    """

    source: int
    activity: str
    rate: float
    target: int
    probability: float = 1.0


@dataclass(frozen=True)
class GeneralTransition:
    """A non-exponential completion from ``source``.

    ``targets`` lists ``(probability, target_state)`` pairs combining
    case probabilities and vanishing-marking elimination.
    """

    source: int
    activity: str
    distribution: Distribution
    targets: Tuple[Tuple[float, int], ...]


class StateSpace:
    """The tangible reachability graph of a SAN."""

    def __init__(
        self,
        model: SANModel,
        markings: List[Marking],
        initial_distribution: List[Tuple[float, int]],
        markovian: List[MarkovianTransition],
        general: List[GeneralTransition],
    ):
        self.model = model
        self.markings = markings
        self.index: Dict[Marking, int] = {m: i for i, m in enumerate(markings)}
        self.initial_distribution = initial_distribution
        self.markovian = markovian
        self.general = general

    def __len__(self) -> int:
        return len(self.markings)

    @property
    def is_markovian(self) -> bool:
        """Whether every transition is exponential (plain CTMC)."""
        return not self.general

    def marking_dict(self, state: int) -> Dict[str, int]:
        """Name-keyed marking of ``state``."""
        return self.model.marking_dict(self.markings[state])

    def general_by_source(self) -> Dict[int, List[GeneralTransition]]:
        """General transitions grouped by source state."""
        grouped: Dict[int, List[GeneralTransition]] = {}
        for transition in self.general:
            grouped.setdefault(transition.source, []).append(transition)
        return grouped

    def describe(self) -> str:
        """One-line summary for logs and reports."""
        return (
            f"StateSpace({self.model.name}: {len(self.markings)} tangible "
            f"markings, {len(self.markovian)} markovian + "
            f"{len(self.general)} general transitions)"
        )


def _stabilise(model: SANModel, marking: Marking) -> List[Tuple[float, Marking]]:
    """Eliminate vanishing markings reachable from ``marking``.

    Returns the probability distribution over tangible markings reached
    by exhaustively firing enabled instantaneous activities (highest
    priority first).  Equal-priority conflicts and instantaneous cycles
    are modelling errors.
    """
    results: Dict[Marking, float] = {}
    # Work list of (probability, marking, depth).
    stack: List[Tuple[float, Marking, int]] = [(1.0, marking, 0)]
    while stack:
        prob, current, depth = stack.pop()
        if depth > _MAX_STABILISATION_DEPTH:
            raise ModelError(
                f"model {model.name!r}: more than {_MAX_STABILISATION_DEPTH} "
                "chained instantaneous completions -- instantaneous cycle?"
            )
        enabled = model.enabled_instantaneous(current)
        if not enabled:
            results[current] = results.get(current, 0.0) + prob
            continue
        top = max(a.priority for a in enabled)
        candidates = [a for a in enabled if a.priority == top]
        if len(candidates) > 1:
            names = sorted(a.name for a in candidates)
            raise ModelError(
                f"model {model.name!r}: instantaneous activities {names} are "
                "simultaneously enabled at equal priority; assign priorities "
                "to make the choice deterministic"
            )
        activity = candidates[0]
        case_probs = activity.case_probabilities(model.place_index, current)
        for case_index, case_prob in enumerate(case_probs):
            if case_prob == 0.0:
                continue
            successor = activity.fire(model.place_index, current, case_index)
            stack.append((prob * case_prob, successor, depth + 1))
    return [(p, m) for m, p in results.items()]


def generate(model: SANModel, *, max_states: int = 200_000) -> StateSpace:
    """Generate the tangible reachability graph of ``model``.

    Raises :class:`StateSpaceExplosionError` when more than
    ``max_states`` tangible markings are found.
    """
    markings: List[Marking] = []
    index: Dict[Marking, int] = {}

    def intern(marking: Marking) -> int:
        if marking in index:
            return index[marking]
        if len(markings) >= max_states:
            raise StateSpaceExplosionError(
                max_states, marking=model.marking_dict(marking)
            )
        index[marking] = len(markings)
        markings.append(marking)
        return index[marking]

    initial = _stabilise(model, model.initial_marking())
    initial_distribution = [(p, intern(m)) for p, m in initial]

    markovian: List[MarkovianTransition] = []
    general: List[GeneralTransition] = []

    frontier = deque(i for _, i in initial_distribution)
    explored = set()
    while frontier:
        state = frontier.popleft()
        if state in explored:
            continue
        explored.add(state)
        marking = markings[state]
        for activity in model.enabled_timed(marking):
            distribution = activity.distribution_in(model.place_index, marking)
            case_probs = activity.case_probabilities(model.place_index, marking)
            # Combined (probability, target) outcomes over cases and
            # vanishing elimination.
            outcomes: Dict[int, float] = {}
            for case_index, case_prob in enumerate(case_probs):
                if case_prob == 0.0:
                    continue
                fired = activity.fire(model.place_index, marking, case_index)
                for stab_prob, tangible in _stabilise(model, fired):
                    target = intern(tangible)
                    outcomes[target] = outcomes.get(target, 0.0) + case_prob * stab_prob
                    if target not in explored:
                        frontier.append(target)
            if isinstance(distribution, Exponential):
                for target, prob in sorted(outcomes.items()):
                    markovian.append(
                        MarkovianTransition(
                            source=state,
                            activity=activity.name,
                            rate=distribution.rate * prob,
                            target=target,
                            probability=prob,
                        )
                    )
            else:
                general.append(
                    GeneralTransition(
                        source=state,
                        activity=activity.name,
                        distribution=distribution,
                        targets=tuple(
                            (prob, target)
                            for target, prob in sorted(outcomes.items())
                        ),
                    )
                )
    return StateSpace(model, markings, initial_distribution, markovian, general)
