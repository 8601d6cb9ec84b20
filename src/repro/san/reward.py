"""Reward computation on solved SAN models.

UltraSAN-style *rate rewards*: a function of the marking, accumulated
at the rate it evaluates to while the model sits in that marking.  At
steady state the expected reward is ``sum_m pi(m) * r(m)``.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping

import numpy as np

from repro.san.marking import Marking, MarkingView
from repro.san.reachability import StateSpace

__all__ = [
    "steady_state_marking_distribution",
    "expected_reward",
    "probability_of",
]

RewardFunction = Callable[[MarkingView], float]


def steady_state_marking_distribution(
    space: StateSpace, pi: np.ndarray
) -> Dict[Marking, float]:
    """Map a stationary vector over state indices onto markings.

    Markings are interned (one state per marking), so this is a
    relabelling; the single ``tolist`` conversion avoids a per-state
    ``float()`` call.
    """
    result: Dict[Marking, float] = {}
    values = np.asarray(pi, dtype=float).tolist()
    for marking, probability in zip(space.markings, values):
        result[marking] = result.get(marking, 0.0) + probability
    return result


def expected_reward(
    space: StateSpace,
    marking_probabilities: Mapping[Marking, float],
    reward: RewardFunction,
) -> float:
    """Steady-state expected rate reward ``E[r] = sum pi(m) r(m)``."""
    total = 0.0
    for marking, probability in marking_probabilities.items():
        view = MarkingView(space.model.place_index, marking)
        total += probability * reward(view)
    return total


def probability_of(
    space: StateSpace,
    marking_probabilities: Mapping[Marking, float],
    predicate: Callable[[MarkingView], bool],
) -> float:
    """Steady-state probability that the marking satisfies
    ``predicate`` (a 0/1 rate reward)."""
    return expected_reward(
        space,
        marking_probabilities,
        lambda view: 1.0 if predicate(view) else 0.0,
    )
