"""Stochastic activity networks: modelling, solution and simulation.

This package is the reproduction's substitute for **UltraSAN**, the
tool the paper used to compute the steady-state orbital-plane capacity
probabilities ``P(k)``:

* :mod:`repro.san.model` -- SAN formalism (places, timed and
  instantaneous activities, input/output gates, cases);
* :mod:`repro.san.reachability` -- tangible reachability-graph
  generation with vanishing-marking elimination;
* :mod:`repro.san.ctmc` -- steady-state and transient CTMC solvers;
* :mod:`repro.san.assembled` -- Erlang unfolding of deterministic
  activities (UltraSAN supported these natively) into array-native
  chains that re-rate without regeneration (the topology/rate split);
* :mod:`repro.san.lumping` -- exact symmetry lumping: reachability
  over canonical orbit representatives, verified against the declared
  exchangeable groups at every representative;
* :mod:`repro.san.simulator` -- discrete-event execution with exact
  deterministic timers, for cross-checking and large models;
* :mod:`repro.san.reward` -- UltraSAN-style rate rewards.
"""

from repro.san.assembled import AssembledChain, RateSlot, assemble
from repro.san.ctmc import (
    CTMC,
    SteadyStateSolution,
    SteadyStateWarmStart,
    from_state_space,
    marking_probabilities,
)
from repro.san.lumping import (
    LumpedStateSpace,
    canonical_marking,
    lumped_state_space,
    orbit_size,
)
from repro.san.marking import Marking, MarkingView, PlaceIndex
from repro.san.model import (
    Case,
    InputGate,
    InstantaneousActivity,
    OutputGate,
    Place,
    SANModel,
    TimedActivity,
)
from repro.san.reachability import (
    GeneralTransition,
    MarkovianTransition,
    StateSpace,
    generate,
)
from repro.san.reward import (
    expected_reward,
    probability_of,
    steady_state_marking_distribution,
)
from repro.san.simulator import RewardEstimate, SANSimulator, SimulationResult

__all__ = [
    "AssembledChain",
    "CTMC",
    "Case",
    "GeneralTransition",
    "InputGate",
    "InstantaneousActivity",
    "LumpedStateSpace",
    "Marking",
    "MarkingView",
    "MarkovianTransition",
    "OutputGate",
    "Place",
    "PlaceIndex",
    "RateSlot",
    "RewardEstimate",
    "SANModel",
    "SANSimulator",
    "SimulationResult",
    "StateSpace",
    "SteadyStateSolution",
    "SteadyStateWarmStart",
    "TimedActivity",
    "assemble",
    "canonical_marking",
    "expected_reward",
    "from_state_space",
    "generate",
    "lumped_state_space",
    "marking_probabilities",
    "orbit_size",
    "probability_of",
    "steady_state_marking_distribution",
]
