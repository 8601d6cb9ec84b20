"""Exact symmetry lumping of SAN state spaces.

The paper's capacity model is a pool of *interchangeable* satellites:
permuting the identities of two satellites in the same role produces a
marking with identical stochastic behaviour.  Exact Markov-chain
lumping collapses such permutation orbits before the linear solve --
the classic trick that makes large-constellation CTMC analyses
tractable (Buchholz 1994; Derisavi et al. 2003) -- without changing a
single probability.

:func:`lumped_state_space` lumps at reachability time.  A
breadth-first search explores only **canonical representatives** of
the orbits induced by the model's declared
:attr:`~repro.san.model.SANModel.exchangeable_groups`, so the quotient
is built without ever materialising the full state space -- the only
route at scales where the full space is astronomically large (a
56-satellite plane has :math:`2^{56}`-ish markings; its quotient has a
few dozen).  Every explored representative is checked against the
group's generators: the generator image must be tangible and have the
same activity signature (distribution fingerprints, case weights and
canonicalised targets).  This verifies the lumpability condition at
every representative the quotient is built from; a declaration that is
not a symmetry raises :class:`~repro.errors.ModelError`.

The result is a drop-in :class:`~repro.san.reachability.StateSpace`,
so :func:`~repro.san.assembled.assemble` unfolds and re-rates it like
any other space.  Automorphism orbits are both ordinarily lumpable
(the quotient is a Markov chain) and exactly lumpable (stationary
probability is uniform within every orbit), so
``pi_full[s] = pi_quotient[orbit(s)] / |orbit(s)|`` and
:attr:`LumpedStateSpace.class_sizes` are all that is needed to expand
quotient answers to the full space.
"""

from __future__ import annotations

import math
import weakref
from collections import Counter, deque
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.analytic.distributions import (
    Deterministic,
    Distribution,
    Erlang,
    Exponential,
)
from repro.errors import ModelError, StateSpaceExplosionError
from repro.san.marking import Marking
from repro.san.model import SANModel
from repro.san.reachability import (
    GeneralTransition,
    MarkovianTransition,
    StateSpace,
    _stabilise,
)

__all__ = [
    "LumpedStateSpace",
    "canonical_marking",
    "lumped_state_space",
    "orbit_size",
]


# ----------------------------------------------------------------------
# Group action on markings
# ----------------------------------------------------------------------
class _Group(NamedTuple):
    """Tuple positions of one exchangeable group's members
    (declaration order); ``flat`` lists them as plain positions when
    every member is a single place, so sorting compares ints."""

    members: Tuple[Tuple[int, ...], ...]
    flat: Optional[Tuple[int, ...]]

    def member_values(self, values: Sequence[int]) -> List[object]:
        """Per member, its sub-marking (an int on the flat path)."""
        if self.flat is not None:
            return list(map(values.__getitem__, self.flat))
        return [tuple(values[p] for p in member) for member in self.members]


#: Groups resolved once per model.  Weakly keyed, so an entry dies with
#: its model and can never be served to a later model at the same id.
_GROUPS: "weakref.WeakKeyDictionary[SANModel, Tuple[_Group, ...]]" = (
    weakref.WeakKeyDictionary()
)


def _group_positions(model: SANModel) -> Tuple[_Group, ...]:
    """Per declared exchangeable group, its member positions."""
    groups = _GROUPS.get(model)
    if groups is not None:
        return groups
    if not model.exchangeable_groups:
        raise ModelError(
            f"model {model.name!r} declares no exchangeable groups; "
            "nothing to lump"
        )
    resolved = []
    for group in model.exchangeable_groups:
        members = tuple(model.place_index.positions(member) for member in group)
        flat = None
        if all(len(member) == 1 for member in members):
            flat = tuple(position for (position,) in members)
        resolved.append(_Group(members, flat))
    groups = _GROUPS[model] = tuple(resolved)
    return groups


def canonical_marking(model: SANModel, marking: Marking) -> Marking:
    """The orbit representative of ``marking``: within every declared
    exchangeable group, member sub-markings are sorted ascending."""
    values = list(marking)
    for group in _group_positions(model):
        subs = sorted(group.member_values(values))
        if group.flat is not None:
            for position, value in zip(group.flat, subs):
                values[position] = value
            continue
        for member, sub in zip(group.members, subs):
            for position, value in zip(member, sub):
                values[position] = value
    return tuple(values)


def orbit_size(model: SANModel, marking: Marking) -> int:
    """Number of distinct markings in the orbit of ``marking`` under
    the declared group (the full symmetric group of each exchangeable
    group, acting independently)."""
    size = 1
    for group in _group_positions(model):
        subs = group.member_values(marking)
        group_size = math.factorial(len(subs))
        for count in Counter(subs).values():
            group_size //= math.factorial(count)
        size *= group_size
    return size


def _generators(
    groups: Sequence[_Group],
) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Adjacent-member transpositions: each swaps two member position
    tuples.  They generate the full symmetric group of every
    exchangeable group."""
    swaps = []
    for group in groups:
        members = group.members
        for i in range(len(members) - 1):
            swaps.append((members[i], members[i + 1]))
    return swaps


def _apply_swap(
    marking: Marking, swap: Tuple[Tuple[int, ...], Tuple[int, ...]]
) -> Marking:
    left, right = swap
    values = list(marking)
    for a, b in zip(left, right):
        values[a], values[b] = values[b], values[a]
    return tuple(values)


def _fingerprint(distribution: Distribution):
    """Hashable identity of a completion-time distribution, used to
    compare activities across symmetric markings without relying on
    activity names (which the symmetry permutes)."""
    if isinstance(distribution, Exponential):
        return ("exponential", distribution.rate)
    if isinstance(distribution, Deterministic):
        return ("deterministic", distribution.value)
    if isinstance(distribution, Erlang):
        return ("erlang", distribution.shape, distribution.rate)
    return (type(distribution).__name__, repr(distribution))


# ----------------------------------------------------------------------
# Symbolic lumping: canonical-representative reachability
# ----------------------------------------------------------------------
class LumpedStateSpace(StateSpace):
    """A quotient reachability graph over canonical orbit
    representatives.

    Drop-in :class:`~repro.san.reachability.StateSpace`: the markings
    are the representatives and the transitions carry orbit-aggregated
    probabilities, so :func:`~repro.san.assembled.assemble` and the
    solvers work unchanged.  ``class_sizes[i]`` is the orbit size of
    marking ``i`` (how many full-space markings it stands for).
    """

    def __init__(self, *args, class_sizes: List[int], **kwargs):
        super().__init__(*args, **kwargs)
        self.class_sizes = class_sizes

    @property
    def full_state_count(self) -> int:
        """Tangible markings of the unlumped space (sum of orbit
        sizes -- exact because the reachable set is closed under the
        verified group action)."""
        return sum(self.class_sizes)

    def describe(self) -> str:
        return (
            f"LumpedStateSpace({self.model.name}: {len(self.markings)} "
            f"orbit representatives for {self.full_state_count} tangible "
            f"markings, {len(self.markovian)} markovian + "
            f"{len(self.general)} general transitions)"
        )


def _activity_signature(
    model: SANModel, marking: Marking
) -> Tuple[Tuple[object, ...], ...]:
    """Name-agnostic outgoing signature of a tangible marking: per
    enabled timed activity, the distribution fingerprint, case count
    and the stabilised (probability, canonical target) outcomes.
    Symmetric markings must produce identical signatures."""
    entries = []
    for activity in model.enabled_timed(marking):
        distribution = activity.distribution_in(model.place_index, marking)
        case_probs = activity.case_probabilities(model.place_index, marking)
        outcomes: Dict[Marking, float] = {}
        for case_index, case_prob in enumerate(case_probs):
            if case_prob == 0.0:
                continue
            fired = activity.fire(model.place_index, marking, case_index)
            for stab_prob, tangible in _stabilise(model, fired):
                target = canonical_marking(model, tangible)
                outcomes[target] = outcomes.get(target, 0.0) + case_prob * stab_prob
        entries.append(
            (
                _fingerprint(distribution),
                tuple(sorted(outcomes.items())),
            )
        )
    return tuple(sorted(entries))


def lumped_state_space(
    model: SANModel,
    *,
    max_states: int = 200_000,
) -> LumpedStateSpace:
    """Generate the quotient tangible reachability graph of ``model``
    under its declared exchangeable groups.

    The BFS mirrors :func:`repro.san.reachability.generate` but interns
    the *canonical form* of every tangible marking, so only one
    representative per orbit is explored; transitions whose full-space
    targets fall into one orbit merge with summed probabilities.  Cost
    is proportional to the quotient size times the group generator
    count -- independent of the (possibly astronomical) full state
    count.

    The declared symmetry is checked at every explored representative:
    each group generator must map it to a tangible marking with an
    identical activity signature (:class:`~repro.errors.ModelError`
    otherwise), and the initial marking's stabilised distribution must
    be invariant under every generator.  This certifies the quotient's
    dynamics at every state the quotient is built from; the test suite
    checks quotient answers against the full ``assemble(generate(model))``
    chain at feasible scales.
    """
    groups = _group_positions(model)
    swaps = _generators(groups)

    markings: List[Marking] = []
    class_sizes: List[int] = []
    index: Dict[Marking, int] = {}

    def intern(canonical: Marking) -> int:
        state = index.get(canonical)
        if state is None:
            if len(markings) >= max_states:
                raise StateSpaceExplosionError(
                    max_states, marking=model.marking_dict(canonical)
                )
            state = len(markings)
            index[canonical] = state
            markings.append(canonical)
            class_sizes.append(orbit_size(model, canonical))
        return state

    initial = _stabilise(model, model.initial_marking())
    # The orbit sizes double as expansion weights, which is exact only
    # when the reachable set is closed under the group action; a
    # group-invariant initial distribution guarantees that.
    reference = sorted(initial)
    for swap in swaps:
        swapped = sorted((p, _apply_swap(m, swap)) for p, m in initial)
        if swapped != reference:
            raise ModelError(
                f"model {model.name!r}: the initial distribution is not "
                "invariant under the declared exchangeable groups; "
                "orbit-based lumping would miscount reachable states"
            )
    initial_distribution_map: Dict[int, float] = {}
    for probability, marking in initial:
        state = intern(canonical_marking(model, marking))
        initial_distribution_map[state] = (
            initial_distribution_map.get(state, 0.0) + probability
        )
    initial_distribution = sorted(initial_distribution_map.items())
    initial_distribution = [(p, s) for s, p in initial_distribution]

    markovian: List[MarkovianTransition] = []
    general: List[GeneralTransition] = []

    frontier = deque(s for _, s in initial_distribution)
    explored = set()
    while frontier:
        state = frontier.popleft()
        if state in explored:
            continue
        explored.add(state)
        marking = markings[state]
        signature = _activity_signature(model, marking)
        for swap in swaps:
            image = _apply_swap(marking, swap)
            if image == marking:
                continue
            if model.enabled_instantaneous(image):
                raise ModelError(
                    f"model {model.name!r}: marking "
                    f"{model.marking_dict(marking)} is tangible but its "
                    "generator image is vanishing; the declared "
                    "exchangeable groups are not a symmetry"
                )
            if _activity_signature(model, image) != signature:
                raise ModelError(
                    f"model {model.name!r}: marking "
                    f"{model.marking_dict(marking)} and its generator "
                    f"image {model.marking_dict(image)} have different "
                    "activity signatures; the declared exchangeable "
                    "groups are not a symmetry of the model"
                )
        for activity in model.enabled_timed(marking):
            distribution = activity.distribution_in(model.place_index, marking)
            case_probs = activity.case_probabilities(model.place_index, marking)
            outcomes: Dict[int, float] = {}
            for case_index, case_prob in enumerate(case_probs):
                if case_prob == 0.0:
                    continue
                fired = activity.fire(model.place_index, marking, case_index)
                for stab_prob, tangible in _stabilise(model, fired):
                    target = intern(canonical_marking(model, tangible))
                    outcomes[target] = (
                        outcomes.get(target, 0.0) + case_prob * stab_prob
                    )
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
    return LumpedStateSpace(
        model,
        markings,
        initial_distribution,
        markovian,
        general,
        class_sizes=class_sizes,
    )
