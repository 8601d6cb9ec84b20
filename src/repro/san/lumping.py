"""Exact symmetry lumping of SAN state spaces.

The paper's capacity model is a pool of *interchangeable* satellites:
permuting the identities of two satellites in the same role produces a
marking with identical stochastic behaviour.  Exact Markov-chain
lumping collapses such permutation orbits before the linear solve --
the classic trick that makes large-constellation CTMC analyses
tractable (Buchholz 1994; Derisavi et al. 2003) -- without changing a
single probability.  Two complementary layers are provided:

:func:`lumped_state_space`
    *Symbolic* lumping at reachability time.  A breadth-first search
    explores only **canonical representatives** of the orbits induced
    by the model's declared :attr:`~repro.san.model.SANModel.\
exchangeable_groups`, so the quotient is built without ever
    materialising the full state space -- the only route at scales
    where the full space is astronomically large (a 56-satellite plane
    has :math:`2^{56}`-ish markings; its quotient has a few dozen).
    Every explored representative is checked against the group's
    generators: the generator image must be tangible and have the same
    activity signature (distribution fingerprints, case weights and
    canonicalised targets).  This dynamically verifies the
    lumpability condition at every representative; the array-level
    refinement below provides the assumption-free certificate at
    scales where the full space is feasible, and the two are
    cross-validated by the test suite.

:func:`lump_assembled`
    *Numeric* lumping of an assembled (phase-type-unfolded) chain.
    Starting from the candidate orbit partition, a Paige-Tarjan-style
    partition refinement over the transition arrays splits blocks
    until both the **outgoing** signatures (ordinary lumpability: the
    quotient is a Markov chain) and the **incoming** signatures (exact
    lumpability: the stationary distribution is uniform within every
    block) are stable.  The result is a :class:`LumpedChain` whose
    quotient generator re-rates with the original chain (one rate per
    *slot class*; any re-rating that breaks a class raises
    :class:`~repro.errors.ModelError` so callers fall back to the
    unlumped path) and whose projection/expansion matrices map
    steady-state, transient and reward computations between the
    quotient and the full space exactly.

Why both conditions?  Stability of the outgoing signatures alone makes
the aggregated block process Markov (enough for block-level
marginals), but says nothing about how probability distributes
*within* a block.  Stability of the incoming signatures makes the
within-block conditional distribution uniform in steady state (for an
ergodic chain: uniformity is preserved by the transient evolution and
therefore holds in its limit), which is what justifies
``pi_full[s] = pi_quotient[block(s)] / |block(s)|``.  Automorphism
orbits satisfy both, so a correctly declared symmetry loses nothing.
"""

from __future__ import annotations

import math
import weakref
from collections import Counter, deque
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.analytic.distributions import (
    Deterministic,
    Distribution,
    Erlang,
    Exponential,
)
from repro.errors import ModelError, StateSpaceExplosionError
from repro.san.ctmc import CTMC
from repro.san.marking import Marking
from repro.san.model import SANModel
from repro.san.reachability import (
    GeneralTransition,
    MarkovianTransition,
    StateSpace,
    _stabilise,
)

__all__ = [
    "LumpedChain",
    "LumpedStateSpace",
    "canonical_marking",
    "lump_assembled",
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
    verify: bool = True,
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

    With ``verify`` (the default) the declared symmetry is checked at
    every explored representative: each group generator must map it to
    a tangible marking with an identical activity signature
    (:class:`~repro.errors.ModelError` otherwise), and the initial
    marking's stabilised distribution must be invariant under every
    generator.  This certifies the quotient's block-level dynamics at
    every state the quotient is built from; the assumption-free
    full-array certificate is :func:`lump_assembled`, cross-validated
    against this path by the test suite at feasible scales.
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
    if verify:
        # The orbit sizes double as expansion weights, which is exact
        # only when the reachable set is closed under the group action;
        # a group-invariant initial distribution guarantees that.
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
        if verify:
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


# ----------------------------------------------------------------------
# Numeric lumping: partition refinement over assembled arrays
# ----------------------------------------------------------------------
class LumpedChain:
    """The verified quotient of an assembled chain.

    Built by :func:`lump_assembled`.  ``block_of[s]`` maps every full
    augmented state to its block, ``block_sizes[b]`` counts members.
    The quotient transitions are ``(source block, target block, slot
    class, weight)`` arrays; one rate per slot class re-rates them.
    """

    def __init__(
        self,
        *,
        chain,
        block_of: np.ndarray,
        block_sizes: np.ndarray,
        transition_source: np.ndarray,
        transition_target: np.ndarray,
        transition_class: np.ndarray,
        transition_weight: np.ndarray,
        slot_class_of_slot: np.ndarray,
        class_representative_slot: np.ndarray,
        initial_distribution: Tuple[Tuple[float, int], ...],
    ):
        self.chain = chain
        self.block_of = block_of
        self.block_sizes = block_sizes
        self.transition_source = transition_source
        self.transition_target = transition_target
        self.transition_class = transition_class
        self.transition_weight = transition_weight
        #: Slot-class id of every original rate slot.
        self.slot_class_of_slot = slot_class_of_slot
        #: One original slot index per class, used to evaluate the
        #: class rate from a re-rated model.
        self.class_representative_slot = class_representative_slot
        self.initial_distribution = initial_distribution

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def num_blocks(self) -> int:
        return int(self.block_sizes.shape[0])

    @property
    def num_full_states(self) -> int:
        return int(self.block_of.shape[0])

    @property
    def num_slot_classes(self) -> int:
        return int(self.class_representative_slot.shape[0])

    @property
    def reduction(self) -> float:
        """Full states per quotient block."""
        return self.num_full_states / self.num_blocks

    def describe(self) -> str:
        return (
            f"LumpedChain({self.chain.space.model.name}: "
            f"{self.num_full_states} states -> {self.num_blocks} blocks "
            f"({self.reduction:.1f}x), {self.num_slot_classes} rate "
            f"classes from {self.chain.num_slots} slots)"
        )

    # ------------------------------------------------------------------
    # Rate phase
    # ------------------------------------------------------------------
    def class_rates(
        self, model: Optional[SANModel] = None, *,
        rate_vector: Optional[np.ndarray] = None,
        validate: bool = True,
    ) -> np.ndarray:
        """One rate per slot class from a re-rated model.

        Every slot of a class must evaluate to the *same* rate -- the
        refinement's signatures treated them as interchangeable.  A
        model that breaks a class (e.g. per-satellite failure rates
        that are no longer identical) raises
        :class:`~repro.errors.ModelError`; callers fall back to the
        unlumped chain.  The check is exact (bitwise equality), so the
        quotient never silently approximates.
        """
        if rate_vector is None:
            if model is None:
                raise ModelError("class_rates needs a model or a rate_vector")
            rate_vector = self.chain.rate_vector(model, validate=validate)
        rate_vector = np.asarray(rate_vector, dtype=float)
        rates = rate_vector[self.class_representative_slot]
        mismatched = rate_vector != rates[self.slot_class_of_slot]
        if np.any(mismatched):
            slot = self.chain.slots[int(np.argmax(mismatched))]
            raise ModelError(
                f"re-rated model breaks lumping slot class of activity "
                f"{slot.activity!r} in marking {slot.marking_index}: slots "
                "that were rate-identical at refinement time no longer "
                "are; re-lump or use the unlumped chain"
            )
        return rates

    def rerate(
        self,
        model: Optional[SANModel] = None,
        *,
        rate_vector: Optional[np.ndarray] = None,
        validate: bool = True,
    ) -> CTMC:
        """The quotient CTMC for a new parameter point (same contract
        as :meth:`AssembledChain.rerate`, solved at quotient size)."""
        rates = self.class_rates(
            model, rate_vector=rate_vector, validate=validate
        )
        return CTMC.from_arrays(
            self.num_blocks,
            self.transition_source,
            self.transition_target,
            rates[self.transition_class] * self.transition_weight,
            initial_distribution=self.initial_distribution,
        )

    # ------------------------------------------------------------------
    # Projection / expansion
    # ------------------------------------------------------------------
    def expand(self, pi_quotient: np.ndarray) -> np.ndarray:
        """Full-space distribution from a quotient one: exact
        lumpability makes the stationary distribution uniform within
        each block, so each block's mass divides evenly."""
        pi_quotient = np.asarray(pi_quotient, dtype=float)
        if pi_quotient.shape != (self.num_blocks,):
            raise ModelError(
                f"quotient distribution has shape {pi_quotient.shape}, "
                f"expected ({self.num_blocks},)"
            )
        return (pi_quotient / self.block_sizes)[self.block_of]

    def aggregate(self, pi_full: np.ndarray) -> np.ndarray:
        """Block masses of a full-space distribution."""
        pi_full = np.asarray(pi_full, dtype=float)
        return np.bincount(
            self.block_of, weights=pi_full, minlength=self.num_blocks
        )

    def expansion_matrix(self) -> sparse.csr_matrix:
        """Sparse ``(num_full_states, num_blocks)`` matrix ``E`` with
        ``E[s, b] = 1/|b|`` for ``s`` in block ``b``:
        ``pi_full = E @ pi_quotient``."""
        n = self.num_full_states
        return sparse.csr_matrix(
            (
                1.0 / self.block_sizes[self.block_of],
                (np.arange(n), self.block_of),
            ),
            shape=(n, self.num_blocks),
        )

    def projection_matrix(self) -> sparse.csr_matrix:
        """Sparse ``(num_blocks, num_full_states)`` reward projection
        ``P`` with ``P[b, s] = 1/|b|``: for any full reward vector
        ``r``, ``(P @ r)`` is the quotient reward with
        ``pi_quotient . (P @ r) == pi_full . r``."""
        return self.expansion_matrix().T.tocsr()

    def project_reward(self, reward: np.ndarray) -> np.ndarray:
        """Quotient reward vector (block means) of a full one."""
        reward = np.asarray(reward, dtype=float)
        if reward.shape != (self.num_full_states,):
            raise ModelError(
                f"reward vector has shape {reward.shape}, expected "
                f"({self.num_full_states},)"
            )
        sums = np.bincount(
            self.block_of, weights=reward, minlength=self.num_blocks
        )
        return sums / self.block_sizes

    def marking_marginals(self, pi_quotient: np.ndarray) -> np.ndarray:
        """Tangible-marking marginals of the *full* space from a
        quotient distribution (expand, then marginalise)."""
        return self.chain.marking_marginals(self.expand(pi_quotient))


def _slot_classes(chain, rate_vector: np.ndarray):
    """Group rate slots into classes that are interchangeable for the
    refinement: same kind, same stage count, same case-probability
    multiset, same rate under the assembled model.  Re-rating later
    re-checks that each class is still rate-constant (see
    :meth:`LumpedChain.class_rates`).

    The case-probability multiset matters because a class is a *rate
    sharing* commitment across re-rates: keying on the rate value alone
    merges slots of unrelated activity families whose rates merely
    coincide at refinement time (a repair rate swept through the
    failure rate, two phase timers with equal means).  Such coincident
    classes are numerically sound at the refinement point but break --
    spuriously, the quotient itself is still exact -- as soon as a
    sweep moves one family's rate and not the other's, forcing a
    fallback to the unlumped chain.  Symmetric slots of one activity
    family have permuted (hence sorted-equal) case tuples, so keying on
    the sorted multiset keeps every genuinely interchangeable slot
    together while splitting coincidental rate collisions.  Splitting
    only refines the initial partition, so no previously-valid lumping
    is lost.
    """
    class_ids: Dict[Tuple, int] = {}
    slot_class = np.empty(chain.num_slots, dtype=np.int64)
    representatives: List[int] = []
    for position, slot in enumerate(chain.slots):
        key = (
            slot.kind,
            slot.stages,
            tuple(sorted(slot.case_probabilities)),
            float(rate_vector[position]),
        )
        identifier = class_ids.get(key)
        if identifier is None:
            identifier = len(class_ids)
            class_ids[key] = identifier
            representatives.append(position)
        slot_class[position] = identifier
    return slot_class, np.asarray(representatives, dtype=np.int64)


def _grouped_signatures(
    anchor: np.ndarray,
    keys: List[np.ndarray],
    num_states: int,
) -> List[Tuple]:
    """Per-state sorted multiset of transition keys.

    ``anchor`` assigns each transition to a state; ``keys`` are the
    per-transition columns forming the key.  Lexsorting groups the
    transitions by state with their keys in canonical order, so equal
    multisets produce equal tuples.
    """
    signatures: List[List[Tuple]] = [[] for _ in range(num_states)]
    if anchor.shape[0]:
        order = np.lexsort(tuple(reversed(keys)) + (anchor,))
        anchor_sorted = anchor[order]
        columns = [key[order] for key in keys]
        for position in range(anchor_sorted.shape[0]):
            signatures[int(anchor_sorted[position])].append(
                tuple(column[position] for column in columns)
            )
    return [tuple(rows) for rows in signatures]


def lump_assembled(chain) -> "LumpedChain":
    """Verify and build the quotient of an assembled chain.

    The candidate partition groups augmented states by (canonical
    tangible marking, Erlang stage code) -- the orbit partition of the
    declared exchangeable groups.  Paige-Tarjan-style refinement then
    splits any block whose members disagree on their outgoing or
    incoming ``(slot class, weight, neighbour block)`` multisets, and
    iterates to a fixpoint.  The fixpoint is simultaneously *ordinarily*
    lumpable (outgoing stability: the quotient is a CTMC whose
    block-level law equals the full chain's) and *exactly* lumpable
    (incoming stability: stationary probability is uniform within each
    block), so quotient solves expand to full-space answers without
    approximation.  A candidate that refines all the way to singletons
    raises :class:`~repro.errors.ModelError` (nothing was lumpable);
    partial refinements are kept -- they are still exact, just smaller
    wins.
    """
    model = chain.space.model
    groups = _group_positions(model)  # raises ModelError if undeclared
    del groups

    # Candidate partition: canonical marking x stage code.
    canonical_of_marking: Dict[Marking, int] = {}
    marking_class = np.empty(len(chain.space), dtype=np.int64)
    for marking_index, marking in enumerate(chain.space.markings):
        canonical = canonical_marking(model, marking)
        identifier = canonical_of_marking.setdefault(
            canonical, len(canonical_of_marking)
        )
        marking_class[marking_index] = identifier
    stage_codes = chain.codes % chain.stage_span
    candidate_keys = (
        marking_class[chain.marking_of_state].astype(np.int64)
        * int(chain.stage_span)
        + stage_codes
    )
    _, classes = np.unique(candidate_keys, return_inverse=True)
    classes = classes.astype(np.int64)

    rate_vector = chain.rate_vector(chain.space.model, validate=False)
    slot_class, class_representatives = _slot_classes(chain, rate_vector)

    num_states = chain.num_states
    src = chain.transition_source
    tgt = chain.transition_target
    edge_class = slot_class[chain.transition_slot]
    weight = chain.transition_weight

    # Refinement to a fixpoint: split by outgoing AND incoming
    # signatures.  Splitting is monotone, so equal class counts across
    # one round mean stability.
    while True:
        out_signatures = _grouped_signatures(
            src, [edge_class, weight, classes[tgt]], num_states
        )
        in_signatures = _grouped_signatures(
            tgt, [edge_class, weight, classes[src]], num_states
        )
        refined_ids: Dict[Tuple, int] = {}
        refined = np.empty(num_states, dtype=np.int64)
        for state in range(num_states):
            key = (
                int(classes[state]),
                out_signatures[state],
                in_signatures[state],
            )
            identifier = refined_ids.get(key)
            if identifier is None:
                identifier = len(refined_ids)
                refined_ids[key] = identifier
            refined[state] = identifier
        stable = len(refined_ids) == int(classes.max(initial=-1)) + 1
        classes = refined
        if stable:
            break

    num_blocks = int(classes.max(initial=-1)) + 1
    if num_blocks == num_states and num_states > 1:
        raise ModelError(
            f"model {model.name!r}: partition refinement split every "
            "candidate orbit to singletons; the declared exchangeable "
            "groups are not a lumpable symmetry of this chain"
        )

    block_sizes = np.bincount(classes, minlength=num_blocks).astype(float)

    # Quotient transitions from one representative state per block
    # (outgoing stability makes any representative equivalent).
    representative_state = np.full(num_blocks, -1, dtype=np.int64)
    for state in range(num_states):
        block = classes[state]
        if representative_state[block] < 0:
            representative_state[block] = state
    is_representative = np.zeros(num_states, dtype=bool)
    is_representative[representative_state] = True
    keep = is_representative[src]

    initial_map: Dict[int, float] = {}
    for probability, state in chain.initial_distribution:
        block = int(classes[state])
        initial_map[block] = initial_map.get(block, 0.0) + probability
    initial_distribution = tuple(
        (probability, block) for block, probability in sorted(initial_map.items())
    )

    return LumpedChain(
        chain=chain,
        block_of=classes,
        block_sizes=block_sizes,
        transition_source=classes[src[keep]],
        transition_target=classes[tgt[keep]],
        transition_class=edge_class[keep],
        transition_weight=weight[keep],
        slot_class_of_slot=slot_class,
        class_representative_slot=class_representatives,
        initial_distribution=initial_distribution,
    )
