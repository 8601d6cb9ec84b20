"""Stochastic activity network (SAN) formalism.

This is our substitute for **UltraSAN** (Sanders et al., Performance
Evaluation 1995), which the paper used to solve the orbital-plane
capacity model with deterministic activity times.  The formalism
follows the classic SAN definition:

* **places** hold tokens; a marking is an assignment of tokens to
  places;
* **timed activities** complete after a random delay drawn from a
  (possibly marking-dependent) distribution -- exponential activities
  yield a CTMC, deterministic/Erlang ones are handled by phase-type
  expansion (:mod:`repro.san.phase_type`) or simulation
  (:mod:`repro.san.simulator`);
* **instantaneous activities** complete in zero time and take priority
  over timed activities;
* **input gates** refine enabling (predicate) and consumption
  (function) beyond plain input arcs;
* **output gates** produce arbitrary marking changes; and
* **cases** attach a probabilistic choice of output effects to an
  activity completion.

Execution semantics: an activity is *enabled* when every input arc is
covered and every input-gate predicate holds.  Completion removes the
input-arc tokens, applies the input-gate functions, selects a case by
probability, then adds output-arc tokens and applies the case's
output-gate functions.  Timed activities race; an activity that becomes
disabled loses its progress (preemptive-restart), while one that stays
enabled across another activity's completion keeps it
(preemptive-resume, which is UltraSAN's behaviour for activities that
are not explicitly reactivated).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.analytic.distributions import Distribution, Exponential
from repro.errors import ModelError
from repro.san.marking import Marking, MarkingView, PlaceIndex

__all__ = [
    "Place",
    "InputGate",
    "OutputGate",
    "Case",
    "TimedActivity",
    "InstantaneousActivity",
    "SANModel",
]

Predicate = Callable[[MarkingView], bool]
GateFunction = Callable[[MarkingView], None]
RateFunction = Callable[[MarkingView], float]
DistributionFactory = Callable[[MarkingView], Distribution]
ProbabilityFunction = Callable[[MarkingView], float]


@dataclass(frozen=True)
class Place:
    """A token holder.

    Attributes
    ----------
    name:
        Unique identifier, used by arcs and gate code.
    initial:
        Tokens in the initial marking.
    """

    name: str
    initial: int = 0

    def __post_init__(self) -> None:
        if self.initial < 0:
            raise ModelError(f"place {self.name!r} has negative initial marking")


@dataclass(frozen=True)
class InputGate:
    """Enabling predicate plus consumption function."""

    name: str
    predicate: Predicate
    function: GateFunction = field(default=lambda m: None)


@dataclass(frozen=True)
class OutputGate:
    """Marking transformation applied on completion."""

    name: str
    function: GateFunction


@dataclass(frozen=True)
class Case:
    """One probabilistic outcome of an activity completion.

    ``probability`` may be a constant or a marking-dependent callable;
    the probabilities of an activity's cases must sum to 1 in every
    marking in which it is enabled.
    """

    probability: Union[float, ProbabilityFunction] = 1.0
    output_arcs: Mapping[str, int] = field(default_factory=dict)
    output_gates: Sequence[OutputGate] = ()

    def probability_in(self, view: MarkingView) -> float:
        """Evaluate the case probability in ``view``."""
        if callable(self.probability):
            value = self.probability(view)
        else:
            value = self.probability
        if not 0.0 <= value <= 1.0 + 1e-12:
            raise ModelError(f"case probability {value!r} outside [0, 1]")
        return float(value)


class _ActivityBase:
    """Common enabling/firing machinery of timed and instantaneous
    activities."""

    def __init__(
        self,
        name: str,
        *,
        input_arcs: Optional[Mapping[str, int]] = None,
        input_gates: Sequence[InputGate] = (),
        cases: Optional[Sequence[Case]] = None,
    ):
        self.name = name
        self.input_arcs: Dict[str, int] = dict(input_arcs or {})
        for place, mult in self.input_arcs.items():
            if mult < 1:
                raise ModelError(
                    f"activity {name!r}: input arc from {place!r} has "
                    f"multiplicity {mult}"
                )
        self.input_gates: Tuple[InputGate, ...] = tuple(input_gates)
        self.cases: Tuple[Case, ...] = tuple(cases) if cases else (Case(),)
        if not self.cases:
            raise ModelError(f"activity {name!r} has no cases")
        # Constant case probabilities need no marking view.
        self._marking_dependent = any(
            callable(case.probability) for case in self.cases
        )

    def enabled(self, places: PlaceIndex, marking: Marking) -> bool:
        """Whether the activity is enabled in ``marking``."""
        for place, mult in self.input_arcs.items():
            if marking[places.position(place)] < mult:
                return False
        if not self.input_gates:
            return True
        view = MarkingView(places, marking)
        return all(gate.predicate(view) for gate in self.input_gates)

    def fire(
        self, places: PlaceIndex, marking: Marking, case_index: int
    ) -> Marking:
        """Complete the activity in ``marking`` choosing the case at
        ``case_index``; returns the successor marking."""
        view = MarkingView(places, marking)
        for place, mult in self.input_arcs.items():
            view.remove(place, mult)
        for gate in self.input_gates:
            gate.function(view)
        case = self.cases[case_index]
        for place, mult in case.output_arcs.items():
            view.add(place, mult)
        for gate in case.output_gates:
            gate.function(view)
        return view.freeze()

    def case_probabilities(
        self, places: PlaceIndex, marking: Marking
    ) -> List[float]:
        """Case probabilities evaluated in ``marking`` (must sum to 1)."""
        view = MarkingView(places, marking) if self._marking_dependent else None
        probs = [case.probability_in(view) for case in self.cases]
        total = sum(probs)
        if abs(total - 1.0) > 1e-9:
            raise ModelError(
                f"activity {self.name!r}: case probabilities sum to {total}"
            )
        return probs

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class TimedActivity(_ActivityBase):
    """An activity whose completion takes random time.

    ``distribution`` may be:

    * a :class:`~repro.analytic.distributions.Distribution` instance
      (marking-independent),
    * a callable ``MarkingView -> Distribution`` (marking-dependent,
      e.g. an exponential whose rate scales with a token count).

    ``rate(...)`` is a convenience constructor for the common
    marking-dependent exponential.
    """

    def __init__(
        self,
        name: str,
        distribution: Union[Distribution, DistributionFactory],
        *,
        input_arcs: Optional[Mapping[str, int]] = None,
        input_gates: Sequence[InputGate] = (),
        cases: Optional[Sequence[Case]] = None,
    ):
        super().__init__(
            name, input_arcs=input_arcs, input_gates=input_gates, cases=cases
        )
        self._distribution = distribution

    @classmethod
    def exponential(
        cls,
        name: str,
        rate: Union[float, RateFunction],
        **kwargs,
    ) -> "TimedActivity":
        """Exponential activity with a constant or marking-dependent
        rate."""
        if callable(rate):
            def factory(view: MarkingView) -> Distribution:
                return Exponential(rate(view))

            return cls(name, factory, **kwargs)
        return cls(name, Exponential(rate), **kwargs)

    def distribution_in(self, places: PlaceIndex, marking: Marking) -> Distribution:
        """The completion-time distribution in ``marking``."""
        if isinstance(self._distribution, Distribution):
            return self._distribution
        return self._distribution(MarkingView(places, marking))

    def is_markovian(self, places: PlaceIndex, marking: Marking) -> bool:
        """Whether the activity is exponential in ``marking``."""
        return isinstance(self.distribution_in(places, marking), Exponential)


class InstantaneousActivity(_ActivityBase):
    """An activity that completes in zero time.

    Instantaneous activities always have priority over timed ones.
    Among themselves, higher ``priority`` fires first; equal-priority
    enabled instantaneous activities are a modelling error (the engine
    refuses the ambiguity rather than resolving it silently).
    """

    def __init__(
        self,
        name: str,
        *,
        priority: int = 0,
        input_arcs: Optional[Mapping[str, int]] = None,
        input_gates: Sequence[InputGate] = (),
        cases: Optional[Sequence[Case]] = None,
    ):
        super().__init__(
            name, input_arcs=input_arcs, input_gates=input_gates, cases=cases
        )
        self.priority = priority


class SANModel:
    """A stochastic activity network.

    Parameters
    ----------
    places:
        All places (order defines the marking layout).
    timed_activities / instantaneous_activities:
        The network's activities.  Names must be unique across both
        kinds.
    exchangeable_groups:
        Declared symmetries: each group is a sequence of *members*
        whose markings may be permuted without changing the model's
        stochastic behaviour (e.g. the per-satellite places of
        identical satellites in one plane).  A member is a place name
        or a tuple of place names (a satellite modelled by several
        places); members of one group must have the same arity and the
        groups must be place-disjoint.  The declaration is a
        *candidate* -- :mod:`repro.san.lumping` verifies it before any
        quotient is trusted.
    """

    def __init__(
        self,
        places: Sequence[Place],
        timed_activities: Sequence[TimedActivity],
        instantaneous_activities: Sequence[InstantaneousActivity] = (),
        *,
        name: str = "san",
        exchangeable_groups: Sequence[Sequence[object]] = (),
    ):
        self.name = name
        self.places = tuple(places)
        self.place_index = PlaceIndex(p.name for p in self.places)
        self.timed_activities = tuple(timed_activities)
        self.instantaneous_activities = tuple(instantaneous_activities)
        names = [a.name for a in self.timed_activities] + [
            a.name for a in self.instantaneous_activities
        ]
        if len(set(names)) != len(names):
            raise ModelError(f"duplicate activity names: {sorted(names)}")
        self._validate_arcs()
        self.exchangeable_groups = self._normalise_groups(exchangeable_groups)

    def _normalise_groups(
        self, groups: Sequence[Sequence[object]]
    ) -> Tuple[Tuple[Tuple[str, ...], ...], ...]:
        """Validate and normalise ``exchangeable_groups`` to a tuple of
        groups, each a tuple of members, each member a tuple of place
        names."""
        normalised: List[Tuple[Tuple[str, ...], ...]] = []
        seen: set = set()
        for group in groups:
            members: List[Tuple[str, ...]] = []
            for member in group:
                if isinstance(member, str):
                    member = (member,)
                member = tuple(member)
                if not member:
                    raise ModelError(
                        f"model {self.name!r}: empty member in an "
                        "exchangeable group"
                    )
                for place in member:
                    if place not in self.place_index:
                        raise ModelError(
                            f"model {self.name!r}: exchangeable group "
                            f"references unknown place {place!r}"
                        )
                    if place in seen:
                        raise ModelError(
                            f"model {self.name!r}: place {place!r} appears "
                            "in more than one exchangeable member; groups "
                            "must be place-disjoint"
                        )
                    seen.add(place)
                members.append(member)
            if len(members) < 2:
                raise ModelError(
                    f"model {self.name!r}: an exchangeable group needs at "
                    f"least two members, got {len(members)}"
                )
            arities = {len(member) for member in members}
            if len(arities) != 1:
                raise ModelError(
                    f"model {self.name!r}: members of one exchangeable "
                    f"group must have equal arity, got {sorted(arities)}"
                )
            normalised.append(tuple(members))
        return tuple(normalised)

    def _validate_arcs(self) -> None:
        for activity in (*self.timed_activities, *self.instantaneous_activities):
            for place in activity.input_arcs:
                if place not in self.place_index:
                    raise ModelError(
                        f"activity {activity.name!r} references unknown "
                        f"place {place!r}"
                    )
            for case in activity.cases:
                for place in case.output_arcs:
                    if place not in self.place_index:
                        raise ModelError(
                            f"activity {activity.name!r} case references "
                            f"unknown place {place!r}"
                        )

    def initial_marking(self) -> Marking:
        """The marking defined by the places' initial token counts."""
        return tuple(p.initial for p in self.places)

    def view(self, marking: Marking) -> MarkingView:
        """A mutable name-keyed view of ``marking``."""
        return MarkingView(self.place_index, marking)

    def marking_dict(self, marking: Marking) -> Dict[str, int]:
        """Name-keyed copy of ``marking``."""
        return self.view(marking).as_dict()

    def enabled_timed(self, marking: Marking) -> List[TimedActivity]:
        """Timed activities enabled in ``marking``."""
        return [
            a for a in self.timed_activities if a.enabled(self.place_index, marking)
        ]

    def enabled_instantaneous(self, marking: Marking) -> List[InstantaneousActivity]:
        """Instantaneous activities enabled in ``marking``."""
        return [
            a
            for a in self.instantaneous_activities
            if a.enabled(self.place_index, marking)
        ]
