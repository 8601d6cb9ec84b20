"""Discrete-event simulation of SAN models.

The simulator executes a SAN directly -- including deterministic and
other non-exponential activities, which it samples exactly -- and
estimates steady-state rewards by time averaging with batch means.
It serves two purposes:

* cross-checking the phase-type unfolding used by the numerical solver
  (the ablation benchmark compares both on the capacity model), and
* solving models whose state space is too large to enumerate.

Timing semantics (matching :mod:`repro.san.assembled`):

* enabled timed activities race;
* an activity that stays enabled across another completion keeps its
  scheduled completion time (preemptive-resume) -- except exponential
  activities with marking-dependent rates, which are resampled so the
  new rate takes effect (correct by memorylessness);
* an activity that becomes disabled is cancelled and will draw a fresh
  delay when next enabled (preemptive-restart).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.analytic.distributions import Exponential
from repro.errors import ConfigurationError, ModelError
from repro.san.marking import Marking, MarkingView
from repro.san.model import SANModel, TimedActivity

__all__ = ["RewardEstimate", "SimulationResult", "SANSimulator"]

RewardFunction = Callable[[MarkingView], float]


@dataclass(frozen=True)
class RewardEstimate:
    """Batch-means estimate of a steady-state reward."""

    name: str
    mean: float
    half_width: float
    batches: int
    #: Per-batch time averages; each batch is normalised by its own
    #: width, so they average back to ``mean`` (weighted by width).
    batch_means: Tuple[float, ...] = ()

    @property
    def confidence_interval(self) -> Tuple[float, float]:
        """Approximate 95% confidence interval."""
        return (self.mean - self.half_width, self.mean + self.half_width)


@dataclass
class SimulationResult:
    """Outcome of a steady-state simulation run."""

    rewards: Dict[str, RewardEstimate]
    marking_occupancy: Dict[Marking, float]
    simulated_time: float
    events: int

    def occupancy_by(
        self, key: Callable[[Marking], object]
    ) -> Dict[object, float]:
        """Aggregate marking occupancy by an arbitrary key function."""
        result: Dict[object, float] = {}
        for marking, fraction in self.marking_occupancy.items():
            k = key(marking)
            result[k] = result.get(k, 0.0) + fraction
        return result


class SANSimulator:
    """Discrete-event executor for a :class:`SANModel`."""

    def __init__(self, model: SANModel, *, seed: Optional[int] = None):
        self.model = model
        self.rng = np.random.default_rng(seed)
        self._counter = itertools.count()

    # ------------------------------------------------------------------
    # Core execution
    # ------------------------------------------------------------------
    def _stabilise(self, marking: Marking) -> Marking:
        """Fire enabled instantaneous activities until none remain,
        choosing cases at random according to their probabilities."""
        depth = 0
        while True:
            enabled = self.model.enabled_instantaneous(marking)
            if not enabled:
                return marking
            depth += 1
            if depth > 1000:
                raise ModelError(
                    f"model {self.model.name!r}: instantaneous cycle detected "
                    "during simulation"
                )
            top = max(a.priority for a in enabled)
            candidates = [a for a in enabled if a.priority == top]
            if len(candidates) > 1:
                names = sorted(a.name for a in candidates)
                raise ModelError(
                    f"model {self.model.name!r}: equal-priority instantaneous "
                    f"conflict between {names}"
                )
            activity = candidates[0]
            probs = activity.case_probabilities(self.model.place_index, marking)
            case_index = int(self.rng.choice(len(probs), p=probs))
            marking = activity.fire(self.model.place_index, marking, case_index)

    def _sample_delay(self, activity: TimedActivity, marking: Marking) -> float:
        distribution = activity.distribution_in(self.model.place_index, marking)
        return distribution.sample(self.rng)

    def run(
        self,
        horizon: float,
        *,
        warmup: float = 0.0,
        rewards: Optional[Mapping[str, RewardFunction]] = None,
        batches: int = 10,
        track_occupancy: bool = True,
    ) -> SimulationResult:
        """Simulate until ``horizon`` and return time-average rewards
        over ``(warmup, horizon]`` with batch-means confidence
        intervals.
        """
        if horizon <= warmup:
            raise ConfigurationError(
                f"horizon ({horizon}) must exceed warmup ({warmup})"
            )
        if batches < 1:
            raise ConfigurationError(f"batches must be >= 1, got {batches}")
        rewards = dict(rewards or {})
        batch_length = (horizon - warmup) / batches

        marking = self._stabilise(self.model.initial_marking())
        now = 0.0
        events = 0

        # Scheduled completion per enabled activity: name -> (time, seq).
        schedule: Dict[str, Tuple[float, int]] = {}
        heap: List[Tuple[float, int, str]] = []

        def reschedule(previous: Marking, current: Marking) -> None:
            enabled_now = {
                a.name: a for a in self.model.enabled_timed(current)
            }
            for name in list(schedule):
                if name not in enabled_now:
                    del schedule[name]  # disabled: restart on re-enable
            for name, activity in enabled_now.items():
                resample = name not in schedule
                if not resample and isinstance(
                    activity.distribution_in(self.model.place_index, current),
                    Exponential,
                ):
                    # Memoryless: resample so marking-dependent rates
                    # take effect immediately.
                    resample = previous != current
                if resample:
                    delay = self._sample_delay(activity, current)
                    entry = (now + delay, next(self._counter))
                    schedule[name] = entry
                    heapq.heappush(heap, (entry[0], entry[1], name))

        reschedule(marking, marking)

        # Accumulators.  Batch edges are derived from the *integer*
        # batch index (edge i = warmup + (i+1) * batch_length, with the
        # final edge pinned to the horizon), never by repeated addition:
        # incremental ``edge += batch_length`` drifts on long horizons,
        # and the drift both misplaces boundaries and leaves the final
        # partial batch normalised by the wrong width.
        reward_totals = {name: 0.0 for name in rewards}
        batch_totals: Dict[str, List[float]] = {name: [] for name in rewards}
        batch_current = {name: 0.0 for name in rewards}
        batch_index = 0
        occupancy: Dict[Marking, float] = {}

        def edge_of(index: int) -> float:
            """End of 0-based batch ``index``."""
            if index + 1 >= batches:
                return horizon
            return warmup + (index + 1) * batch_length

        def close_batch() -> None:
            nonlocal batch_index
            start_edge = warmup if batch_index == 0 else edge_of(batch_index - 1)
            width = edge_of(batch_index) - start_edge
            for name in rewards:
                batch_totals[name].append(batch_current[name] / width)
                batch_current[name] = 0.0
            batch_index += 1

        def accumulate(start: float, end: float) -> None:
            if end <= warmup:
                return
            start = max(start, warmup)
            span = end - start
            if span <= 0:
                return
            view = MarkingView(self.model.place_index, marking)
            if track_occupancy:
                occupancy[marking] = occupancy.get(marking, 0.0) + span
            values = {name: fn(view) for name, fn in rewards.items()}
            # Split the span across batch boundaries.
            cursor = start
            while cursor < end:
                batch_edge = edge_of(batch_index)
                edge = min(end, batch_edge)
                width = edge - cursor
                for name, value in values.items():
                    reward_totals[name] += value * width
                    batch_current[name] += value * width
                cursor = edge
                if cursor == batch_edge and batch_index < batches:
                    close_batch()

        while heap:
            fire_time, seq, name = heapq.heappop(heap)
            entry = schedule.get(name)
            if entry is None or entry != (fire_time, seq):
                continue  # stale event
            if fire_time > horizon:
                break
            accumulate(now, fire_time)
            now = fire_time
            events += 1
            del schedule[name]
            activity = next(
                a for a in self.model.timed_activities if a.name == name
            )
            probs = activity.case_probabilities(self.model.place_index, marking)
            case_index = int(self.rng.choice(len(probs), p=probs))
            previous = marking
            fired = activity.fire(self.model.place_index, marking, case_index)
            marking = self._stabilise(fired)
            reschedule(previous, marking)

        accumulate(now, horizon)
        # The final accumulate call ends exactly at the horizon, which
        # is the last batch edge, so normally every batch is already
        # closed; the guard covers the degenerate case of the last
        # event landing exactly on the horizon with nothing after it.
        while batch_index < batches:
            close_batch()

        observed = horizon - warmup
        estimates: Dict[str, RewardEstimate] = {}
        for name in rewards:
            series = np.array(batch_totals[name])
            mean = reward_totals[name] / observed
            if len(series) > 1:
                half_width = 1.96 * float(series.std(ddof=1)) / math.sqrt(len(series))
            else:
                half_width = math.inf
            estimates[name] = RewardEstimate(
                name=name,
                mean=mean,
                half_width=half_width,
                batches=len(series),
                batch_means=tuple(batch_totals[name]),
            )
        total_occupancy = sum(occupancy.values())
        if total_occupancy > 0:
            occupancy = {
                m: span / total_occupancy for m, span in occupancy.items()
            }
        return SimulationResult(
            rewards=estimates,
            marking_occupancy=occupancy,
            simulated_time=observed,
            events=events,
        )
