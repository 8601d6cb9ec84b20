"""Gate code of the per-satellite capacity SAN
(:func:`repro.analytic.capacity.build_capacity_san_expanded`).

The model's gates share one down count per marking and read satellite
tokens by pre-resolved position.  These tests pin that against a naive
name-keyed reference, bit for bit, over the reachable markings, and
guard the per-marking cost of a validating re-rate: it must stay
linear in the satellite count.
"""

import itertools
import math
import random
import sys
import threading

import pytest

from repro.analytic.capacity import (
    CapacityModelConfig,
    build_capacity_san_expanded,
)
from repro.analytic.distributions import Deterministic, Exponential
from repro.san import assemble, generate, lumped_state_space
from repro.san.marking import MarkingView, PlaceIndex

#: Orbits larger than this are sampled (seeded) rather than enumerated,
#: so the 14-satellite models (16k / 130k markings) stay quick; every
#: (down count, spares, pending) class is still covered.
_ORBIT_CAP = 128

_CONFIGS = [
    pytest.param(full, eta, rho, id=f"full{full}-rho{rho}")
    for full, eta in ((3, 2), (5, 3), (14, 10))
    for rho in (None, 2e-3)
]


def _config(full, eta, rho):
    return CapacityModelConfig(
        full_capacity=full,
        threshold=eta,
        failure_rate_per_hour=1e-4,
        repair_rate_per_hour=rho,
    )


def _orbit(representative, full, rng):
    """The markings in the orbit of a sorted representative (every
    placement of its failed satellites), sampled above the cap."""
    rest = representative[full:]
    down = full - sum(representative[:full])
    placements = math.comb(full, down)

    def marking(zeros):
        zeros = set(zeros)
        return tuple(0 if i in zeros else 1 for i in range(full)) + rest

    if placements <= _ORBIT_CAP:
        return [marking(z) for z in itertools.combinations(range(full), down)]
    sampled = {tuple(range(down)), tuple(range(full - down, full))}
    while len(sampled) < _ORBIT_CAP:
        sampled.add(tuple(sorted(rng.sample(range(full), down))))
    return [marking(z) for z in sorted(sampled)]


def _reachable(model, full):
    rng = random.Random(full)
    markings = []
    for representative in lumped_state_space(model).markings:
        markings.extend(_orbit(representative, full, rng))
    return markings


def _naive_reference(config):
    """Name-keyed reference: every satellite read by name, the down
    count summed from scratch on every call."""
    full = config.full_capacity
    eta = config.threshold
    rho = config.repair_rate_per_hour
    sats = [f"sat_{i}" for i in range(1, full + 1)]

    def down(m):
        return sum(1 - m[s] for s in sats)

    def repair_probabilities(m):
        d = down(m)
        return [(1 - m[s]) / d if d else 0.0 for s in sats]

    def arrival_probabilities(m):
        probabilities = repair_probabilities(m)
        if rho is not None:
            probabilities.append(1.0 if down(m) == 0 else 0.0)
        return probabilities

    cases = {
        "replacement_arrival": arrival_probabilities,
        "deploy_in_orbit_spare": repair_probabilities,
        "repair": repair_probabilities,
    }
    predicates = {
        "always": lambda m: True,
        "slot_open": lambda m: down(m) > 0,
        "repairable": lambda m: down(m) > 0,
        "below_threshold": lambda m: (
            m["spares"] == 0 and (full - down(m)) + m["pending"] < eta
        ),
    }
    rates = {"repair": lambda m: rho * down(m)}
    return cases, predicates, rates


def _bits(values):
    return [float(value).hex() for value in values]


@pytest.mark.parametrize("full, eta, rho", _CONFIGS)
def test_gates_match_naive_reference_bit_for_bit(full, eta, rho):
    config = _config(full, eta, rho)
    model = build_capacity_san_expanded(config)
    markings = _reachable(model, full)
    if full <= 5:
        # Small planes: the orbit expansion is the whole reachable set.
        assert set(markings) == set(generate(model).markings)
    # Jump between markings so a stale per-marking memo would show.
    random.Random(7).shuffle(markings)
    cases, predicates, rates = _naive_reference(config)
    activities = model.timed_activities + model.instantaneous_activities
    for marking in markings:
        view = MarkingView(model.place_index, marking)
        for activity in activities:
            probabilities = [
                case.probability(view) if callable(case.probability)
                else case.probability
                for case in activity.cases
            ]
            if activity.name in cases:
                expected = cases[activity.name](view)
            else:
                expected = [1.0] * len(activity.cases)
            assert _bits(probabilities) == _bits(expected), (
                activity.name,
                marking,
            )
            for gate in activity.input_gates:
                assert gate.predicate(view) is predicates[gate.name](view), (
                    gate.name,
                    marking,
                )
            if activity in model.timed_activities:
                distribution = activity.distribution_in(
                    model.place_index, marking
                )
                if activity.name in rates:
                    assert isinstance(distribution, Exponential)
                    assert _bits([distribution.rate]) == _bits(
                        [rates[activity.name](view)]
                    )
                elif activity.name.startswith("failure_"):
                    assert distribution.rate == config.failure_rate_per_hour
                else:
                    assert isinstance(distribution, Deterministic)
        assert view.freeze() == marking  # gate code never writes


def _count_place_lookups(monkeypatch, call):
    """Run ``call`` counting name-keyed place lookups (view reads and
    writes by name, index resolutions)."""
    count = [0]

    def counted(function):
        def wrapper(*args, **kwargs):
            count[0] += 1
            return function(*args, **kwargs)

        return wrapper

    with monkeypatch.context() as patch:
        for owner, name in (
            (MarkingView, "__getitem__"),
            (MarkingView, "__setitem__"),
            (PlaceIndex, "position"),
        ):
            patch.setattr(owner, name, counted(getattr(owner, name)))
        call()
    return count[0]


@pytest.mark.parametrize("rho", [None, 2e-3])
def test_validating_rerate_is_linear_in_satellites(monkeypatch, rho):
    """Operation count, not time: the place lookups one validating
    ``rate_vector`` makes per tangible marking at most roughly double
    when the plane doubles (quadratic gate code would quadruple them)."""
    per_marking = {}
    for full in (14, 28):
        config = _config(full, full - 4, rho)
        chain = assemble(
            lumped_state_space(build_capacity_san_expanded(config)), stages=3
        )
        model = build_capacity_san_expanded(config)
        lookups = _count_place_lookups(
            monkeypatch, lambda: chain.rate_vector(model, validate=True)
        )
        per_marking[full] = lookups / len(chain.space)
    assert per_marking[28] <= 2.2 * per_marking[14], per_marking


def test_shared_down_count_memo_is_thread_safe():
    """Threads evaluating one model's cases on different markings never
    see another marking's down count (the memo swaps whole entries)."""
    config = _config(5, 3, 2e-3)
    model = build_capacity_san_expanded(config)
    markings = sorted(set(generate(model).markings))
    cases, _, _ = _naive_reference(config)
    arrival = next(
        a for a in model.timed_activities if a.name == "replacement_arrival"
    )
    expected = {
        m: _bits(cases["replacement_arrival"](MarkingView(model.place_index, m)))
        for m in markings
    }
    mismatches = []

    def worker(offset):
        for i in range(400):
            marking = markings[(offset + i) % len(markings)]
            view = MarkingView(model.place_index, marking)
            got = _bits(
                [
                    case.probability(view) if callable(case.probability)
                    else case.probability
                    for case in arrival.cases
                ]
            )
            if got != expected[marking]:
                mismatches.append(marking)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(offset,))
            for offset in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []
