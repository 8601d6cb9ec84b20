"""Tests for the Erlang unfolding of deterministic activities
(repro.san.assembled: ``assemble`` + ``rerate`` + ``marking_marginals``)
against renewal-theory closed forms."""

import math

import pytest

from repro.analytic.distributions import Deterministic, Erlang
from repro.errors import ModelError
from repro.san import (
    Case,
    InputGate,
    Place,
    SANModel,
    TimedActivity,
    assemble,
    generate,
)


def steady_state_markings(space, *, stages):
    """Stationary probability of each tangible marking of ``space``
    (stage counters marginalised out), by the array-native unfolding."""
    chain = assemble(space, stages=stages)
    pi = chain.rerate(space.model).steady_state()
    return chain.marking_marginals(pi)


def on_off_model(up_rate=0.5, repair_time=2.0):
    """Exponential failure, deterministic repair."""
    fail = TimedActivity.exponential("fail", up_rate, input_arcs={"up": 1})
    repair = TimedActivity(
        "repair",
        Deterministic(repair_time),
        input_gates=[InputGate("down", predicate=lambda m: m["up"] == 0)],
        cases=[Case(output_arcs={"up": 1})],
    )
    return SANModel([Place("up", 1)], [fail, repair], name="on-off")


class TestOnOffAvailability:
    """M/D alternating renewal: availability = (1/l) / (1/l + d)."""

    def test_availability_converges_with_stages(self):
        lam, d = 0.5, 2.0
        expected_up = (1.0 / lam) / (1.0 / lam + d)
        space = generate(on_off_model(lam, d))
        errors = []
        for stages in (2, 8, 32):
            probs = steady_state_markings(space, stages=stages)
            up_index = space.index[(1,)]
            errors.append(abs(probs[up_index] - expected_up))
        # Mean-matched Erlang gives the exact alternating-renewal
        # availability at every stage count; convergence shows up in
        # higher moments, but the mean fraction must already be right.
        assert all(err < 1e-8 for err in errors)

    def test_probabilities_sum_to_one(self):
        space = generate(on_off_model())
        probs = steady_state_markings(space, stages=8)
        assert probs.sum() == pytest.approx(1.0)


class TestErlangActivities:
    def test_explicit_erlang_keeps_its_shape(self):
        fail = TimedActivity.exponential("fail", 1.0, input_arcs={"up": 1})
        repair = TimedActivity(
            "repair",
            Erlang(3, 1.5),  # mean 2
            input_gates=[InputGate("down", predicate=lambda m: m["up"] == 0)],
            cases=[Case(output_arcs={"up": 1})],
        )
        model = SANModel([Place("up", 1)], [fail, repair])
        space = generate(model)
        # stages ignored for Erlang
        probs = steady_state_markings(space, stages=99)
        # up: mean 1; down: mean 2 -> availability 1/3.
        assert probs[space.index[(1,)]] == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_stage_count_controls_state_space(self):
        space = generate(on_off_model())
        small = assemble(space, stages=2)
        large = assemble(space, stages=16)
        assert large.num_states > small.num_states


class TestMD1Queue:
    def test_md1_mean_queue_matches_pollaczek_khinchine(self):
        """M/D/1 mean queue length L = rho + rho^2/(2(1-rho)); the
        Erlang unfolding must approach it as stages grow."""
        lam, d = 0.4, 1.0
        rho = lam * d
        expected = rho + rho * rho / (2.0 * (1.0 - rho))
        capacity = 40  # large enough to emulate an infinite queue

        arrive = TimedActivity.exponential(
            "arrive",
            lam,
            input_gates=[
                InputGate("room", predicate=lambda m: m["queue"] < capacity)
            ],
            cases=[Case(output_arcs={"queue": 1})],
        )
        serve = TimedActivity(
            "serve", Deterministic(d), input_arcs={"queue": 1}
        )
        space = generate(SANModel([Place("queue", 0)], [arrive, serve]))
        probs = steady_state_markings(space, stages=40)
        mean_queue = sum(
            marking[0] * p for marking, p in zip(space.markings, probs)
        )
        # The serve timer restarts per customer (input arc holds the
        # token), matching M/D/1 service semantics.
        assert mean_queue == pytest.approx(expected, rel=0.03)


class TestValidation:
    def test_exponential_only_model_passes_through(self):
        fail = TimedActivity.exponential("fail", 1.0, input_arcs={"up": 1})
        space = generate(SANModel([Place("up", 1)], [fail]))
        chain = assemble(space, stages=4)
        assert chain.num_states == len(space)

    def test_rejects_bad_stage_count(self):
        space = generate(on_off_model())
        with pytest.raises(ModelError):
            assemble(space, stages=0)

    def test_rejects_unsupported_distribution(self):
        from repro.analytic.distributions import Uniform

        odd = TimedActivity("odd", Uniform(0.0, 1.0), input_arcs={"p": 1})
        space = generate(SANModel([Place("p", 1)], [odd]))
        with pytest.raises(ModelError):
            assemble(space, stages=4)
