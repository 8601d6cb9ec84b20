"""Tests for repro.san.assembled (the topology/rate split): assembled
chains must code their states injectively, re-rate to the same answers
as a fresh assembly, and reject topology changes."""

import numpy as np
import pytest

from repro.analytic.capacity import CapacityModelConfig, build_capacity_san
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


def on_off_model(up_rate=0.5, repair_time=2.0, name="on-off"):
    """Exponential failure, deterministic repair."""
    fail = TimedActivity.exponential("fail", up_rate, input_arcs={"up": 1})
    repair = TimedActivity(
        "repair",
        Deterministic(repair_time),
        input_gates=[InputGate("down", predicate=lambda m: m["up"] == 0)],
        cases=[Case(output_arcs={"up": 1})],
    )
    return SANModel([Place("up", 1)], [fail, repair], name=name)


def capacity_space(lam=5e-5):
    config = CapacityModelConfig(failure_rate_per_hour=lam, threshold=10)
    return generate(build_capacity_san(config))


class TestStateCodes:
    def test_integer_codes_decode_faithfully(self):
        """Every augmented state has its own code, and the code's
        leading digit is the state's tangible marking."""
        space = capacity_space()
        assembled = assemble(space, stages=6)
        codes = assembled.codes
        assert codes.shape == (assembled.num_states,)
        assert len(np.unique(codes)) == len(codes)  # codes are injective
        np.testing.assert_array_equal(
            codes // assembled.stage_span, assembled.marking_of_state
        )


class TestRerate:
    def test_rerate_matches_fresh_rebuild_at_new_rates(self):
        """Assemble once at one lambda, re-rate across a sweep: every
        point must match a from-scratch assembly to 1e-12."""
        space = capacity_space(lam=2e-5)
        assembled = assemble(space, stages=8)
        for lam in (4e-5, 7e-5, 9.6e-5):
            fresh_space = capacity_space(lam=lam)
            rerated = assembled.rerate(fresh_space.model)
            rebuilt = assemble(fresh_space, stages=8).rerate(
                fresh_space.model
            )
            pi_rerated = rerated.steady_state()
            pi_rebuilt = rebuilt.steady_state()
            marginals = assembled.marking_marginals(pi_rerated)
            rebuilt_marginals = assembled.marking_marginals(pi_rebuilt)
            assert np.max(np.abs(marginals - rebuilt_marginals)) <= 1e-12

    def test_zero_rate_is_a_rate_not_a_topology_change(self):
        """Regression: a rate hitting exactly 0.0 is a re-rate, not a
        structural change.  Enabling is arcs + gates only, so a slot
        whose activity evaluates to rate zero must re-rate in place
        (the zero-rate transitions drop out in the CTMC build); the old
        ``Exponential`` constructor rejected rate 0.0 outright, which
        misclassified rate-only sweep points (e.g. a repair-rate axis
        crossing zero) as topology rejections and forced full-rebuild
        fallbacks."""

        def dual_repair_model(fail=0.5, slow=1.0, fast=4.0):
            # Two redundant repair pathways: zeroing one keeps the chain
            # irreducible through the other.
            a = TimedActivity.exponential("fail", fail, input_arcs={"up": 1})
            down_gate = InputGate("down", predicate=lambda m: m["up"] == 0)
            slow_repair = TimedActivity.exponential(
                "slow_repair",
                slow,
                input_gates=[down_gate],
                cases=[Case(output_arcs={"up": 1})],
            )
            fast_repair = TimedActivity.exponential(
                "fast_repair",
                fast,
                input_gates=[down_gate],
                cases=[Case(output_arcs={"up": 1})],
            )
            return SANModel(
                [Place("up", 1)],
                [a, slow_repair, fast_repair],
                name="dual-repair",
            )

        space = generate(dual_repair_model())
        assembled = assemble(space, stages=1)
        # Positive -> zero: same topology, no ModelError, and the
        # steady state matches a fresh build at the zeroed rate.
        zero = dual_repair_model(fast=0.0)
        pi_rerated = assembled.rerate(zero).steady_state()
        fresh_zero = assemble(generate(zero), stages=1).rerate(zero)
        assert np.max(
            np.abs(pi_rerated - fresh_zero.steady_state())
        ) <= 1e-12
        # Only the surviving pathway remains: pi(up) = slow/(slow+fail).
        marginals = assembled.marking_marginals(pi_rerated)
        up_index = space.model.place_index.position("up")
        up_mass = sum(
            p
            for marking_index, p in enumerate(marginals.tolist())
            if space.markings[marking_index][up_index] == 1
        )
        assert up_mass == pytest.approx(1.0 / 1.5, abs=1e-12)
        # Zero -> positive on a topology *assembled at zero*: also fine.
        assembled_at_zero = assemble(
            generate(dual_repair_model(fast=0.0)), stages=1
        )
        hot = dual_repair_model(fast=4.0)
        back = assembled_at_zero.rerate(hot)
        fresh = assemble(generate(hot), stages=1).rerate(hot)
        assert np.max(
            np.abs(back.steady_state() - fresh.steady_state())
        ) <= 1e-12

    def test_rerate_with_precomputed_rate_vector(self):
        space = generate(on_off_model())
        assembled = assemble(space, stages=4)
        vector = assembled.rate_vector(space.model)
        via_vector = assembled.rerate(rate_vector=vector)
        via_model = assembled.rerate(space.model)
        assert (via_vector.generator != via_model.generator).nnz == 0

    def test_rerate_requires_model_or_vector(self):
        space = generate(on_off_model())
        assembled = assemble(space, stages=4)
        with pytest.raises(ModelError):
            assembled.rerate()

    def test_rate_vector_length_validated(self):
        space = generate(on_off_model())
        assembled = assemble(space, stages=4)
        with pytest.raises(ModelError):
            assembled.transition_rates(np.ones(assembled.num_slots + 1))


class TestTopologyValidation:
    def test_place_set_change_rejected(self):
        space = generate(on_off_model())
        assembled = assemble(space, stages=4)
        other = SANModel(
            [Place("up", 1), Place("extra", 0)],
            [
                TimedActivity.exponential("fail", 0.5, input_arcs={"up": 1}),
                TimedActivity(
                    "repair",
                    Deterministic(2.0),
                    input_gates=[
                        InputGate("down", predicate=lambda m: m["up"] == 0)
                    ],
                    cases=[Case(output_arcs={"up": 1})],
                ),
            ],
        )
        with pytest.raises(ModelError):
            assembled.rate_vector(other)

    def test_threshold_change_rejected(self):
        """A different deployment threshold changes which activities are
        enabled where -- that is topology, not rate."""
        assembled = assemble(capacity_space(), stages=4)
        other = generate(
            build_capacity_san(
                CapacityModelConfig(failure_rate_per_hour=5e-5, threshold=12)
            )
        )
        with pytest.raises(ModelError):
            assembled.rate_vector(other.model)

    def test_erlang_shape_change_rejected(self):
        """Swapping a Deterministic timer for an Erlang of a different
        shape changes the stage structure."""

        def erlang_model(shape):
            fail = TimedActivity.exponential(
                "fail", 0.5, input_arcs={"up": 1}
            )
            repair = TimedActivity(
                "repair",
                Erlang(shape, shape / 2.0),
                input_gates=[
                    InputGate("down", predicate=lambda m: m["up"] == 0)
                ],
                cases=[Case(output_arcs={"up": 1})],
            )
            return SANModel([Place("up", 1)], [fail, repair])

        assembled = assemble(generate(erlang_model(3)), stages=4)
        with pytest.raises(ModelError):
            assembled.rate_vector(erlang_model(5))

    def test_matching_erlang_substitutes_for_deterministic(self):
        """A Deterministic timer may be re-rated as an Erlang of exactly
        the assembled stage count (same structure, new rate)."""
        stages = 6
        assembled = assemble(generate(on_off_model()), stages=stages)
        fail = TimedActivity.exponential("fail", 0.5, input_arcs={"up": 1})
        repair = TimedActivity(
            "repair",
            Erlang(stages, stages / 3.0),  # mean 3 instead of 2
            input_gates=[InputGate("down", predicate=lambda m: m["up"] == 0)],
            cases=[Case(output_arcs={"up": 1})],
        )
        substituted = SANModel([Place("up", 1)], [fail, repair])
        ctmc = assembled.rerate(substituted)
        pi = assembled.marking_marginals(ctmc.steady_state())
        up_index = assembled.space.index[(1,)]
        # Availability (1/lam) / (1/lam + d) with the new mean d = 3.
        assert pi[up_index] == pytest.approx(2.0 / 5.0, abs=1e-9)

    def test_validate_false_skips_structure_checks(self):
        """validate=False is the fast path for a model known to be
        topology-identical (e.g. the one the chain was assembled from)."""
        space = generate(on_off_model())
        assembled = assemble(space, stages=4)
        vector = assembled.rate_vector(space.model, validate=False)
        assert vector.shape == (assembled.num_slots,)


class TestShape:
    def test_describe_mentions_counts(self):
        assembled = assemble(generate(on_off_model()), stages=4)
        text = assembled.describe()
        assert str(assembled.num_states) in text
        assert "rate slots" in text

    def test_rejects_bad_stage_count(self):
        with pytest.raises(ModelError):
            assemble(generate(on_off_model()), stages=0)
