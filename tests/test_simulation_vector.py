"""Tests for :mod:`repro.simulation.vector` -- the struct-of-arrays
vectorized replication engine.

The load-bearing contract: on identical randomness tapes, the vector
path's ``(level, detected)`` pair is **exactly equal** to the scalar
event-driven oracle's for every replication, across all four protocol
branches (overlap/underlap x OAQ/BAQ) and both messaging variants --
including templates the vector model cannot cover (lossy links, custom
accuracy models, non-exponential computation), which must shunt every
row to the oracle via the divergence mask, and exact event-time ties,
which must shunt just the tied rows.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analytic.distributions import Exponential, HyperExponential
from repro.core.config import EvaluationParams
from repro.core.schemes import Scheme
from repro.errors import ConfigurationError
from repro.protocol.accuracy_model import GeometricAccuracyModel
from repro.protocol.satellite import MessagingVariant
from repro.simulation import vector as vector_mod
from repro.simulation.batch import ScenarioTemplate
from repro.simulation.qos_montecarlo import (
    simulate_conditional_distribution_protocol,
)
from repro.simulation.vector import (
    draw_protocol_tapes,
    reset_vector_batch_stats,
    sample_levels_vector,
    scalar_reference_levels,
    vector_batch_stats,
)

PARAMS = EvaluationParams(signal_termination_rate=0.2)
#: k=9 underlaps (coordination chains form), k=12 overlaps
#: (simultaneous double coverage) -- the two physical regimes.
CAPACITIES = (9, 12)


def _vector_and_oracle(template, seed, count, params=PARAMS):
    """Run the vector engine and the scalar oracle on the same spawned
    seed: twin generators replay identical signal variates and tapes."""
    child = np.random.SeedSequence(seed)
    rng_vector = np.random.default_rng(child)
    rng_oracle = np.random.default_rng(child)
    geometry = template.geometry
    onsets = rng_vector.uniform(0.0, geometry.l1, size=count)
    durations = rng_vector.exponential(1.0 / params.mu, size=count)
    rng_oracle.uniform(0.0, geometry.l1, size=count)
    rng_oracle.exponential(1.0 / params.mu, size=count)

    levels, detected = sample_levels_vector(
        template, rng_vector, onsets, durations
    )
    tapes = draw_protocol_tapes(template, rng_oracle, count)
    oracle_levels, oracle_detected = scalar_reference_levels(
        template, onsets, durations, tapes
    )
    return levels, detected, oracle_levels, oracle_detected


class TestExactness:
    """Vector-path counts equal scalar-path counts on the same spawned
    seeds, per replication, for every scheme branch."""

    @pytest.mark.parametrize("capacity", CAPACITIES)
    @pytest.mark.parametrize("scheme", [Scheme.OAQ, Scheme.BAQ])
    @pytest.mark.parametrize(
        "variant",
        [
            MessagingVariant.DONE_PROPAGATION,
            MessagingVariant.SUCCESSOR_RESPONSIBILITY,
        ],
    )
    def test_levels_match_oracle_exactly(self, capacity, scheme, variant):
        geometry = PARAMS.constellation.plane_geometry(capacity)
        template = ScenarioTemplate(
            geometry, PARAMS, scheme=scheme, variant=variant
        )
        levels, detected, oracle_levels, oracle_detected = _vector_and_oracle(
            template, seed=20030622 + capacity, count=1_500
        )
        np.testing.assert_array_equal(levels, oracle_levels)
        np.testing.assert_array_equal(detected, oracle_detected)

    @pytest.mark.parametrize("capacity", CAPACITIES)
    def test_supported_cells_decide_without_fallback(self, capacity):
        geometry = PARAMS.constellation.plane_geometry(capacity)
        template = ScenarioTemplate(geometry, PARAMS, scheme=Scheme.OAQ)
        reset_vector_batch_stats()
        _vector_and_oracle(template, seed=7, count=2_000)
        stats = vector_batch_stats()
        assert stats["calls"] == 1
        assert stats["replications"] == 2_000
        assert stats["fallbacks"] == 0
        assert stats["fallback_fraction"] == 0.0

    def test_jitter_free_model_draws_no_jitter_tape(self):
        geometry = PARAMS.constellation.plane_geometry(9)
        template = ScenarioTemplate(
            geometry,
            PARAMS,
            scheme=Scheme.OAQ,
            accuracy_model=GeometricAccuracyModel(jitter=0.0),
        )
        levels, detected, oracle_levels, oracle_detected = _vector_and_oracle(
            template, seed=5, count=800
        )
        np.testing.assert_array_equal(levels, oracle_levels)
        np.testing.assert_array_equal(detected, oracle_detected)
        tapes = draw_protocol_tapes(template, np.random.default_rng(1), 4)
        assert tapes.jit is None


class TestEngineDispatch:
    def test_sample_levels_engine_vector_matches_direct_call(self):
        geometry = PARAMS.constellation.plane_geometry(9)
        template = ScenarioTemplate(geometry, PARAMS, scheme=Scheme.OAQ)
        child = np.random.SeedSequence(3)
        rng_a = np.random.default_rng(child)
        rng_b = np.random.default_rng(child)
        onsets = np.linspace(0.0, geometry.l1 * 0.99, 64)
        durations = np.full(64, 30.0)
        via_template = template.sample_levels(
            rng_a, onsets, durations, engine="vector"
        )
        direct = sample_levels_vector(template, rng_b, onsets, durations)
        np.testing.assert_array_equal(via_template[0], direct[0])
        np.testing.assert_array_equal(via_template[1], direct[1])

    def test_unknown_engine_rejected(self):
        geometry = PARAMS.constellation.plane_geometry(9)
        template = ScenarioTemplate(geometry, PARAMS, scheme=Scheme.OAQ)
        with pytest.raises(ConfigurationError, match="unknown engine"):
            template.sample_levels(
                np.random.default_rng(0),
                np.zeros(2),
                np.ones(2),
                engine="warp",
            )

    def test_protocol_sampler_engine_plumbing(self):
        geometry = PARAMS.constellation.plane_geometry(9)
        first = simulate_conditional_distribution_protocol(
            geometry, PARAMS, Scheme.OAQ, samples=500, seed=11, engine="vector"
        )
        again = simulate_conditional_distribution_protocol(
            geometry, PARAMS, Scheme.OAQ, samples=500, seed=11, engine="vector"
        )
        assert first == again
        with pytest.raises(ConfigurationError, match="unknown engine"):
            simulate_conditional_distribution_protocol(
                geometry, PARAMS, Scheme.OAQ, samples=10, seed=1, engine="nope"
            )


class TestDivergenceFallback:
    """Templates the vector model does not cover must shunt every row
    to the oracle -- exactly and deterministically."""

    def _assert_full_fallback(self, template, reason):
        tapes = draw_protocol_tapes(template, np.random.default_rng(0), 8)
        assert tapes.fallback_all
        assert tapes.reason == reason
        reset_vector_batch_stats()
        levels, detected, oracle_levels, oracle_detected = _vector_and_oracle(
            template, seed=13, count=300
        )
        np.testing.assert_array_equal(levels, oracle_levels)
        np.testing.assert_array_equal(detected, oracle_detected)
        stats = vector_batch_stats()
        assert stats["fallbacks"] == 300
        assert stats["fallback_fraction"] == 1.0

    def test_lossy_crosslinks_fall_back(self):
        geometry = PARAMS.constellation.plane_geometry(9)
        template = ScenarioTemplate(
            geometry,
            PARAMS,
            scheme=Scheme.OAQ,
            crosslink_loss_probability=0.2,
        )
        self._assert_full_fallback(template, "lossy crosslinks")

    def test_custom_accuracy_model_falls_back(self):
        class TweakedModel(GeometricAccuracyModel):
            pass

        geometry = PARAMS.constellation.plane_geometry(9)
        template = ScenarioTemplate(
            geometry, PARAMS, scheme=Scheme.OAQ, accuracy_model=TweakedModel()
        )
        self._assert_full_fallback(template, "custom accuracy model")

    def test_non_exponential_computation_falls_back(self):
        geometry = PARAMS.constellation.plane_geometry(9)
        template = ScenarioTemplate(
            geometry,
            PARAMS,
            scheme=Scheme.OAQ,
            computation_time=HyperExponential(
                rates=[60.0, 10.0], weights=[0.5, 0.5]
            ),
        )
        self._assert_full_fallback(template, "non-exponential computation time")

    def test_zero_crosslink_delay_falls_back(self):
        params = EvaluationParams(
            signal_termination_rate=0.2, crosslink_delay_minutes=0.0
        )
        geometry = params.constellation.plane_geometry(9)
        template = ScenarioTemplate(geometry, params, scheme=Scheme.OAQ)
        tapes = draw_protocol_tapes(template, np.random.default_rng(0), 4)
        assert tapes.fallback_all
        assert tapes.reason == "zero crosslink delay"


class TestCraftedTies:
    def test_exact_overlap_tie_shunts_to_oracle(self):
        """A double-coverage completion landing exactly on the deadline
        guard is a kernel-order-dependent tie: the vector path must not
        guess, it must mark the row for the oracle."""
        geometry = PARAMS.constellation.plane_geometry(12)
        assert geometry.overlapping
        template = ScenarioTemplate(geometry, PARAMS, scheme=Scheme.OAQ)
        alpha = geometry.single_coverage_length
        tau = PARAMS.tau
        x = np.array([alpha / 2.0, alpha / 2.0])
        dur = np.array([50.0, 50.0])
        tapes = draw_protocol_tapes(template, np.random.default_rng(2), 2)
        # Row 0: initial computation at c1=1.0 withholds (error above
        # threshold, no TC-2); its guard fires at 1 + (tau - 1) and the
        # first dc onset at w0 = alpha - x completes exactly then.
        guard = 1.0 + max(0.0, tau - 1.0)
        w0 = alpha - x[0]
        tapes.comp[0, 0] = 1.0
        tapes.comp[0, 1] = guard - w0
        assert w0 + tapes.comp[0, 1] == guard  # the tie is float-exact
        levels, detected, fallback = vector_mod._overlap_levels(
            template, x, dur, tapes
        )
        assert fallback[0]
        assert not fallback[1]
        # The full pipeline resolves the tied row via the oracle; the
        # untied row must already agree with it.
        oracle_levels, oracle_detected = scalar_reference_levels(
            template, x, dur, tapes
        )
        assert levels[1] == oracle_levels[1]
        assert detected[1] == oracle_detected[1]


class TestRandomTemplatesProperty:
    @settings(max_examples=20, deadline=None)
    @given(
        capacity=st.integers(min_value=4, max_value=15),
        tau=st.sampled_from([0.8, 2.5, 5.0, 11.0]),
        nu=st.sampled_from([2.0, 10.0, 30.0, 120.0]),
        mu=st.sampled_from([0.05, 0.2, 1.0]),
        delta=st.sampled_from([0.001, 0.05, 0.3]),
        tg=st.sampled_from([0.0, 0.1, 0.5, 1.5]),
        threshold=st.sampled_from([0.3, 1.0, 8.0, 45.0]),
        jitter=st.sampled_from([0.0, 0.1, 0.3]),
        scheme=st.sampled_from([Scheme.OAQ, Scheme.BAQ]),
        variant=st.sampled_from(list(MessagingVariant)),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_random_template_exactness(
        self,
        capacity,
        tau,
        nu,
        mu,
        delta,
        tg,
        threshold,
        jitter,
        scheme,
        variant,
        seed,
    ):
        params = EvaluationParams(
            deadline_minutes=tau,
            signal_termination_rate=mu,
            computation_rate=nu,
            crosslink_delay_minutes=delta,
            geolocation_time_minutes=tg,
            error_threshold_km=threshold,
        )
        geometry = params.constellation.plane_geometry(capacity)
        template = ScenarioTemplate(
            geometry,
            params,
            scheme=scheme,
            variant=variant,
            accuracy_model=GeometricAccuracyModel(jitter=jitter),
        )
        levels, detected, oracle_levels, oracle_detected = _vector_and_oracle(
            template, seed=seed, count=150, params=params
        )
        np.testing.assert_array_equal(levels, oracle_levels)
        np.testing.assert_array_equal(detected, oracle_detected)


class TestCampaignAdoption:
    def test_vector_campaign_independent_of_fanout(self):
        from repro.faults.campaign import Campaign
        from repro.faults.plan import FaultPlan

        plans = [FaultPlan.fault_free(), FaultPlan.lossy(0.1)]
        kwargs = dict(
            params=PARAMS, capacity=9, plans=plans, runs=120, seed=21
        )
        base = Campaign(engine="vector", **kwargs).run()
        fanned = Campaign(
            engine="vector", n_jobs=2, batch_size=17, **kwargs
        ).run()
        scalar = Campaign(**kwargs).run()
        for left, right in zip(base.outcomes, fanned.outcomes):
            assert left.level_counts == right.level_counts
            assert left.detected == right.detected
        # Faulty cells never take the vector path: byte-identical to
        # the scalar campaign.
        for left, right in zip(base.outcomes, scalar.outcomes):
            if not left.plan.is_fault_free:
                assert left.level_counts == right.level_counts
                assert left.detected == right.detected

    def test_campaign_rejects_unknown_engine(self):
        from repro.faults.campaign import Campaign
        from repro.faults.plan import FaultPlan

        with pytest.raises(ConfigurationError, match="unknown engine"):
            Campaign(
                PARAMS,
                capacity=9,
                plans=[FaultPlan.fault_free()],
                engine="warp",
            )


class TestCorpusProtocolMcCheck:
    def test_forced_protocol_mc_check_passes(self):
        from repro.scenarios.generator import generate_corpus
        from repro.scenarios.runner import run_case

        _, cases = generate_corpus(2, 20260, name="vector-test")
        for case in cases:
            cell = run_case(case, extra_checks=("protocol_mc",))
            outcome = cell.check("protocol_mc")
            assert outcome.passed, outcome.details
            assert outcome.details["level_mismatches"] == 0
            assert outcome.details["detected_mismatches"] == 0
            assert "protocol_mc_fallback_fraction" in cell.metrics
