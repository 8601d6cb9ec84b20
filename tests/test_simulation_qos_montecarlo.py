"""Tests for repro.simulation.qos_montecarlo -- the rule-based sampler
must agree with the closed-form model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analytic.qos_model import conditional_distribution
from repro.core.config import EvaluationParams
from repro.core.qos import QoSLevel
from repro.core.schemes import Scheme
from repro.errors import ConfigurationError
from repro.simulation.qos_montecarlo import (
    classify_qos_levels,
    draw_signal_variates,
    sample_qos_level,
    simulate_conditional_distribution,
    simulate_conditional_distribution_protocol,
    simulate_paired_conditional_distributions,
)


class _ScriptedGenerator:
    """A generator stub feeding ``sample_qos_level`` a prescribed
    ``(onset, duration, computation)`` triple, so the scalar rules can
    be evaluated on exactly the same inputs as the vectorised ones."""

    def __init__(self, onset, duration, computation):
        self._uniform = [onset]
        self._exponential = [duration, computation]

    def uniform(self, low, high):
        return self._uniform.pop(0)

    def exponential(self, scale):
        return self._exponential.pop(0)


@pytest.fixture
def params():
    return EvaluationParams(signal_termination_rate=0.2)


class TestSampler:
    def test_levels_respect_table1_overlap(self, params):
        geometry = params.constellation.plane_geometry(12)
        rng = np.random.default_rng(0)
        levels = {
            sample_qos_level(geometry, params, Scheme.OAQ, rng)
            for _ in range(3000)
        }
        assert levels <= {QoSLevel.SIMULTANEOUS_DUAL, QoSLevel.SINGLE}
        assert QoSLevel.SIMULTANEOUS_DUAL in levels

    def test_levels_respect_table1_underlap(self, params):
        geometry = params.constellation.plane_geometry(9)
        rng = np.random.default_rng(1)
        levels = {
            sample_qos_level(geometry, params, Scheme.OAQ, rng)
            for _ in range(5000)
        }
        assert levels == {
            QoSLevel.SEQUENTIAL_DUAL,
            QoSLevel.SINGLE,
            QoSLevel.MISSED,
        }

    def test_baq_never_samples_level2(self, params):
        geometry = params.constellation.plane_geometry(9)
        rng = np.random.default_rng(2)
        for _ in range(3000):
            level = sample_qos_level(geometry, params, Scheme.BAQ, rng)
            assert level is not QoSLevel.SEQUENTIAL_DUAL


class TestAgreementWithClosedForm:
    @pytest.mark.parametrize("k", [9, 10, 12, 14])
    @pytest.mark.parametrize("scheme", [Scheme.OAQ, Scheme.BAQ])
    def test_distribution_matches_analytic(self, params, k, scheme):
        geometry = params.constellation.plane_geometry(k)
        analytic = conditional_distribution(geometry, params, scheme)
        simulated = simulate_conditional_distribution(
            geometry, params, scheme, samples=40_000, seed=123
        )
        for level in QoSLevel:
            assert simulated[level] == pytest.approx(analytic[level], abs=0.012)

    def test_mu_05_anchor(self):
        """The simulated P(Y=3|12) hits the paper's 0.44 anchor."""
        params = EvaluationParams(signal_termination_rate=0.5)
        geometry = params.constellation.plane_geometry(12)
        simulated = simulate_conditional_distribution(
            geometry, params, Scheme.OAQ, samples=60_000, seed=7
        )
        assert simulated[QoSLevel.SIMULTANEOUS_DUAL] == pytest.approx(0.444, abs=0.01)

    def test_seed_reproducibility(self, params):
        geometry = params.constellation.plane_geometry(9)
        a = simulate_conditional_distribution(
            geometry, params, Scheme.OAQ, samples=2000, seed=99
        )
        b = simulate_conditional_distribution(
            geometry, params, Scheme.OAQ, samples=2000, seed=99
        )
        assert a == b

    def test_rejects_zero_samples(self, params):
        geometry = params.constellation.plane_geometry(9)
        with pytest.raises(ConfigurationError):
            simulate_conditional_distribution(
                geometry, params, Scheme.OAQ, samples=0
            )


class TestVectorisedSampler:
    @pytest.mark.parametrize("k", [9, 10, 12, 14])
    @pytest.mark.parametrize("scheme", [Scheme.OAQ, Scheme.BAQ])
    def test_vectorized_agrees_with_scalar_rules(self, params, k, scheme):
        """The numpy path and the scalar specification are two
        implementations of the same rules."""
        geometry = params.constellation.plane_geometry(k)
        fast = simulate_conditional_distribution(
            geometry, params, scheme, samples=40_000, seed=5, vectorized=True
        )
        slow = simulate_conditional_distribution(
            geometry, params, scheme, samples=40_000, seed=5, vectorized=False
        )
        for level in QoSLevel:
            assert fast[level] == pytest.approx(slow[level], abs=0.012)

    def test_vectorized_matches_closed_form(self, params):
        from repro.analytic.qos_model import conditional_distribution

        geometry = params.constellation.plane_geometry(12)
        analytic = conditional_distribution(geometry, params, Scheme.OAQ)
        fast = simulate_conditional_distribution(
            geometry, params, Scheme.OAQ, samples=200_000, seed=6
        )
        assert fast[QoSLevel.SIMULTANEOUS_DUAL] == pytest.approx(
            analytic[QoSLevel.SIMULTANEOUS_DUAL], abs=0.005
        )

    @pytest.mark.parametrize("k", [9, 12])
    @pytest.mark.parametrize("scheme", [Scheme.OAQ, Scheme.BAQ])
    def test_classify_element_for_element_equals_scalar(self, params, k, scheme):
        """Seeded equivalence across all four branches: the vectorised
        classifier and the scalar specification agree on every single
        ``(onset, duration, computation)`` triple, not just in
        distribution."""
        geometry = params.constellation.plane_geometry(k)
        rng = np.random.default_rng(1234)
        onsets = rng.uniform(0.0, geometry.l1, 800)
        durations = rng.exponential(1.0 / params.mu, 800)
        computations = rng.exponential(1.0 / params.nu, 800)
        batched = classify_qos_levels(
            geometry, params, scheme, onsets, durations, computations
        )
        for index in range(800):
            scripted = _ScriptedGenerator(
                onsets[index], durations[index], computations[index]
            )
            scalar = sample_qos_level(geometry, params, scheme, scripted)
            assert int(batched[index]) == int(scalar), (
                f"k={k} {scheme.name} triple #{index}: "
                f"onset={onsets[index]}, duration={durations[index]}, "
                f"computation={computations[index]}"
            )

    def test_classify_rejects_mismatched_shapes(self, params):
        geometry = params.constellation.plane_geometry(9)
        with pytest.raises(ConfigurationError):
            classify_qos_levels(
                geometry,
                params,
                Scheme.OAQ,
                np.zeros(3),
                np.ones(3),
                np.ones(4),
            )

    @settings(max_examples=40, deadline=None)
    @given(
        samples=st.integers(min_value=1, max_value=500),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        k=st.sampled_from([9, 12]),
        scheme=st.sampled_from([Scheme.OAQ, Scheme.BAQ]),
    )
    def test_distribution_is_proper_for_any_batch(
        self, samples, seed, k, scheme
    ):
        """Hypothesis property: the batched counts always sum to
        ``samples`` (probabilities to 1) and every level with mass lies
        in the valid QoS spectrum for the regime."""
        params = EvaluationParams(signal_termination_rate=0.2)
        geometry = params.constellation.plane_geometry(k)
        distribution = simulate_conditional_distribution(
            geometry, params, scheme, samples=samples, seed=seed
        )
        total = sum(distribution[level] for level in QoSLevel)
        assert total == pytest.approx(1.0, abs=1e-12)
        support = {level for level in QoSLevel if distribution[level] > 0.0}
        if geometry.overlapping:
            assert support <= {QoSLevel.SINGLE, QoSLevel.SIMULTANEOUS_DUAL}
        else:
            assert support <= {
                QoSLevel.MISSED,
                QoSLevel.SINGLE,
                QoSLevel.SEQUENTIAL_DUAL,
            }


class TestVarianceReduction:
    """The CRN / stratification / antithetic knobs must preserve the
    estimated distribution (validated against the closed forms) while
    only restructuring the sampling noise."""

    @pytest.mark.parametrize("onset_sampling", ["uniform", "stratified"])
    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("k", [9, 12])
    def test_reduced_variance_paths_match_closed_form(
        self, params, onset_sampling, antithetic, k
    ):
        geometry = params.constellation.plane_geometry(k)
        analytic = conditional_distribution(geometry, params, Scheme.OAQ)
        estimate = simulate_conditional_distribution(
            geometry,
            params,
            Scheme.OAQ,
            samples=60_000,
            seed=21,
            onset_sampling=onset_sampling,
            antithetic=antithetic,
        )
        for level in QoSLevel:
            assert estimate[level] == pytest.approx(analytic[level], abs=0.01)

    def test_antithetic_mirrors_are_exact(self, params):
        geometry = params.constellation.plane_geometry(9)
        samples = 1000
        onset, duration, computation = draw_signal_variates(
            geometry,
            params,
            samples,
            np.random.default_rng(3),
            antithetic=True,
        )
        half = samples // 2
        assert np.allclose(onset[half:], geometry.l1 - onset[:half])
        # Exponential mirrors flip through the CDF: F(x) + F(x') = 1.
        cdf = 1.0 - np.exp(-params.mu * duration)
        assert np.allclose(cdf[:half] + cdf[half:], 1.0)

    def test_stratified_onsets_keep_marginal_uniform(self, params):
        geometry = params.constellation.plane_geometry(9)
        onset, _, _ = draw_signal_variates(
            geometry,
            params,
            40_000,
            np.random.default_rng(4),
            onset_sampling="stratified",
        )
        assert onset.min() >= 0.0 and onset.max() <= geometry.l1
        # Proportional allocation pins each stratum's share exactly.
        alpha = geometry.single_coverage_length
        in_alpha = np.count_nonzero(onset < alpha)
        assert in_alpha / 40_000 == pytest.approx(alpha / geometry.l1, abs=2e-4)

    def test_stratification_shrinks_onset_driven_variance(self, params):
        """Replicated small-sample estimates of P(Y=2|9): stratified
        onsets must not be worse than independent uniform onsets (the
        between-strata variance component is removed)."""
        geometry = params.constellation.plane_geometry(9)

        def spread(onset_sampling):
            values = [
                simulate_conditional_distribution(
                    geometry,
                    params,
                    Scheme.OAQ,
                    samples=400,
                    seed=seed,
                    onset_sampling=onset_sampling,
                )[QoSLevel.SEQUENTIAL_DUAL]
                for seed in range(60)
            ]
            return float(np.var(values))

        assert spread("stratified") <= spread("uniform") * 1.1

    @pytest.mark.parametrize("k", [9, 12])
    def test_crn_pairing_orders_schemes_per_draw(self, params, k):
        """On common random numbers OAQ dominates BAQ *sample by
        sample* (BAQ's success sets are subsets of OAQ's), so the CRN
        estimate of the scheme gap carries no crossing noise."""
        geometry = params.constellation.plane_geometry(k)
        rng = np.random.default_rng(17)
        onset, duration, computation = draw_signal_variates(
            geometry, params, 20_000, rng
        )
        oaq = classify_qos_levels(
            geometry, params, Scheme.OAQ, onset, duration, computation
        )
        baq = classify_qos_levels(
            geometry, params, Scheme.BAQ, onset, duration, computation
        )
        assert np.all(oaq >= baq)

    def test_paired_distributions_match_independent_estimates(self, params):
        geometry = params.constellation.plane_geometry(9)
        paired = simulate_paired_conditional_distributions(
            geometry,
            params,
            [Scheme.OAQ, Scheme.BAQ],
            samples=50_000,
            seed=8,
        )
        assert set(paired) == {Scheme.OAQ, Scheme.BAQ}
        for scheme in (Scheme.OAQ, Scheme.BAQ):
            analytic = conditional_distribution(geometry, params, scheme)
            for level in QoSLevel:
                assert paired[scheme][level] == pytest.approx(
                    analytic[level], abs=0.01
                )

    def test_draw_signal_variates_rejects_unknown_sampling(self, params):
        geometry = params.constellation.plane_geometry(9)
        with pytest.raises(ConfigurationError):
            draw_signal_variates(
                geometry,
                params,
                10,
                np.random.default_rng(0),
                onset_sampling="sobol",
            )


class TestProtocolSamplerSeeding:
    """Seed hygiene: seeds enter through ``numpy.random.SeedSequence``
    (the sampler's generator, the fault campaign's spawned per-cell
    streams), never truncated ``rng.integers`` draws (which collide
    across cells and discard root entropy)."""

    def test_spawned_children_are_distinct_streams(self):
        children = np.random.SeedSequence(0).spawn(512)
        first_words = {
            int(child.generate_state(1, dtype=np.uint64)[0])
            for child in children
        }
        assert len(first_words) == 512

    def test_batched_path_reproducible_and_seed_sensitive(self, params):
        geometry = params.constellation.plane_geometry(9)
        a = simulate_conditional_distribution_protocol(
            geometry, params, Scheme.OAQ, samples=300, seed=5
        )
        b = simulate_conditional_distribution_protocol(
            geometry, params, Scheme.OAQ, samples=300, seed=5
        )
        c = simulate_conditional_distribution_protocol(
            geometry, params, Scheme.OAQ, samples=300, seed=6
        )
        assert a == b
        assert a != c

    def test_batched_variance_reduction_matches_plain_estimate(self, params):
        geometry = params.constellation.plane_geometry(9)
        plain = simulate_conditional_distribution_protocol(
            geometry, params, Scheme.OAQ, samples=1200, seed=9
        )
        reduced = simulate_conditional_distribution_protocol(
            geometry,
            params,
            Scheme.OAQ,
            samples=1200,
            seed=9,
            onset_sampling="stratified",
            antithetic=True,
        )
        for level in QoSLevel:
            assert reduced[level] == pytest.approx(plain[level], abs=0.06)


class TestBoundaryVariates:
    """Pin the classifier's comparison directions exactly on the
    boundary variates where ``<`` vs ``<=`` decides the level: onset on
    a window edge, zero-duration signals, and computations landing
    exactly on the deadline.  Each triple is checked against the scalar
    specification on identical inputs, and -- where the rules make the
    outcome determinate -- against the expected level itself.

    Geometry constants (default parameters, tau = 5.0): k=12 overlaps
    with alpha = 6.0, L1 = 7.5; k=9 underlaps with alpha = 9.0,
    L1 = 10.0 (gap length 1.0).
    """

    # (k, onset, duration, computation, expected {scheme: level})
    CASES = [
        # Overlap, onset exactly on the double-coverage edge: wait == 0,
        # computation exactly on the deadline -- <= admits the dual.
        (12, 6.0, 1.0, 5.0,
         {Scheme.OAQ: QoSLevel.SIMULTANEOUS_DUAL,
          Scheme.BAQ: QoSLevel.SIMULTANEOUS_DUAL}),
        # Overlap, computation a hair past the deadline: dual lost.
        (12, 6.0, 1.0, np.nextafter(5.0, 6.0),
         {Scheme.OAQ: QoSLevel.SINGLE, Scheme.BAQ: QoSLevel.SINGLE}),
        # Overlap, duration exactly equal to the wait: the signal dies
        # at the opportunity's edge, never inside it.
        (12, 4.0, 2.0, 0.1,
         {Scheme.OAQ: QoSLevel.SINGLE, Scheme.BAQ: QoSLevel.SINGLE}),
        # Overlap, wait + computation exactly on the deadline: OAQ rides
        # the opportunity, BAQ refuses any wait > 0.
        (12, 4.0, 3.0, 3.0,
         {Scheme.OAQ: QoSLevel.SIMULTANEOUS_DUAL,
          Scheme.BAQ: QoSLevel.SINGLE}),
        # Overlap, onset at the window origin: wait = alpha = 6 > tau,
        # the opportunity is unreachable regardless of computation.
        (12, 0.0, 100.0, 0.0,
         {Scheme.OAQ: QoSLevel.SINGLE, Scheme.BAQ: QoSLevel.SINGLE}),
        # Overlap, zero-duration signal inside double coverage: still
        # detected at onset, dual if the computation makes the deadline.
        (12, 6.5, 0.0, 1.0,
         {Scheme.OAQ: QoSLevel.SIMULTANEOUS_DUAL,
          Scheme.BAQ: QoSLevel.SIMULTANEOUS_DUAL}),
        # Underlap, onset exactly on the gap edge (onset == alpha is in
        # the gap), duration exactly the time to coverage: missed.
        (9, 9.0, 1.0, 0.0,
         {Scheme.OAQ: QoSLevel.MISSED, Scheme.BAQ: QoSLevel.MISSED}),
        # Underlap, same edge but the signal outlives the gap by one
        # ulp: detected late, single-coverage ceiling.
        (9, 9.0, np.nextafter(1.0, 2.0), 0.0,
         {Scheme.OAQ: QoSLevel.SINGLE, Scheme.BAQ: QoSLevel.SINGLE}),
        # Underlap, zero-duration signal in the gap: missed outright.
        (9, 9.5, 0.0, 0.0,
         {Scheme.OAQ: QoSLevel.MISSED, Scheme.BAQ: QoSLevel.MISSED}),
        # Underlap, zero-duration signal under coverage: detected, but
        # it cannot survive to the next satellite.
        (9, 5.0, 0.0, 0.0,
         {Scheme.OAQ: QoSLevel.SINGLE, Scheme.BAQ: QoSLevel.SINGLE}),
        # Underlap sequential boundary: wait = L1 - 7 = 3, duration
        # exactly equal to the wait -- dies at the handover, no dual.
        (9, 7.0, 3.0, 1.0,
         {Scheme.OAQ: QoSLevel.SINGLE, Scheme.BAQ: QoSLevel.SINGLE}),
        # Underlap sequential, computation exactly on the deadline
        # (wait 3 + computation 2 == tau): OAQ dual, BAQ never.
        (9, 7.0, 4.0, 2.0,
         {Scheme.OAQ: QoSLevel.SEQUENTIAL_DUAL,
          Scheme.BAQ: QoSLevel.SINGLE}),
        # Same but past the deadline (a one-ulp bump on the computation
        # would be rounded away by the ``wait + computation`` sum, so
        # overshoot by a few ulps of the sum): dual lost.
        (9, 7.0, 4.0, np.nextafter(5.0, 6.0) - 3.0,
         {Scheme.OAQ: QoSLevel.SINGLE, Scheme.BAQ: QoSLevel.SINGLE}),
    ]

    @pytest.mark.parametrize("scheme", [Scheme.OAQ, Scheme.BAQ])
    @pytest.mark.parametrize(
        "k, onset, duration, computation, expected", CASES
    )
    def test_boundary_triple_matches_scalar_and_expectation(
        self, params, scheme, k, onset, duration, computation, expected
    ):
        geometry = params.constellation.plane_geometry(k)
        batched = classify_qos_levels(
            geometry,
            params,
            scheme,
            np.array([onset]),
            np.array([duration]),
            np.array([computation]),
        )
        scripted = _ScriptedGenerator(onset, duration, computation)
        scalar = sample_qos_level(geometry, params, scheme, scripted)
        assert int(batched[0]) == int(scalar)
        assert scalar is expected[scheme]

    @pytest.mark.parametrize("k", [9, 12])
    @pytest.mark.parametrize("scheme", [Scheme.OAQ, Scheme.BAQ])
    def test_boundary_batch_agrees_elementwise(self, params, k, scheme):
        """All boundary triples of both geometries in one batched call:
        the vectorised classifier must agree with the scalar rules even
        when every element sits on a comparison edge."""
        geometry = params.constellation.plane_geometry(k)
        triples = [
            (onset, duration, computation)
            for case_k, onset, duration, computation, _ in self.CASES
            if case_k == k
        ]
        onsets, durations, computations = (
            np.array(column) for column in zip(*triples)
        )
        batched = classify_qos_levels(
            geometry, params, scheme, onsets, durations, computations
        )
        for index, (onset, duration, computation) in enumerate(triples):
            scripted = _ScriptedGenerator(onset, duration, computation)
            scalar = sample_qos_level(geometry, params, scheme, scripted)
            assert int(batched[index]) == int(scalar), (
                f"k={k} {scheme.name}: onset={onset}, duration={duration}, "
                f"computation={computation}"
            )
