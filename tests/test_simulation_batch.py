"""Tests for :mod:`repro.simulation.batch` -- the scalar protocol
engine.

The load-bearing contract: a template's outcome for a seed does not
depend on how often the template was replicated before.  A reused
template must reproduce ``tests/golden/scenario_outcomes.json`` --
recorded from a scheduler that built a fresh simulator, network and
roster per run and queued every event up front -- run for run, even
though the template schedules only the events a run can consume.
Everything downstream (the faults campaign golden, the protocol
experiment, the batched QoS sampler's statistical pins) rests on that.
"""

import numpy as np
import pytest

from repro.core.config import EvaluationParams
from repro.core.schemes import Scheme
from repro.errors import ConfigurationError
from repro.experiments.faults_exp import plan_battery
from repro.faults.campaign import _evaluate_batch
from repro.faults.injector import faulty_scenario
from repro.faults.stats import wilson_interval
from repro.protocol.runner import CenterlineScenario
from repro.protocol.satellite import MessagingVariant
from repro.simulation.batch import (
    ScenarioTemplate,
    batch_stage_timings,
    reset_batch_stage_timings,
)
from tests.test_scenario_golden import (
    PARAMS as GOLDEN_PARAMS,
    SEEDS,
    cell_key,
    cell_summary,
    load_golden,
)

PARAMS = EvaluationParams(signal_termination_rate=0.2)
#: k=9 underlaps (coverage gap; coordination chains form), k=12
#: overlaps (simultaneous double coverage) -- the two physical regimes.
CAPACITIES = (9, 12)


def _reused_template_summary(capacity, scheme, **replicate_kwargs):
    """Golden-cell summary of one template replicated over the golden
    seeds (one shared template, unlike the per-run facade)."""
    geometry = GOLDEN_PARAMS.constellation.plane_geometry(capacity)
    template = ScenarioTemplate(
        geometry, GOLDEN_PARAMS, scheme=scheme, record_log=True
    )
    return cell_summary(
        template.replicate(seed, **replicate_kwargs).run()
        for seed in SEEDS
    )


def _golden_cell(capacity, scheme, case):
    key = cell_key(capacity, scheme, MessagingVariant.DONE_PROPAGATION, case)
    return load_golden()["cells"][key]


class TestTemplateBitIdentity:
    @pytest.mark.parametrize("capacity", CAPACITIES)
    @pytest.mark.parametrize("scheme", [Scheme.OAQ, Scheme.BAQ])
    def test_replicate_matches_fresh_scenario(self, capacity, scheme):
        """A reused template reproduces the per-run golden."""
        assert _reused_template_summary(capacity, scheme) == _golden_cell(
            capacity, scheme, "plain"
        )

    def test_explicit_signal_overrides_draws(self):
        summary = _reused_template_summary(
            9, Scheme.OAQ, onset_position=1.0, signal_duration=4.0
        )
        assert summary == _golden_cell(9, Scheme.OAQ, "explicit-signal")

    def test_fail_silent_matches_fresh_scenario(self):
        summary = _reused_template_summary(
            9, Scheme.OAQ, fail_silent={"S2": 0.0}
        )
        assert summary == _golden_cell(9, Scheme.OAQ, "fail-S2")

    @pytest.mark.parametrize("capacity", CAPACITIES)
    @pytest.mark.parametrize("scheme", [Scheme.OAQ, Scheme.BAQ])
    def test_campaign_matches_faulty_scenario(self, capacity, scheme):
        """Every fault plan of the fault experiment: a one-seed campaign
        batch reports the level and detection of the reference
        ``faulty_scenario(...).run()``."""
        geometry = PARAMS.constellation.plane_geometry(capacity)
        variant = MessagingVariant.DONE_PROPAGATION
        for plan in plan_battery():
            for seed in range(50):
                result = _evaluate_batch(
                    {
                        "cell": 0,
                        "plan": plan,
                        "scheme": scheme,
                        "variant": variant,
                        "params": PARAMS,
                        "capacity": capacity,
                        "seeds": (seed,),
                    }
                )
                legacy = faulty_scenario(
                    geometry,
                    PARAMS,
                    plan,
                    scheme=scheme,
                    variant=variant,
                    seed=seed,
                ).run()
                counts = [0, 0, 0, 0]
                counts[int(legacy.achieved_level)] = 1
                assert result["counts"] == tuple(counts), (plan.name, seed)
                assert result["detected"] == int(
                    legacy.detection_time is not None
                ), (plan.name, seed)


class TestReplicationLifecycle:
    def test_stale_replication_rejected(self):
        geometry = PARAMS.constellation.plane_geometry(9)
        template = ScenarioTemplate(geometry, PARAMS, scheme=Scheme.OAQ)
        first = template.replicate(0)
        template.replicate(1)
        with pytest.raises(ConfigurationError):
            first.run()

    def test_unknown_fail_silent_name_rejected(self):
        geometry = PARAMS.constellation.plane_geometry(9)
        template = ScenarioTemplate(geometry, PARAMS, scheme=Scheme.OAQ)
        with pytest.raises(ConfigurationError):
            template.replicate(0, fail_silent={"S99": 0.0})

    @pytest.mark.parametrize("capacity", CAPACITIES)
    def test_run_level_matches_full_run(self, capacity):
        """The early-stopping ``run_level`` fast path reports the same
        (level, detected) pair as the full outcome."""
        geometry = PARAMS.constellation.plane_geometry(capacity)
        template = ScenarioTemplate(geometry, PARAMS, scheme=Scheme.OAQ)
        for seed in range(80):
            level, detected = template.replicate(seed).run_level()
            outcome = template.replicate(seed).run()
            assert level == int(outcome.achieved_level)
            assert detected == (outcome.detection_time is not None)


class TestSampleLevels:
    def test_rejects_mismatched_shapes(self):
        geometry = PARAMS.constellation.plane_geometry(9)
        template = ScenarioTemplate(geometry, PARAMS, scheme=Scheme.OAQ)
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            template.sample_levels(rng, np.zeros(3), np.ones(4))

    def test_rejects_out_of_range_onsets(self):
        geometry = PARAMS.constellation.plane_geometry(9)
        template = ScenarioTemplate(geometry, PARAMS, scheme=Scheme.OAQ)
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            template.sample_levels(
                rng, np.array([geometry.l1 + 1.0]), np.ones(1)
            )

    @pytest.mark.parametrize("engine", ["batch", "vector"])
    @pytest.mark.parametrize(
        "onset, duration",
        [
            (float("nan"), 5.0),
            (-0.5, 5.0),
            (1.0, float("nan")),
            (1.0, -1.0),
        ],
    )
    def test_rejects_invalid_signal_inputs(self, engine, onset, duration):
        """NaN or negative inputs raise on both engines instead of
        yielding levels (NaN fails every range comparison)."""
        geometry = PARAMS.constellation.plane_geometry(9)
        template = ScenarioTemplate(geometry, PARAMS, scheme=Scheme.OAQ)
        rng = np.random.default_rng(0)
        # A valid leading row: the check runs before any row does.
        onsets = np.array([1.0, onset])
        durations = np.array([5.0, duration])
        with pytest.raises(ConfigurationError):
            template.sample_levels(rng, onsets, durations, engine=engine)

    @pytest.mark.parametrize("duration", [float("nan"), -1.0])
    def test_replicate_rejects_invalid_duration(self, duration):
        geometry = PARAMS.constellation.plane_geometry(9)
        template = ScenarioTemplate(geometry, PARAMS, scheme=Scheme.OAQ)
        with pytest.raises(ConfigurationError):
            template.replicate(0, onset_position=1.0, signal_duration=duration)

    def test_deterministic_under_fixed_seed(self):
        geometry = PARAMS.constellation.plane_geometry(9)
        template = ScenarioTemplate(geometry, PARAMS, scheme=Scheme.OAQ)
        onsets = np.random.default_rng(1).uniform(0.0, geometry.l1, 200)
        durations = np.random.default_rng(2).exponential(1 / PARAMS.mu, 200)
        a_levels, a_detected = template.sample_levels(
            np.random.default_rng(7), onsets, durations
        )
        b_levels, b_detected = template.sample_levels(
            np.random.default_rng(7), onsets, durations
        )
        assert np.array_equal(a_levels, a_levels.astype(a_levels.dtype))
        assert np.array_equal(a_levels, b_levels)
        assert np.array_equal(a_detected, b_detected)

    def test_detection_consistent_with_levels(self):
        """A run that achieved any level > 0 necessarily detected the
        signal; level 0 (missed) means no detection."""
        geometry = PARAMS.constellation.plane_geometry(9)
        template = ScenarioTemplate(geometry, PARAMS, scheme=Scheme.OAQ)
        rng = np.random.default_rng(11)
        onsets = rng.uniform(0.0, geometry.l1, 400)
        durations = rng.exponential(1 / PARAMS.mu, 400)
        levels, detected = template.sample_levels(rng, onsets, durations)
        assert np.all(detected[levels > 0])
        assert not np.any(detected[levels == 0])

    @pytest.mark.parametrize("capacity", CAPACITIES)
    @pytest.mark.parametrize("scheme", [Scheme.OAQ, Scheme.BAQ])
    def test_statistically_consistent_with_legacy_path(
        self, capacity, scheme
    ):
        """``sample_levels`` shares one generator across the batch, so
        it is not draw-order compatible with per-seed scenarios -- the
        contract is statistical: every legacy level frequency must fall
        inside the batch estimate's 99.9% Wilson interval."""
        geometry = PARAMS.constellation.plane_geometry(capacity)
        template = ScenarioTemplate(geometry, PARAMS, scheme=scheme)
        samples = 1500
        rng = np.random.default_rng(42)
        onsets = rng.uniform(0.0, geometry.l1, samples)
        durations = rng.exponential(1 / PARAMS.mu, samples)
        levels, _ = template.sample_levels(rng, onsets, durations)

        legacy_counts = np.zeros(4, dtype=int)
        for seed in range(600):
            outcome = CenterlineScenario(
                geometry, PARAMS, scheme=scheme, seed=seed
            ).run()
            legacy_counts[int(outcome.achieved_level)] += 1
        for level in range(4):
            batch_count = int(np.count_nonzero(levels == level))
            interval = wilson_interval(batch_count, samples, confidence=0.999)
            legacy_rate = legacy_counts[level] / 600
            slack = 0.045  # finite legacy sample's own noise
            assert interval.low - slack <= legacy_rate <= interval.high + slack


class TestStageTimings:
    def test_stages_accumulate_and_reset(self):
        reset_batch_stage_timings()
        geometry = PARAMS.constellation.plane_geometry(9)
        template = ScenarioTemplate(geometry, PARAMS, scheme=Scheme.OAQ)
        template.replicate(0).run()
        rng = np.random.default_rng(0)
        template.sample_levels(
            rng,
            rng.uniform(0.0, geometry.l1, 10),
            rng.exponential(1 / PARAMS.mu, 10),
        )
        template.sample_levels(
            rng,
            rng.uniform(0.0, geometry.l1, 10),
            rng.exponential(1 / PARAMS.mu, 10),
            engine="vector",
        )
        timings = batch_stage_timings()
        assert set(timings) == {
            "template",
            "replicate",
            "run",
            "vector",
            "vector_fallback",
        }
        assert all(
            timings[stage] > 0.0
            for stage in ("template", "replicate", "run", "vector")
        )
        assert timings["vector_fallback"] >= 0.0
        reset_batch_stage_timings()
        assert all(
            value == 0.0 for value in batch_stage_timings().values()
        )
