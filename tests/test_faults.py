"""Tests for the fault-injection campaign engine (``repro.faults``).

The campaign acceptance test reproduces the analytic conditional QoS
model from a seeded 200-run fault-free campaign for both schemes --
the empirical ``P(Y >= y)`` must contain the closed form inside its
95% Wilson interval -- and the fail-silent campaign must match the
degraded (BAQ-shaped) reference the same way.
"""

import pickle

import pytest

from repro.analytic.qos_model import conditional_distribution
from repro.core.config import EvaluationParams
from repro.core.qos import QoSLevel
from repro.core.schemes import Scheme
from repro.errors import ConfigurationError
from repro.faults import (
    ANY,
    Campaign,
    FaultPlan,
    GROUND,
    cross_check_fail_silent,
    cross_check_fault_free,
    degradation_curve,
    fail_silent_reference,
    faulty_scenario,
    validate_outcome,
    wilson_interval,
)
from repro.protocol.runner import CenterlineScenario
from repro.simulation.batch import ScenarioTemplate

PARAMS = EvaluationParams(signal_termination_rate=0.2)
GEOMETRY = PARAMS.constellation.plane_geometry(9)  # underlapping plane


# ----------------------------------------------------------------------
# Wilson interval
# ----------------------------------------------------------------------
class TestWilsonInterval:
    def test_known_value(self):
        # Classic textbook case: 180/200 at 95%.
        interval = wilson_interval(180, 200)
        assert interval.low == pytest.approx(0.8506, abs=2e-4)
        assert interval.high == pytest.approx(0.9343, abs=2e-4)
        assert interval.contains(interval.point)

    def test_zero_successes_stays_in_unit_interval(self):
        interval = wilson_interval(0, 50)
        assert interval.low == 0.0
        assert 0.0 < interval.high < 0.1
        assert interval.contains(0.0)

    def test_all_successes_stays_in_unit_interval(self):
        interval = wilson_interval(50, 50)
        assert interval.high == 1.0
        assert 0.9 < interval.low < 1.0

    def test_wider_confidence_widens_interval(self):
        narrow = wilson_interval(30, 100, confidence=0.90)
        wide = wilson_interval(30, 100, confidence=0.99)
        assert wide.width > narrow.width

    @pytest.mark.parametrize(
        "successes, trials, confidence",
        [(1, 0, 0.95), (-1, 10, 0.95), (11, 10, 0.95), (5, 10, 0.0), (5, 10, 1.0)],
    )
    def test_invalid_inputs_raise(self, successes, trials, confidence):
        with pytest.raises(ConfigurationError):
            wilson_interval(successes, trials, confidence=confidence)


# ----------------------------------------------------------------------
# FaultPlan
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_normalises_mapping_and_sorts(self):
        plan = FaultPlan(name="x", fail_silent={"S3": 1.0, "S2": 0.5})
        assert plan.fail_silent == (("S2", 0.5), ("S3", 1.0))

    def test_is_picklable_and_round_trips(self):
        plan = FaultPlan(
            name="everything",
            fail_silent={"S2": 0.0},
            crosslink_loss=0.1,
            link_loss=(("S1", ANY, 0.2),),
            downlink_blackouts=((1.0, 2.0),),
            membership_staleness=3.0,
        )
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_fault_free_detection(self):
        assert FaultPlan.fault_free().is_fault_free
        assert not FaultPlan.lossy(0.1).is_fault_free

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"fail_silent": {"S2": -1.0}},
            {"fail_successors_at": -0.5},
            {"fail_successor_count": 1},  # count without at
            {"fail_successors_at": 0.0, "fail_successor_count": 0},
            {"crosslink_loss": 1.5},
            {"link_loss": (("a", "b", -0.1),)},
            {"downlink_blackouts": ((2.0, 1.0),)},
            {"downlink_blackouts": ((-1.0, 1.0),)},
            {"membership_staleness": -1.0},
        ],
    )
    def test_invalid_plans_raise(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultPlan(**{"name": "bad", **kwargs})

    def test_blackout_windows_are_half_open(self):
        plan = FaultPlan.downlink_blackout(1.0, 2.0)
        assert not plan.in_blackout(0.999)
        assert plan.in_blackout(1.0)
        assert plan.in_blackout(1.999)
        assert not plan.in_blackout(2.0)

    def test_link_loss_wildcards_compose_as_erasure_channels(self):
        plan = FaultPlan(
            name="x", link_loss=(("S1", ANY, 0.5), (ANY, "S2", 0.5))
        )
        # Both entries match S1 -> S2: survival 0.5 * 0.5.
        assert plan.link_loss_probability(0.0, "S1", "S2") == pytest.approx(0.75)
        # Only the wildcard-destination entry matches S3 -> S2.
        assert plan.link_loss_probability(0.0, "S3", "S2") == pytest.approx(0.5)
        assert plan.link_loss_probability(0.0, "S3", "S4") == 0.0

    def test_blackout_only_hits_ground_destination(self):
        plan = FaultPlan.downlink_blackout(0.0, 10.0)
        assert plan.link_loss_probability(5.0, "S1", GROUND) == 1.0
        assert plan.link_loss_probability(5.0, "S1", "S2") == 0.0
        assert plan.link_loss_probability(15.0, "S1", GROUND) == 0.0

    def test_failure_times_expands_successors_of_detector(self):
        plan = FaultPlan.successors_fail_silent(2.0, count=2)
        names = ["S1", "S2", "S3", "S4"]
        assert plan.failure_times(names, "S2") == {"S3": 2.0, "S4": 2.0}
        # Explicit entry keeps the earlier of the two times.
        plan = FaultPlan(
            name="x", fail_silent={"S3": 1.0}, fail_successors_at=2.0
        )
        assert plan.failure_times(names, "S2") == {"S3": 1.0, "S4": 2.0}

    def test_failure_times_rejects_unknown_satellites(self):
        plan = FaultPlan(name="x", fail_silent={"S9": 0.0})
        with pytest.raises(ConfigurationError):
            plan.failure_times(["S1", "S2"], "S1")

    def test_campaign_rejects_duplicate_plan_names(self):
        with pytest.raises(ConfigurationError):
            Campaign(
                PARAMS,
                capacity=9,
                plans=(FaultPlan.fault_free(), FaultPlan.fault_free()),
            )


NAN = float("nan")


def _replicate_fail_silent(time):
    template = ScenarioTemplate(GEOMETRY, PARAMS)
    return template.replicate(0, fail_silent={"S2": time})


class TestBadFaultInputs:
    """NaN fault inputs and empty rosters raise instead of silently
    changing results (NaN slips through a plain ``x < 0`` check; a NaN
    fail-silent time used to become a failure at t = 0)."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: FaultPlan(name="bad", fail_silent={"S2": NAN}),
            lambda: FaultPlan(name="bad", fail_successors_at=NAN),
            lambda: FaultPlan(
                name="bad", fail_successors_at=0.0, fail_successor_count=NAN
            ),
            lambda: FaultPlan(name="bad", membership_staleness=NAN),
            lambda: FaultPlan(name="bad", downlink_blackouts=((NAN, 100.0),)),
            lambda: FaultPlan(name="bad", downlink_blackouts=((0.0, NAN),)),
            lambda: _replicate_fail_silent(NAN),
            lambda: _replicate_fail_silent(-1.0),
            lambda: CenterlineScenario(
                GEOMETRY, PARAMS, fail_silent={"S2": NAN}, seed=0
            ).run(),
            lambda: ScenarioTemplate(GEOMETRY, PARAMS, satellite_count=0),
            lambda: ScenarioTemplate(GEOMETRY, PARAMS, satellite_count=-3),
            lambda: CenterlineScenario(GEOMETRY, PARAMS, satellite_count=0),
            lambda: faulty_scenario(
                GEOMETRY, PARAMS, FaultPlan(), seed=0, satellite_count=0
            ),
        ],
        ids=[
            "plan-fail-silent-nan",
            "plan-fail-successors-at-nan",
            "plan-fail-successor-count-nan",
            "plan-membership-staleness-nan",
            "plan-blackout-start-nan",
            "plan-blackout-end-nan",
            "replicate-fail-silent-nan",
            "replicate-fail-silent-negative",
            "scenario-fail-silent-nan",
            "template-satellite-count-zero",
            "template-satellite-count-negative",
            "scenario-satellite-count-zero",
            "faulty-scenario-satellite-count-zero",
        ],
    )
    def test_rejected(self, build):
        with pytest.raises(ConfigurationError):
            build()


# ----------------------------------------------------------------------
# Injector
# ----------------------------------------------------------------------
class TestInjector:
    def test_signals_are_paired_across_plans(self):
        healthy = faulty_scenario(
            GEOMETRY, PARAMS, FaultPlan.fault_free(), seed=42
        )
        faulty = faulty_scenario(
            GEOMETRY, PARAMS, FaultPlan.successors_fail_silent(0.0), seed=42
        )
        assert healthy.onset_position == faulty.onset_position
        assert healthy.signal.duration == faulty.signal.duration

    def test_blackout_forces_level_zero(self):
        plan = FaultPlan.downlink_blackout(0.0, 1e6)
        for seed in range(10):
            scenario = faulty_scenario(GEOMETRY, PARAMS, plan, seed=seed)
            assert scenario.run().achieved_level is QoSLevel.MISSED

    def test_total_crosslink_loss_still_delivers_single_coverage(self):
        # loss applies to crosslinks and downlink alike at p=1 -> level 0;
        # per-link loss on satellite-satellite links only keeps level 1.
        plan = FaultPlan(name="isolate", link_loss=((ANY, "S2", 1.0), ("S2", ANY, 1.0)))
        scenario = faulty_scenario(
            GEOMETRY, PARAMS, plan, seed=1, onset_position=8.5,
            signal_duration=25.0,
        )
        outcome = scenario.run()
        # S1 detects and its downlink is unaffected.
        assert outcome.achieved_level is QoSLevel.SINGLE

    def test_stale_view_loses_level_two_fresh_view_recovers_it(self):
        # Deadline relaxed so the *second* successor's footprint is
        # still timely; the first successor is dead from t=0.
        params = EvaluationParams(deadline_minutes=12.0)
        results = {}
        for label, staleness in (("stale", 1e9), ("fresh", 0.0)):
            plan = FaultPlan(
                name=label,
                fail_successors_at=0.0,
                fail_successor_count=1,
                membership_staleness=staleness,
            )
            scenario = faulty_scenario(
                GEOMETRY, params, plan, seed=1,
                onset_position=8.5, signal_duration=25.0,
            )
            results[label] = scenario.run().achieved_level
        assert results["stale"] is QoSLevel.SINGLE
        assert results["fresh"] is QoSLevel.SEQUENTIAL_DUAL


# ----------------------------------------------------------------------
# Campaign determinism
# ----------------------------------------------------------------------
class TestCampaignDeterminism:
    def test_same_seed_is_byte_identical_across_reruns_and_n_jobs(self):
        plans = (FaultPlan.fault_free(), FaultPlan.lossy(0.3))
        kwargs = dict(capacity=9, plans=plans, runs=40, seed=11)
        first = Campaign(PARAMS, **kwargs).run()
        rerun = Campaign(PARAMS, **kwargs).run()
        pooled = Campaign(PARAMS, **kwargs, n_jobs=2, batch_size=7).run()
        assert first.outcomes == rerun.outcomes
        assert first.outcomes == pooled.outcomes

    def test_different_seed_changes_counts(self):
        plans = (FaultPlan.lossy(0.3),)
        a = Campaign(PARAMS, capacity=9, plans=plans, runs=60, seed=1).run()
        b = Campaign(PARAMS, capacity=9, plans=plans, runs=60, seed=2).run()
        assert a.outcomes != b.outcomes

    def test_outcome_accessor_and_counts_are_consistent(self):
        result = Campaign(
            PARAMS, capacity=9, plans=(FaultPlan.fault_free(),), runs=30, seed=5
        ).run()
        outcome = result.outcome("fault-free", Scheme.OAQ)
        assert sum(outcome.level_counts) == outcome.runs == 30
        assert outcome.p_at_least(QoSLevel.MISSED) == 1.0
        with pytest.raises(ConfigurationError):
            result.outcome("no-such-plan", Scheme.OAQ)


# ----------------------------------------------------------------------
# Analytic cross-checks (the acceptance criterion)
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestAnalyticCrossChecks:
    def test_fault_free_campaign_reproduces_conditional_model(self):
        reports = cross_check_fault_free(PARAMS, capacity=9, runs=200, seed=7)
        assert {report.scheme for report in reports} == {Scheme.OAQ, Scheme.BAQ}
        for report in reports:
            assert report.runs == 200
            assert report.passed, report.failures()

    def test_fail_silent_campaign_degrades_to_baq_distribution(self):
        reports = cross_check_fail_silent(PARAMS, capacity=9, runs=200, seed=7)
        for report in reports:
            assert report.passed, report.failures()
            # Level 2 is gone entirely: the chain is dead.
            level2 = [c for c in report.checks if c.level is QoSLevel.SEQUENTIAL_DUAL]
            assert level2[0].empirical == 0.0

    def test_validate_outcome_flags_wrong_reference(self):
        result = Campaign(
            PARAMS, capacity=9, plans=(FaultPlan.fault_free(),),
            schemes=(Scheme.BAQ,), runs=200, seed=3,
        ).run()
        outcome = result.outcome("fault-free", Scheme.BAQ)
        # BAQ empirically has no level 2; the OAQ reference says ~0.22.
        wrong = conditional_distribution(GEOMETRY, PARAMS, Scheme.OAQ)
        report = validate_outcome(outcome, wrong)
        assert not report.passed
        assert any(
            check.level is QoSLevel.SEQUENTIAL_DUAL
            for check in report.failures()
        )

    def test_fail_silent_reference_rejects_overlapping_planes(self):
        overlapping = PARAMS.constellation.plane_geometry(12)
        assert overlapping.overlapping
        with pytest.raises(ConfigurationError):
            fail_silent_reference(overlapping, PARAMS, Scheme.OAQ)


# ----------------------------------------------------------------------
# Degradation curves
# ----------------------------------------------------------------------
class TestDegradationCurve:
    def test_loss_sweep_is_monotone_in_mean_level(self):
        rows = degradation_curve(
            PARAMS, capacity=9, loss_rates=[0.0, 0.5, 1.0], runs=60, seed=3
        )
        levels = [row["mean level"] for row in rows]
        assert levels == sorted(levels, reverse=True)
        assert rows[-1]["P(Y>=1)"] == 0.0  # total loss delivers nothing

    def test_failure_sweep_loses_level_two_only(self):
        rows = degradation_curve(
            PARAMS, capacity=9, failure_counts=[0, 1], runs=120, seed=9
        )
        assert rows[0]["P(Y>=2)"] > 0.0
        assert rows[1]["P(Y>=2)"] == 0.0
        # Detection is geometry, not coordination: level >= 1 survives.
        assert rows[1]["P(Y>=1)"] > 0.9

    def test_exactly_one_axis_required(self):
        with pytest.raises(ConfigurationError):
            degradation_curve(PARAMS, capacity=9, runs=10)
        with pytest.raises(ConfigurationError):
            degradation_curve(
                PARAMS, capacity=9, loss_rates=[0.1], failure_counts=[1], runs=10
            )
