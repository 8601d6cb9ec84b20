"""Tests for repro.san.lumping (exact symmetry lumping).

The two layers -- canonical-representative reachability
(``lumped_state_space``) and partition-refinement quotients of
assembled chains (``lump_assembled``) -- are cross-validated against
full-space solves on small symmetric models, and the capacity
integration is pinned against the counted paper model and the fig7
goldens.
"""

import gc
import json
import pathlib

import numpy as np
import pytest

from repro.analytic.capacity import (
    CapacityModelConfig,
    capacity_distribution,
    capacity_distribution_expanded,
    capacity_solver_stats,
    capacity_stage_timings,
    clear_capacity_caches,
    expanded_capacity_summary,
)
from repro.analytic.distributions import Deterministic
from repro.errors import ModelError
from repro.san import (
    Case,
    InputGate,
    LumpedChain,
    LumpedStateSpace,
    OutputGate,
    Place,
    SANModel,
    TimedActivity,
    assemble,
    canonical_marking,
    generate,
    lump_assembled,
    lumped_state_space,
    orbit_size,
)

_GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "experiments_golden.json"


def plane_model(
    n=3,
    fail_rates=None,
    repair=0.7,
    det_reset=False,
    initial_up=None,
    declare_groups=True,
):
    """A small symmetric plane: ``n`` binary satellites, uniform repair
    of a random failed one, optional deterministic full reset."""
    sats = [f"s{i}" for i in range(1, n + 1)]
    if fail_rates is None:
        fail_rates = [0.02] * n
    if initial_up is None:
        initial_up = [1] * n
    places = [Place(s, up) for s, up in zip(sats, initial_up)] + [
        Place("pool", 1)
    ]

    def down(m):
        return sum(1 - m[s] for s in sats)

    failures = [
        TimedActivity.exponential(f"fail_{s}", rate, input_arcs={s: 1})
        for s, rate in zip(sats, fail_rates)
    ]

    def repair_case(s):
        def probability(m):
            d = down(m)
            return (1 - m[s]) / d if d else 0.0

        return Case(probability=probability, output_arcs={s: 1, "pool": 1})

    activities = failures + [
        TimedActivity.exponential(
            "repair",
            repair,
            input_arcs={"pool": 1},
            input_gates=[InputGate("any_down", predicate=lambda m: down(m) > 0)],
            cases=[repair_case(s) for s in sats],
        )
    ]
    if det_reset:

        def restore(m):
            for s in sats:
                m[s] = 1
            m["pool"] = 1

        activities.append(
            TimedActivity(
                "reset",
                Deterministic(40.0),
                input_gates=[
                    InputGate("some_down", predicate=lambda m: down(m) > 0)
                ],
                cases=[Case(output_gates=[OutputGate("restore", restore)])],
            )
        )
    return SANModel(
        places,
        activities,
        name="toy-plane",
        exchangeable_groups=[sats] if declare_groups else (),
    )


def up_count_distribution(space, pi, sats):
    """Aggregate a state distribution by total up-satellite count."""
    result = {}
    for marking, probability in zip(space.markings, np.asarray(pi).tolist()):
        as_dict = space.model.marking_dict(marking)
        k = sum(as_dict[s] for s in sats)
        result[k] = result.get(k, 0.0) + probability
    return result


class TestGroupAction:
    def test_canonical_marking_sorts_group_members(self):
        model = plane_model(n=3)
        # (s1, s2, s3, pool) = (1, 0, 1, 1) -> members sorted ascending.
        assert canonical_marking(model, (1, 0, 1, 1)) == (0, 1, 1, 1)
        assert canonical_marking(model, (0, 1, 1, 1)) == (0, 1, 1, 1)

    def test_orbit_size_is_multinomial(self):
        model = plane_model(n=4)
        assert orbit_size(model, (1, 1, 1, 1, 1)) == 1
        assert orbit_size(model, (0, 1, 1, 1, 1)) == 4
        assert orbit_size(model, (0, 0, 1, 1, 1)) == 6

    def test_undeclared_groups_rejected(self):
        model = plane_model(n=3, declare_groups=False)
        with pytest.raises(ModelError, match="nothing to lump"):
            lumped_state_space(model)

    def test_group_declaration_validation(self):
        with pytest.raises(ModelError, match="unknown place"):
            SANModel(
                [Place("a", 1), Place("b", 1)],
                [TimedActivity.exponential("t", 1.0, input_arcs={"a": 1})],
                exchangeable_groups=[["a", "ghost"]],
            )
        with pytest.raises(ModelError, match="place-disjoint"):
            SANModel(
                [Place("a", 1), Place("b", 1)],
                [TimedActivity.exponential("t", 1.0, input_arcs={"a": 1})],
                exchangeable_groups=[["a", "b"], ["a", "b"]],
            )

    @staticmethod
    def _declared(names, groups):
        return SANModel(
            [Place(name, 0) for name in names],
            [TimedActivity.exponential("t", 1.0, input_arcs={names[0]: 1})],
            exchangeable_groups=groups,
        )

    def test_arity_two_members_sort_as_pairs(self):
        # Members are (u_i, f_i) pairs plus a flat group {x, y}: the
        # pairs sort lexicographically as units, never place by place.
        model = self._declared(
            ["u1", "f1", "u2", "f2", "u3", "f3", "x", "y"],
            [[("u1", "f1"), ("u2", "f2"), ("u3", "f3")], ["x", "y"]],
        )
        marking = (1, 0, 0, 5, 1, 0, 4, 2)
        assert canonical_marking(model, marking) == (0, 5, 1, 0, 1, 0, 2, 4)
        assert orbit_size(model, marking) == 3 * 2
        # Pairs (1, 0) and (0, 1) hold the same tokens but differ as
        # members: a per-place count would call them one value.
        swapped = (1, 0, 0, 1, 1, 0, 3, 3)
        assert canonical_marking(model, swapped) == (0, 1, 1, 0, 1, 0, 3, 3)
        assert orbit_size(model, swapped) == 3

    def test_models_with_different_groups_never_share_positions(self):
        names = ["a", "b", "c"]
        marking = (2, 1, 0)
        expected = {
            ("a", "b", "c"): ((0, 1, 2), 6),
            ("a", "b"): ((1, 2, 0), 2),
            ("b", "c"): ((2, 0, 1), 2),
        }
        # Rebuilt models may reuse a collected model's id; each must
        # still resolve its own declaration.
        for group in list(expected) * 4:
            model = self._declared(names, [list(group)])
            canonical, size = expected[group]
            assert canonical_marking(model, marking) == canonical
            assert orbit_size(model, marking) == size
            del model
            gc.collect()


class TestLumpedStateSpace:
    def test_quotient_counts_orbits(self):
        model = plane_model(n=3)
        space = lumped_state_space(model)
        full = generate(plane_model(n=3))
        # Representatives are up-counts 0..3; orbit sizes sum to the
        # full tangible count.
        assert isinstance(space, LumpedStateSpace)
        assert len(space) == 4
        assert space.full_state_count == len(full) == 8
        assert "orbit representatives" in space.describe()

    def test_quotient_steady_state_matches_full(self):
        sats = ["s1", "s2", "s3"]
        full_chain = assemble(generate(plane_model(n=3)), stages=4)
        quotient_chain = assemble(lumped_state_space(plane_model(n=3)), stages=4)
        model = plane_model(n=3)
        pi_full = full_chain.rerate(model).steady_state_solve().pi
        pi_quotient = quotient_chain.rerate(model).steady_state_solve().pi
        full_pk = up_count_distribution(
            full_chain.space, full_chain.marking_marginals(pi_full), sats
        )
        quotient_pk = up_count_distribution(
            quotient_chain.space,
            quotient_chain.marking_marginals(pi_quotient),
            sats,
        )
        assert set(full_pk) == set(quotient_pk)
        for k in full_pk:
            assert quotient_pk[k] == pytest.approx(full_pk[k], abs=1e-12)

    def test_deterministic_timer_quotient_matches_full(self):
        sats = ["s1", "s2", "s3"]
        model = plane_model(n=3, det_reset=True)
        full_chain = assemble(generate(model), stages=6)
        quotient_chain = assemble(
            lumped_state_space(plane_model(n=3, det_reset=True)), stages=6
        )
        pi_full = full_chain.rerate(model).steady_state_solve().pi
        pi_quotient = quotient_chain.rerate(model).steady_state_solve().pi
        full_pk = up_count_distribution(
            full_chain.space, full_chain.marking_marginals(pi_full), sats
        )
        quotient_pk = up_count_distribution(
            quotient_chain.space,
            quotient_chain.marking_marginals(pi_quotient),
            sats,
        )
        for k in full_pk:
            assert quotient_pk[k] == pytest.approx(full_pk[k], abs=1e-12)

    def test_asymmetric_rates_fail_verification(self):
        model = plane_model(n=3, fail_rates=[0.02, 0.02, 0.05])
        with pytest.raises(ModelError, match="not a symmetry"):
            lumped_state_space(model)

    def test_asymmetric_initial_distribution_rejected(self):
        model = plane_model(n=3, initial_up=[0, 1, 1])
        with pytest.raises(ModelError, match="initial distribution"):
            lumped_state_space(model)

    def test_explosion_guard_applies_to_quotient(self):
        from repro.errors import StateSpaceExplosionError

        model = plane_model(n=6)
        with pytest.raises(StateSpaceExplosionError):
            lumped_state_space(model, max_states=3)


class TestLumpAssembled:
    def make(self, stages=4, **kwargs):
        model = plane_model(det_reset=True, **kwargs)
        chain = assemble(generate(model), stages=stages)
        return model, chain, lump_assembled(chain)

    def test_reduction_and_describe(self):
        _, chain, lumped = self.make()
        assert isinstance(lumped, LumpedChain)
        assert lumped.num_blocks < chain.num_states
        assert lumped.num_full_states == chain.num_states
        assert lumped.reduction > 1.0
        assert lumped.num_slot_classes < chain.num_slots
        assert "blocks" in lumped.describe()

    def test_assemble_lump_flag_attaches_quotient(self):
        model = plane_model(det_reset=True)
        chain = assemble(generate(model), stages=4, lump=True)
        assert isinstance(chain.lumped, LumpedChain)
        assert assemble(generate(model), stages=4).lumped is None

    def test_steady_state_expands_exactly(self):
        model, chain, lumped = self.make()
        pi_full = chain.rerate(model).steady_state_solve().pi
        pi_quotient = lumped.rerate(model).steady_state_solve().pi
        expanded = lumped.expand(pi_quotient)
        assert np.max(np.abs(expanded - pi_full)) <= 1e-12
        # aggregate is the left inverse of expand.
        assert np.max(
            np.abs(lumped.aggregate(expanded) - pi_quotient)
        ) <= 1e-14
        # And the marking marginals agree through the quotient route.
        assert np.max(
            np.abs(
                lumped.marking_marginals(pi_quotient)
                - chain.marking_marginals(pi_full)
            )
        ) <= 1e-12

    def test_projection_and_expansion_matrices(self):
        model, chain, lumped = self.make()
        pi_quotient = lumped.rerate(model).steady_state_solve().pi
        expansion = lumped.expansion_matrix()
        projection = lumped.projection_matrix()
        assert expansion.shape == (lumped.num_full_states, lumped.num_blocks)
        assert np.max(
            np.abs(expansion @ pi_quotient - lumped.expand(pi_quotient))
        ) <= 1e-15
        rng = np.random.default_rng(7)
        reward = rng.uniform(0.0, 5.0, size=lumped.num_full_states)
        projected = lumped.project_reward(reward)
        assert np.max(np.abs(projection @ reward - projected)) <= 1e-12
        # Reward preservation: quotient expectation == full expectation.
        pi_full = lumped.expand(pi_quotient)
        assert float(pi_quotient @ projected) == pytest.approx(
            float(pi_full @ reward), abs=1e-12
        )

    def test_transient_agrees_through_quotient(self):
        model, chain, lumped = self.make()
        full = chain.rerate(model)
        quotient = lumped.rerate(model)
        for t in (0.0, 3.0, 25.0):
            p_full = full.transient(t)
            p_quotient = quotient.transient(t)
            assert np.max(
                np.abs(lumped.aggregate(p_full) - p_quotient)
            ) <= 1e-10

    def test_rerate_survives_symmetric_rate_change(self):
        model, _, lumped = self.make()
        hotter = plane_model(det_reset=True, fail_rates=[0.09] * 3)
        pi_quotient = lumped.rerate(hotter).steady_state_solve().pi
        full_chain = assemble(generate(hotter), stages=4)
        pi_full = full_chain.rerate(hotter).steady_state_solve().pi
        assert np.max(np.abs(lumped.expand(pi_quotient) - pi_full)) <= 1e-12

    def test_rerate_rejects_class_breaking_rates(self):
        _, _, lumped = self.make()
        broken = plane_model(det_reset=True, fail_rates=[0.02, 0.02, 0.09])
        with pytest.raises(ModelError, match="breaks lumping slot class"):
            lumped.rerate(broken)

    def test_coincidentally_equal_rates_stay_in_separate_classes(self):
        """Regression: ``lump_assembled`` keyed slot classes on the
        bitwise rate value alone, so two unrelated activity families
        whose rates happened to coincide at refinement time (here:
        repair rate == failure rate) were merged into one class.  The
        merged chain solved that one point correctly but any later
        re-rate that diverged the rates hit the class-constancy check
        and raised ``ModelError`` -- a sweep-point fallback for a
        perfectly lumpable model.  The key now includes the slot's case
        multiset, which separates the families without refining any
        genuinely symmetric orbit."""
        collided = plane_model(fail_rates=[0.02] * 3, repair=0.02)
        chain = assemble(generate(collided), stages=4)
        lumped = lump_assembled(chain)
        # The diverged point must re-rate in place...
        diverged = plane_model(fail_rates=[0.02] * 3, repair=0.9)
        pi_quotient = lumped.rerate(diverged).steady_state_solve().pi
        # ... and agree exactly with the full-chain solve.
        full = assemble(generate(diverged), stages=4)
        pi_full = full.rerate(diverged).steady_state_solve().pi
        assert np.max(np.abs(lumped.expand(pi_quotient) - pi_full)) <= 1e-12

    def test_asymmetric_dynamics_refine_to_singletons(self):
        model = plane_model(fail_rates=[0.02, 0.05], n=2)
        # Force the declaration despite the asymmetry.
        asymmetric = SANModel(
            model.places,
            model.timed_activities,
            model.instantaneous_activities,
            name=model.name,
            exchangeable_groups=[["s1", "s2"]],
        )
        chain = assemble(generate(asymmetric), stages=2)
        with pytest.raises(ModelError, match="not a lumpable symmetry"):
            lump_assembled(chain)


class TestCapacityLumping:
    def setup_method(self):
        clear_capacity_caches(reset_stats=True)

    def test_expanded_quotient_is_counted_chain(self):
        summary = expanded_capacity_summary(CapacityModelConfig(), stages=8)
        assert summary["orbit_representatives"] == 17
        assert summary["full_tangible_markings"] == 2**14 + 2
        assert summary["marking_reduction"] > 900

    def test_lumped_expanded_matches_counted_and_fig7_goldens(self):
        with open(_GOLDEN_PATH) as fh:
            golden = json.load(fh)["fig7"]
        for row in golden["rows"]:
            lam = float(row["lambda"])
            config = CapacityModelConfig(failure_rate_per_hour=lam)
            counted = capacity_distribution(config, stages=24)
            lumped = capacity_distribution_expanded(
                config, stages=24, lump=True
            )
            for k in set(counted) | set(lumped):
                assert lumped.get(k, 0.0) == pytest.approx(
                    counted.get(k, 0.0), abs=1e-12
                ), f"lambda={lam} k={k}"
            for header, pinned in row.items():
                if not header.startswith("P(K="):
                    continue
                k = int(header[len("P(K=") : -1])
                assert lumped.get(k, 0.0) == pytest.approx(
                    pinned, abs=1e-9
                ), f"golden {header} at lambda={lam}"

    def test_sweep_refines_once_and_warm_starts(self):
        configs = [
            CapacityModelConfig(failure_rate_per_hour=1e-5 * (1 + 0.2 * i))
            for i in range(22)
        ]
        capacity_distribution_expanded(configs[0], stages=8, lump=True)
        refine_after_first = capacity_stage_timings()["refine"]
        assert refine_after_first > 0.0
        for config in configs[1:]:
            capacity_distribution_expanded(config, stages=8, lump=True)
        # One refinement + one quotient assembly for the whole sweep.
        assert capacity_stage_timings()["refine"] == refine_after_first
        stats = capacity_solver_stats()
        assert stats["structure_fallbacks"] == 0
        assert stats["warm_started"] >= len(configs) - 1

    def test_lumped_failure_falls_back_to_full_chain(self, monkeypatch):
        import repro.analytic.capacity as capacity

        def boom(model, **kwargs):
            raise ModelError("injected: not lumpable")

        monkeypatch.setattr(capacity, "lumped_state_space", boom)
        before = capacity_solver_stats()["structure_fallbacks"]
        # A small plane keeps the unlumped expanded fallback (2^4 + 1
        # markings) cheap enough for a unit test.
        config = CapacityModelConfig(
            full_capacity=4, in_orbit_spares=1, threshold=3
        )
        fallback = capacity_distribution_expanded(config, stages=1, lump=True)
        assert capacity_solver_stats()["structure_fallbacks"] == before + 1
        monkeypatch.undo()
        clear_capacity_caches()
        unlumped = capacity_distribution_expanded(config, stages=1, lump=False)
        for k in set(fallback) | set(unlumped):
            assert fallback.get(k, 0.0) == pytest.approx(
                unlumped.get(k, 0.0), abs=1e-12
            )
