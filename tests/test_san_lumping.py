"""Tests for repro.san.lumping (exact symmetry lumping).

Canonical-representative reachability (``lumped_state_space``) is
checked against full-space solves on small symmetric models and against
closed-form laws of exchangeable i.i.d. components, and the capacity
integration is pinned against the counted paper model and the fig7
goldens.
"""

import gc
import json
import math
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
    CTMC,
    InputGate,
    LumpedStateSpace,
    OutputGate,
    Place,
    SANModel,
    TimedActivity,
    assemble,
    canonical_marking,
    generate,
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

    @staticmethod
    def chains(model, stages=4):
        """The full and the quotient assembled chains of ``model``."""
        full = assemble(generate(model), stages=stages)
        return full, assemble(lumped_state_space(model), stages=stages)

    @staticmethod
    def expand(full_space, quotient_space, quotient_marginals):
        """Full-space marking probabilities from quotient ones: exact
        lumpability spreads each orbit's mass evenly over its members."""
        model = quotient_space.model
        position = {m: i for i, m in enumerate(quotient_space.markings)}
        return np.array(
            [
                quotient_marginals[i] / quotient_space.class_sizes[i]
                for i in (
                    position[canonical_marking(model, m)]
                    for m in full_space.markings
                )
            ]
        )

    def test_steady_state_expands_exactly(self):
        model = plane_model(det_reset=True)
        full, quotient = self.chains(model)
        pi_full = full.marking_marginals(
            full.rerate(model).steady_state_solve().pi
        )
        pi_quotient = quotient.marking_marginals(
            quotient.rerate(model).steady_state_solve().pi
        )
        expanded = self.expand(full.space, quotient.space, pi_quotient)
        assert np.max(np.abs(expanded - pi_full)) <= 1e-12

    def test_transient_agrees_through_quotient(self):
        model = plane_model(det_reset=True)
        full, quotient = self.chains(model)
        full_ctmc, quotient_ctmc = full.rerate(model), quotient.rerate(model)
        for t in (0.0, 3.0, 25.0):
            expanded = self.expand(
                full.space,
                quotient.space,
                quotient.marking_marginals(quotient_ctmc.transient(t)),
            )
            p_full = full.marking_marginals(full_ctmc.transient(t))
            assert np.max(np.abs(expanded - p_full)) <= 1e-10

    def test_rerate_survives_symmetric_rate_change(self):
        _, quotient = self.chains(plane_model(det_reset=True))
        hotter = plane_model(det_reset=True, fail_rates=[0.09] * 3)
        full = assemble(generate(hotter), stages=4)
        pi_full = full.marking_marginals(
            full.rerate(hotter).steady_state_solve().pi
        )
        pi_quotient = quotient.marking_marginals(
            quotient.rerate(hotter).steady_state_solve().pi
        )
        expanded = self.expand(full.space, quotient.space, pi_quotient)
        assert np.max(np.abs(expanded - pi_full)) <= 1e-12

    def test_coincidentally_equal_rates_rerate_apart(self):
        """A quotient built where the repair rate equals the failure
        rate re-rates in place to a point where they differ."""
        collided = plane_model(fail_rates=[0.02] * 3, repair=0.02)
        _, quotient = self.chains(collided)
        diverged = plane_model(fail_rates=[0.02] * 3, repair=0.9)
        full = assemble(generate(diverged), stages=4)
        pi_full = full.marking_marginals(
            full.rerate(diverged).steady_state_solve().pi
        )
        pi_quotient = quotient.marking_marginals(
            quotient.rerate(diverged).steady_state_solve().pi
        )
        expanded = self.expand(full.space, quotient.space, pi_quotient)
        assert np.max(np.abs(expanded - pi_full)) <= 1e-12

    def test_asymmetric_rates_fail_verification(self):
        model = plane_model(n=3, fail_rates=[0.02, 0.02, 0.05])
        with pytest.raises(ModelError, match="not a symmetry"):
            lumped_state_space(model)

    def test_asymmetric_initial_distribution_rejected(self):
        model = plane_model(n=3, initial_up=[0, 1, 1])
        with pytest.raises(ModelError, match="initial distribution"):
            lumped_state_space(model)

    def test_deterministic_timer_model_reduces_and_describes(self):
        model = plane_model(det_reset=True)
        space = lumped_state_space(model)
        full = generate(plane_model(det_reset=True))
        assert len(space) < space.full_state_count == len(full)
        assert len(space.general) > 0
        assert "orbit representatives" in space.describe()
        assert "general transitions" in space.describe()

    def test_forced_two_satellite_asymmetry_rejected(self):
        # The group is declared even though s2 fails faster than s1;
        # the deterministic reset does not hide the asymmetry.
        model = plane_model(n=2, fail_rates=[0.02, 0.05], det_reset=True)
        with pytest.raises(ModelError, match="not a symmetry"):
            lumped_state_space(model)

    def test_explosion_guard_applies_to_quotient(self):
        from repro.errors import StateSpaceExplosionError

        model = plane_model(n=6)
        with pytest.raises(StateSpaceExplosionError):
            lumped_state_space(model, max_states=3)


def component_model(n, base_transitions, num_base_states):
    """``n`` i.i.d. copies of a small CTMC, one-hot encoded: component
    ``i`` in base state ``b`` holds a token in place ``c{i}_{b}``.  Each
    component is one arity-``num_base_states`` member of a single
    exchangeable group; every copy starts in base state 0."""
    places, activities, members = [], [], []
    for i in range(n):
        names = [f"c{i}_{b}" for b in range(num_base_states)]
        places += [Place(name, int(b == 0)) for b, name in enumerate(names)]
        members.append(tuple(names))
        activities += [
            TimedActivity.exponential(
                f"t{i}_{src}_{dst}",
                rate,
                input_arcs={names[src]: 1},
                cases=[Case(output_arcs={names[dst]: 1})],
            )
            for src, dst, rate in base_transitions
        ]
    return SANModel(
        places,
        activities,
        name=f"iid-{n}",
        exchangeable_groups=[members],
    )


def base_state_counts(space, pi, n, state):
    """Law of the number of components in base ``state``."""
    law = {}
    for marking, probability in zip(space.markings, np.asarray(pi).tolist()):
        as_dict = space.model.marking_dict(marking)
        count = sum(as_dict[f"c{i}_{state}"] for i in range(n))
        law[count] = law.get(count, 0.0) + probability
    return law


class TestExchangeableComponents:
    """n i.i.d. CTMC replicas lump to multisets over the base states,
    and the quotient reproduces the replicas' closed-form laws."""

    def solve(self, model):
        chain = assemble(lumped_state_space(model), stages=1)
        pi = chain.rerate(model).steady_state_solve().pi
        return chain, chain.marking_marginals(pi)

    def test_on_off_up_count_is_binomial(self):
        fail, repair, n = 0.5, 2.0, 6
        model = component_model(n, [(0, 1, fail), (1, 0, repair)], 2)
        space = lumped_state_space(model)
        # Representatives are the up-counts 0..n out of 2**n markings.
        assert len(space) == n + 1
        assert space.full_state_count == len(generate(model)) == 2**n
        chain, marginals = self.solve(model)
        law = base_state_counts(chain.space, marginals, n, state=0)
        p_up = repair / (fail + repair)
        for count in range(n + 1):
            expected = math.comb(n, count) * p_up**count * (1 - p_up) ** (n - count)
            assert law.get(count, 0.0) == pytest.approx(expected, abs=1e-9)

    def test_three_state_counts_are_n_times_marginals(self):
        base = [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0)]
        n = 4
        model = component_model(n, base, 3)
        space = lumped_state_space(model)
        # Multisets of size n over 3 base states: C(3 + n - 1, n).
        assert len(space) == math.comb(6, 4) == 15
        assert space.full_state_count == 3**n
        chain, marginals = self.solve(model)
        pi_base = CTMC(3, base).steady_state()
        for state in range(3):
            law = base_state_counts(chain.space, marginals, n, state)
            expected_count = sum(count * p for count, p in law.items())
            assert expected_count == pytest.approx(n * pi_base[state], abs=1e-9)

    def test_representative_count_is_multiset_formula(self):
        # n copies of an m-state base: C(m + n - 1, n) multisets.
        for m, n, expected in ((2, 7, 8), (3, 2, 6), (5, 2, 15)):
            cycle = [(b, (b + 1) % m, 1.0 + b) for b in range(m)]
            space = lumped_state_space(component_model(n, cycle, m))
            assert len(space) == math.comb(m + n - 1, n) == expected
            assert space.full_state_count == m**n

    def test_explosion_guard_on_replicated_components(self):
        from repro.errors import StateSpaceExplosionError

        # Ten copies of a 6-state cycle: C(15, 10) = 3003 representatives.
        cycle = [(b, (b + 1) % 6, 1.0) for b in range(6)]
        with pytest.raises(StateSpaceExplosionError):
            lumped_state_space(component_model(10, cycle, 6), max_states=200)

    def test_transient_up_count_is_n_times_base(self):
        fail, repair, n, t = 0.7, 1.3, 5, 0.9
        base = [(0, 1, fail), (1, 0, repair)]
        model = component_model(n, base, 2)
        chain = assemble(lumped_state_space(model), stages=1)
        p_lumped = chain.marking_marginals(chain.rerate(model).transient(t))
        law = base_state_counts(chain.space, p_lumped, n, state=0)
        expected_up = sum(count * p for count, p in law.items())
        p_base = CTMC(2, base).transient(t)
        assert expected_up == pytest.approx(n * p_base[0], abs=1e-9)


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
