"""Tests for the memoized + parallel experiment engine: cache
accounting, sequential/parallel equivalence, deterministic ordering,
and the one-solve-per-sweep guarantee."""

import threading
import time

import pytest

from repro.analytic.capacity import (
    CapacityModelConfig,
    capacity_cache_stats,
    capacity_caches_disabled,
    capacity_distribution,
    clear_capacity_caches,
)
from repro.analytic.solve_cache import LRUSolveCache
from repro.errors import ConfigurationError
from repro.experiments import sweeps
from repro.experiments.engine import SweepRunner, evaluate_grid


# ----------------------------------------------------------------------
# LRU solve cache
# ----------------------------------------------------------------------
class TestLRUSolveCache:
    def test_hit_miss_accounting(self):
        cache = LRUSolveCache(maxsize=4)
        calls = []
        assert cache.get_or_compute("a", lambda: calls.append(1) or 1) == 1
        assert cache.get_or_compute("a", lambda: calls.append(2) or 2) == 1
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.lookups == 2
        assert stats.hit_rate == 0.5
        assert calls == [1]

    def test_module_cache_stats_registry(self):
        import gc

        from repro.analytic.solve_cache import cache_stats

        cache = LRUSolveCache(maxsize=2, name="registry-probe")
        cache.get_or_compute("k", lambda: 1)
        cache.get_or_compute("k", lambda: 1)
        stats = cache_stats()
        assert stats["registry-probe"].hits == 1
        assert stats["registry-probe"].misses == 1
        # The registry holds weak references: dropping the cache drops
        # its entry instead of leaking every short-lived test cache.
        del cache
        gc.collect()
        assert "registry-probe" not in cache_stats()

    def test_lru_eviction_order(self):
        cache = LRUSolveCache(maxsize=2)
        cache.get_or_compute("a", lambda: "A")
        cache.get_or_compute("b", lambda: "B")
        cache.get_or_compute("a", lambda: "A2")  # refresh a
        cache.get_or_compute("c", lambda: "C")  # evicts b (LRU)
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.stats().evictions == 1

    def test_resize_shrinks_and_validates(self):
        cache = LRUSolveCache(maxsize=4)
        for key in "abcd":
            cache.get_or_compute(key, lambda k=key: k)
        cache.resize(2)
        assert len(cache) == 2
        with pytest.raises(ConfigurationError):
            cache.resize(0)
        with pytest.raises(ConfigurationError):
            LRUSolveCache(maxsize=0)

    def test_seed_does_not_count_as_lookup(self):
        cache = LRUSolveCache(maxsize=4)
        cache.seed([("k", 42)])
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (0, 0, 1)
        assert cache.get_or_compute("k", lambda: 0) == 42
        assert cache.stats().hits == 1

    def test_peek_does_not_touch_counters(self):
        cache = LRUSolveCache(maxsize=2)
        assert cache.peek("missing") == (False, None)
        cache.seed([("k", 7)])
        assert cache.peek("k") == (True, 7)
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (0, 0)

    def test_clear_keeps_counters_unless_reset(self):
        cache = LRUSolveCache(maxsize=2)
        cache.get_or_compute("a", lambda: 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().misses == 1
        cache.clear(reset_stats=True)
        assert cache.stats().misses == 0

    def test_concurrent_requests_compute_exactly_once(self):
        cache = LRUSolveCache(maxsize=2)
        computed = []

        def factory():
            time.sleep(0.01)
            computed.append(1)
            return "value"

        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(
                    cache.get_or_compute("shared", factory)
                )
            )
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == ["value"] * 8
        assert len(computed) == 1
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (7, 1)


# ----------------------------------------------------------------------
# Capacity-solve memoization
# ----------------------------------------------------------------------
class TestCapacityMemoization:
    def test_repeat_solve_hits_cache(self):
        clear_capacity_caches()
        config = CapacityModelConfig(failure_rate_per_hour=3e-5, threshold=10)
        before = capacity_cache_stats()["distribution"]
        first = capacity_distribution(config, stages=8)
        second = capacity_distribution(config, stages=8)
        after = capacity_cache_stats()["distribution"]
        assert first == second
        assert after.misses - before.misses == 1
        assert after.hits - before.hits == 1

    def test_distinct_stage_counts_are_distinct_solves(self):
        clear_capacity_caches()
        config = CapacityModelConfig(failure_rate_per_hour=3e-5, threshold=10)
        before = capacity_cache_stats()["distribution"]
        capacity_distribution(config, stages=4)
        capacity_distribution(config, stages=8)
        after = capacity_cache_stats()["distribution"]
        assert after.misses - before.misses == 2

    def test_cached_result_is_isolated_from_caller_mutation(self):
        clear_capacity_caches()
        config = CapacityModelConfig(failure_rate_per_hour=3e-5, threshold=10)
        first = capacity_distribution(config, stages=8)
        first[14] = -1.0
        second = capacity_distribution(config, stages=8)
        assert second[14] != -1.0
        assert abs(sum(second.values()) - 1.0) < 1e-9

    def test_disabled_context_restores_solve_per_call(self):
        clear_capacity_caches()
        config = CapacityModelConfig(failure_rate_per_hour=3e-5, threshold=10)
        capacity_distribution(config, stages=8)
        before = capacity_cache_stats()["distribution"]
        with capacity_caches_disabled():
            uncached = capacity_distribution(config, stages=8)
        after = capacity_cache_stats()["distribution"]
        # Neither a hit nor a miss was recorded: the cache was bypassed.
        assert (after.hits, after.misses) == (before.hits, before.misses)
        assert abs(sum(uncached.values()) - 1.0) < 1e-9

    def test_tau_sweep_performs_exactly_one_capacity_solve(self):
        """The acceptance guard: 9 taus, 1 solve."""
        clear_capacity_caches()
        before = capacity_cache_stats()["distribution"]
        result = sweeps.run_tau_sweep(
            taus=(0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0), stages=8
        )
        after = capacity_cache_stats()["distribution"]
        assert len(result.rows) == 9
        assert after.misses - before.misses == 1
        # Every point re-reads the shared solve from the cache.
        assert after.hits - before.hits == 9

    def test_mu_sweep_shares_the_tau_sweep_solve(self):
        """Capacity is independent of both tau and mu: a mu sweep at the
        same (lambda, eta, stages) adds zero further solves."""
        clear_capacity_caches()
        sweeps.run_tau_sweep(taus=(1.0, 2.0), stages=8)
        before = capacity_cache_stats()["distribution"]
        sweeps.run_mu_sweep(mean_durations=(1.0, 5.0), stages=8)
        after = capacity_cache_stats()["distribution"]
        assert after.misses == before.misses


# ----------------------------------------------------------------------
# SweepRunner
# ----------------------------------------------------------------------
def _double_row(point):
    """Top-level so the process-pool path can pickle it."""
    return {"x": point["x"], "y": 2 * point["x"]}


def _staggered_row(point):
    """Later points finish first -- exercises order restoration."""
    time.sleep(0.05 * (3 - point["x"]) if point["x"] < 3 else 0.0)
    return {"x": point["x"]}


def _failing_row(point):
    if point["x"] == 1:
        raise ValueError("boom")
    return {"x": point["x"]}


class TestSweepRunner:
    def test_rejects_bad_n_jobs(self):
        with pytest.raises(ConfigurationError):
            SweepRunner(n_jobs=0)
        with pytest.raises(ConfigurationError):
            SweepRunner(n_jobs=-2)
        with pytest.raises(ConfigurationError):
            SweepRunner(n_jobs=1.5)

    def test_n_jobs_minus_one_uses_cpu_count(self):
        assert SweepRunner(n_jobs=-1).n_jobs >= 1

    def test_empty_grid(self):
        assert SweepRunner().map_rows(_double_row, []) == []

    def test_sequential_matches_parallel(self):
        points = [{"x": i} for i in range(6)]
        sequential = SweepRunner(n_jobs=1).map_rows(_double_row, points)
        parallel = SweepRunner(n_jobs=4).map_rows(_double_row, points)
        assert sequential == parallel
        assert sequential == [{"x": i, "y": 2 * i} for i in range(6)]

    def test_parallel_rows_keep_grid_order(self):
        points = [{"x": i} for i in range(4)]
        rows = SweepRunner(n_jobs=4).map_rows(_staggered_row, points)
        assert [row["x"] for row in rows] == [0, 1, 2, 3]

    def test_worker_exception_propagates(self):
        points = [{"x": i} for i in range(3)]
        with pytest.raises(ValueError, match="boom"):
            SweepRunner(n_jobs=2).map_rows(_failing_row, points)

    def test_pool_submits_chunks_not_points(self):
        # Regression: the old pool submitted one task per grid point,
        # pickling row_fn (and paying executor round-trips) N times.
        # The campaign orchestrator submits per chunk.
        points = [{"x": i} for i in range(40)]
        runner = SweepRunner(n_jobs=2, steal=False)
        rows = runner.map_rows(_double_row, points)
        assert rows == [{"x": i, "y": 2 * i} for i in range(40)]
        stats = runner.last_campaign.stats
        assert stats["chunks"] == 2  # ceil(40 / 2) point blocks
        assert stats["submissions"] == stats["chunks"]
        assert stats["submissions"] < len(points)

    def test_run_records_stage_timings(self):
        result = SweepRunner().run(
            experiment_id="demo",
            title="demo",
            headers=["x", "y"],
            row_fn=_double_row,
            points=[{"x": 1}, {"x": 2}],
        )
        assert set(result.timings) == {
            "capacity_presolve",
            "rows",
            "total",
            "assemble",
            "refine",
            "quotient",
            "rerate",
            "solve",
            "batch_template",
            "batch_replicate",
            "batch_run",
            "batch_vector",
            "batch_vector_fallback",
        }
        assert result.timings["total"] >= result.timings["rows"]
        assert all(v >= 0.0 for v in result.timings.values())
        assert result.rows == [{"x": 1, "y": 2}, {"x": 2, "y": 4}]

    def test_run_surfaces_cache_stats_metadata(self):
        clear_capacity_caches(reset_stats=True)
        config = CapacityModelConfig()

        def solving_row(point):
            distribution = capacity_distribution(config, stages=24)
            return {"x": point["x"], "y": max(distribution.values())}

        def run():
            return SweepRunner().run(
                experiment_id="demo",
                title="demo",
                headers=["x", "y"],
                row_fn=solving_row,
                points=[{"x": 1}],
                presolve=[(config, 24)],
            )

        stats = run().metadata["cache_stats"]
        # The capacity caches are registered by name; the presolve is
        # the miss, the row's re-solve of the same config the hit.
        distributions = stats["capacity-distribution"]
        assert distributions["misses"] == 1
        assert distributions["hits"] == 1
        assert distributions["hit_rate"] == 0.5
        assert set(distributions) == {
            "hits", "misses", "evictions", "size", "maxsize", "hit_rate",
        }
        # Hits and misses are run deltas (an earlier run's hits do not
        # leak in); size and maxsize are read at the end of the run.
        again = run().metadata["cache_stats"]["capacity-distribution"]
        assert (again["hits"], again["misses"]) == (2, 0)
        assert again["size"] == distributions["size"] >= 1

    def test_preassemble_shares_one_topology_across_rate_configs(self):
        """Configs differing only in rate parameters collapse onto one
        assembled structure; a subsequent solve re-rates it (no further
        assemble miss)."""
        clear_capacity_caches(reset_stats=True)
        configs = [
            CapacityModelConfig(failure_rate_per_hour=lam, threshold=10)
            for lam in (2e-5, 4e-5, 6e-5)
        ]
        count = SweepRunner.preassemble_capacity(
            [(config, 8) for config in configs]
        )
        assert count == 3  # distinct (config, stages) keys...
        stats = capacity_cache_stats()["assemble"]
        assert stats.misses == 1  # ...but one shared topology
        assert stats.hits == 2
        before = capacity_cache_stats()["assemble"]
        capacity_distribution(configs[0], stages=8)
        after = capacity_cache_stats()["assemble"]
        assert after.misses == before.misses

    def test_presolve_deduplicates_keys(self):
        clear_capacity_caches()
        config = CapacityModelConfig(failure_rate_per_hour=3e-5, threshold=10)
        before = capacity_cache_stats()["distribution"]
        count = SweepRunner.presolve_capacity(
            [(config, 8), (config, 8), (config, 8)]
        )
        after = capacity_cache_stats()["distribution"]
        assert count == 1
        assert after.misses - before.misses == 1

    def test_evaluate_grid_convenience(self):
        rows = evaluate_grid(_double_row, [{"x": 5}])
        assert rows == [{"x": 5, "y": 10}]


class TestParallelExperimentEquivalence:
    def test_tau_sweep_identical_under_n_jobs_4(self):
        """n_jobs must not change a single bit of the table."""
        clear_capacity_caches()
        sequential = sweeps.run_tau_sweep(taus=(1.0, 3.0, 6.0), stages=8)
        clear_capacity_caches()
        parallel = sweeps.run_tau_sweep(
            taus=(1.0, 3.0, 6.0), stages=8, n_jobs=4
        )
        assert sequential.rows == parallel.rows
        assert sequential.headers == parallel.headers
