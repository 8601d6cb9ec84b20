"""Tests for the process-local counter registry (repro.obs)."""

import pickle
import sys
import threading

import pytest

from repro import obs
from repro.analytic.solve_cache import LRUSolveCache


@pytest.fixture(autouse=True)
def _clean_test_counters():
    obs.reset("test.")
    yield
    obs.reset("test.")


class TestSnapshotDelta:
    def test_add_creates_and_accumulates(self):
        obs.add("test.count")
        obs.add("test.count", 4)
        obs.add("test.seconds", 0.25)
        counters = obs.snapshot()
        assert counters["test.count"] == 5
        assert isinstance(counters["test.count"], int)
        assert counters["test.seconds"] == 0.25

    def test_snapshot_is_a_copy(self):
        obs.add("test.count")
        counters = obs.snapshot()
        obs.add("test.count")
        assert counters["test.count"] == 1
        assert obs.snapshot()["test.count"] == 2

    def test_delta_counts_new_counters_from_zero(self):
        obs.add("test.old", 2)
        before = obs.snapshot()
        obs.add("test.old", 3)
        obs.add("test.fresh", 7)
        change = obs.delta(before, obs.snapshot())
        assert change["test.old"] == 3
        assert change["test.fresh"] == 7
        assert "test.fresh" not in before

    def test_section_and_merge(self):
        counters = {"test.a.x": 1, "test.a.y": 2.5, "test.b.x": 4}
        assert obs.section(counters, "test.a.") == {"x": 1, "y": 2.5}
        assert obs.section(counters, "absent.") == {}
        assert obs.merge(counters, {"test.a.x": 2, "other": 1}) == {
            "test.a.x": 3,
            "test.a.y": 2.5,
            "test.b.x": 4,
            "other": 1,
        }
        assert obs.merge() == {}

    def test_declare_lists_counters_before_first_use(self):
        obs.declare("test.declared.", ("hits", "seconds"), 0)
        obs.declare("test.declared.", ("timer",), 0.0)
        counters = obs.section(obs.snapshot(), "test.declared.")
        assert counters == {"hits": 0, "seconds": 0, "timer": 0.0}
        assert isinstance(counters["timer"], float)
        # Declaring again never clobbers a live value.
        obs.add("test.declared.hits", 3)
        obs.declare("test.declared.", ("hits",))
        assert obs.snapshot()["test.declared.hits"] == 3

    def test_reset_zeroes_only_the_prefix_and_keeps_types(self):
        obs.add("test.reset.count", 3)
        obs.add("test.reset.seconds", 1.5)
        obs.add("test.kept", 2)
        obs.reset("test.reset.")
        counters = obs.snapshot()
        assert counters["test.reset.count"] == 0
        assert isinstance(counters["test.reset.count"], int)
        assert counters["test.reset.seconds"] == 0.0
        assert isinstance(counters["test.reset.seconds"], float)
        assert counters["test.kept"] == 2

    def test_snapshot_folds_in_solve_cache_counters(self):
        cache = LRUSolveCache(maxsize=1, name="obs-probe")
        before = obs.snapshot()
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("b", lambda: 2)  # evicts "a"
        change = obs.delta(before, obs.snapshot())
        assert change["cache.obs-probe.hits"] == 1
        assert change["cache.obs-probe.misses"] == 2
        assert change["cache.obs-probe.evictions"] == 1
        # The counters stay per cache instance: a fresh cache under the
        # same name starts from zero.
        fresh = LRUSolveCache(maxsize=1, name="obs-probe")
        assert obs.snapshot()["cache.obs-probe.hits"] == 0
        del cache, fresh


class TestTimed:
    def test_timed_accumulates_seconds(self):
        with obs.timed("test.timer"):
            pass
        with obs.timed("test.timer"):
            pass
        assert obs.snapshot()["test.timer"] > 0.0

    def test_timed_accumulates_when_the_block_raises(self):
        with pytest.raises(RuntimeError):
            with obs.timed("test.failing"):
                raise RuntimeError("boom")
        assert obs.snapshot()["test.failing"] > 0.0


def test_concurrent_adds_sum_exactly():
    """A lost read-modify-write update would leave the sum short."""
    threads, adds = 8, 10_000

    def worker():
        for _ in range(adds):
            obs.add("test.concurrent")

    pool = [threading.Thread(target=worker) for _ in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool)
    assert obs.snapshot()["test.concurrent"] == threads * adds


def test_pickled_delta_round_trips():
    before = obs.snapshot()
    obs.add("test.shipped", 3)
    obs.add("test.shipped_seconds", 0.5)
    change = obs.delta(before, obs.snapshot())
    assert pickle.loads(pickle.dumps(change)) == change
    assert obs.merge(before, pickle.loads(pickle.dumps(change)))[
        "test.shipped"
    ] == obs.snapshot()["test.shipped"]
