"""Tests for the affinity-sharded campaign orchestrator: chunk
planning, the checkpoint journal, byte-identical merges at any worker
count, crash/resume, worker-loss recovery, retry, and the engine/
experiment integrations."""

import json
import os
import pickle

import numpy as np
import pytest

from repro import obs
from repro.analytic.capacity import (
    CapacityModelConfig,
    capacity_distribution,
    clear_capacity_caches,
)
from repro.campaign import (
    CampaignJournal,
    CampaignRunner,
    grid_fingerprint,
    load_journal,
    plan_chunks,
)
from repro.core.config import EvaluationParams
from repro.errors import CampaignError, ConfigurationError
from repro.experiments.engine import SweepRunner
from repro.simulation.batch import ScenarioTemplate


# ----------------------------------------------------------------------
# Row functions (top level: the pool path pickles them by reference)
# ----------------------------------------------------------------------
def _square_row(point):
    return {"x": point["x"], "y": point["x"] ** 2}


def _failing_row(point):
    if point["x"] == 2:
        raise ValueError("deterministic boom")
    return {"x": point["x"]}


def _raise_once_row(point):
    """Fails the first time the flag file is absent, succeeds after."""
    flag = point["flag"]
    if point["x"] == 1 and not os.path.exists(flag):
        with open(flag, "w") as handle:
            handle.write("raised")
        raise RuntimeError("transient")
    return {"x": point["x"]}


def _kill_once_row(point):
    """Hard-kills the worker process (no exception, no cleanup) the
    first time -- simulates OOM-kill / segfault worker loss."""
    flag = point["flag"]
    if point["x"] == 1 and not os.path.exists(flag):
        with open(flag, "w") as handle:
            handle.write("killed")
        os._exit(1)
    return {"x": point["x"]}


def _solving_row(point):
    config = CapacityModelConfig(
        failure_rate_per_hour=point["lam"], threshold=10
    )
    distribution = capacity_distribution(config, stages=4)
    return {"lam": point["lam"], "top": max(distribution.values())}


def _group_of(point):
    return point["x"] % 3


#: A counter no program module knows about: the registry, the chunk
#: deltas and the run metadata must carry it without being told.
_PROBE = "test.one_source.rows"


def _counted_row(point):
    """A capacity solve, or one lossy vector-engine batch (every row
    shunted to the scalar oracle), plus the throwaway probe counter."""
    obs.add(_PROBE)
    if point["kind"] == "vector":
        params = EvaluationParams(signal_termination_rate=0.2)
        template = ScenarioTemplate(
            params.constellation.plane_geometry(9),
            params,
            crosslink_loss_probability=0.1,
        )
        rng = np.random.default_rng(point["seed"])
        onsets = rng.uniform(0.0, template.geometry.l1, size=40)
        durations = rng.exponential(1.0 / params.mu, size=40)
        levels, _ = template.sample_levels(
            rng, onsets, durations, engine="vector"
        )
        return {"kind": "vector", "levels": levels.tolist()}
    return _solving_row(point)


def _counted_affinity(point):
    return point["kind"]


# ----------------------------------------------------------------------
# Planner
# ----------------------------------------------------------------------
class TestPlanner:
    def test_affinity_groups_by_key_in_first_occurrence_order(self):
        points = [{"x": i} for i in range(10)]
        chunks = plan_chunks(points, affinity=_group_of)
        assert [c.affinity for c in chunks] == ["0", "1", "2"]
        assert chunks[0].indices == (0, 3, 6, 9)
        assert chunks[1].indices == (1, 4, 7)
        assert chunks[2].indices == (2, 5, 8)
        # Grid order inside every chunk.
        for chunk in chunks:
            assert list(chunk.indices) == sorted(chunk.indices)
            assert [p["x"] for p in chunk.points] == list(chunk.indices)

    def test_interleaved_groups_still_land_in_one_chunk(self):
        """Grouping is by key equality over the whole grid, not
        adjacency -- the property that rescues interleaved grids."""
        points = [{"x": x} for x in (0, 5, 0, 5, 0)]
        chunks = plan_chunks(points, affinity=lambda p: p["x"])
        assert len(chunks) == 2
        assert chunks[0].indices == (0, 2, 4)
        assert chunks[1].indices == (1, 3)

    def test_no_affinity_cuts_contiguous_blocks(self):
        points = [{"x": i} for i in range(7)]
        chunks = plan_chunks(points, max_chunk_size=3)
        assert [c.indices for c in chunks] == [(0, 1, 2), (3, 4, 5), (6,)]
        assert [c.affinity for c in chunks] == ["block-0", "block-1", "block-2"]

    def test_max_chunk_size_splits_oversized_groups(self):
        points = [{"x": 0}] * 5
        chunks = plan_chunks(
            points, affinity=lambda p: "g", max_chunk_size=2
        )
        assert [c.affinity for c in chunks] == ["g#0", "g#1", "g#2"]
        assert [c.indices for c in chunks] == [(0, 1), (2, 3), (4,)]

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ConfigurationError):
            plan_chunks([{"x": 1}], max_chunk_size=0)

    def test_chunk_seeds_are_deterministic(self):
        points = [{"x": i} for i in range(4)]
        first = plan_chunks(points, affinity=_group_of, seed=99)
        second = plan_chunks(points, affinity=_group_of, seed=99)
        assert [c.seed for c in first] == [c.seed for c in second]
        assert all(c.seed is not None for c in first)
        different = plan_chunks(points, affinity=_group_of, seed=100)
        assert [c.seed for c in first] != [c.seed for c in different]

    def test_fingerprint_pins_points_and_plan(self):
        points = [{"x": i} for i in range(6)]
        chunks = plan_chunks(points, affinity=_group_of)
        assert grid_fingerprint(points, chunks) == grid_fingerprint(
            points, plan_chunks(points, affinity=_group_of)
        )
        other_points = [{"x": i} for i in range(5)]
        assert grid_fingerprint(points, chunks) != grid_fingerprint(
            other_points, plan_chunks(other_points, affinity=_group_of)
        )
        other_plan = plan_chunks(points, max_chunk_size=2)
        assert grid_fingerprint(points, chunks) != grid_fingerprint(
            points, other_plan
        )


# ----------------------------------------------------------------------
# Journal
# ----------------------------------------------------------------------
class TestJournal:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        points = [{"x": i} for i in range(4)]
        chunks = plan_chunks(points, affinity=_group_of)
        fingerprint = grid_fingerprint(points, chunks)
        journal = CampaignJournal(path)
        assert journal.open(fingerprint, chunks) == {}
        payload = pickle.dumps([{"x": 0}])
        journal.lease(0, 1)
        journal.complete(0, payload, seconds=0.5, source="executed")
        journal.close()
        header, completed = load_journal(path)
        assert header["fingerprint"] == fingerprint
        assert set(completed) == {0}
        digest, stored = completed[0]
        assert stored == payload
        # Reopening with the same fingerprint resumes chunk 0.
        resumed = CampaignJournal(path).open(fingerprint, chunks)
        assert set(resumed) == {0}

    def test_fingerprint_mismatch_raises_with_hint(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        points = [{"x": i} for i in range(4)]
        chunks = plan_chunks(points, affinity=_group_of)
        CampaignJournal(path).open(grid_fingerprint(points, chunks), chunks)
        other = [{"x": i} for i in range(3)]
        other_chunks = plan_chunks(other, affinity=_group_of)
        with pytest.raises(ConfigurationError, match="different grid"):
            CampaignJournal(path).open(
                grid_fingerprint(other, other_chunks), other_chunks
            )

    def test_truncated_trailing_line_is_tolerated(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        points = [{"x": i} for i in range(2)]
        chunks = plan_chunks(points)
        fingerprint = grid_fingerprint(points, chunks)
        journal = CampaignJournal(path)
        journal.open(fingerprint, chunks)
        journal.complete(0, pickle.dumps([1]), seconds=0.1, source="executed")
        journal.close()
        # Simulate a kill mid-append: a half-written record at the tail.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"record": "completed", "chunk": 1, "dig')
        header, completed = load_journal(path)
        assert header is not None
        assert set(completed) == {0}

    def test_conflicting_completion_digests_raise(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        points = [{"x": 0}]
        chunks = plan_chunks(points)
        journal = CampaignJournal(path)
        journal.open(grid_fingerprint(points, chunks), chunks)
        journal.complete(0, pickle.dumps([1]), seconds=0.1, source="executed")
        journal.complete(0, pickle.dumps([2]), seconds=0.1, source="stolen")
        journal.close()
        with pytest.raises(ConfigurationError, match="different digests"):
            load_journal(path)


# ----------------------------------------------------------------------
# Orchestrator
# ----------------------------------------------------------------------
class TestCampaignRunner:
    def test_merged_rows_are_byte_identical_across_worker_counts(self):
        points = [{"x": i} for i in range(12)]
        results = [
            CampaignRunner(n).run(_square_row, points, affinity=_group_of)
            for n in (1, 2, 4)
        ]
        blobs = [pickle.dumps(r.rows) for r in results]
        assert blobs[0] == blobs[1] == blobs[2]
        assert results[0].rows == [_square_row(p) for p in points]
        # Same plan -> same fingerprint -> same per-chunk digests.
        assert [c.digest for c in results[0].chunks] == [
            c.digest for c in results[1].chunks
        ]

    def test_submissions_are_per_chunk_not_per_point(self):
        points = [{"x": i} for i in range(30)]
        runner = CampaignRunner(2, steal=False)
        result = runner.run(_square_row, points, affinity=_group_of)
        assert result.stats["chunks"] == 3
        assert result.stats["submissions"] == 3  # not 30

    def test_crash_and_resume_is_byte_identical(self, tmp_path):
        points = [{"x": i} for i in range(12)]
        reference = CampaignRunner(1).run(
            _square_row, points, affinity=_group_of
        )
        path = str(tmp_path / "j.jsonl")

        class Crash(Exception):
            pass

        seen = []

        def crash_after_two(outcome):
            seen.append(outcome.chunk_id)
            if len(seen) == 2:
                raise Crash

        with pytest.raises(Crash):
            CampaignRunner(1, journal=path).run(
                _square_row, points, affinity=_group_of,
                on_chunk=crash_after_two,
            )
        _, completed = load_journal(path)
        assert len(completed) == 2  # both chunks durable before the crash
        resumed = CampaignRunner(1, journal=path).run(
            _square_row, points, affinity=_group_of
        )
        assert resumed.stats["resumed"] == 2
        assert resumed.stats["executed"] == 1
        assert pickle.dumps(resumed.rows) == pickle.dumps(reference.rows)

    def test_resume_across_worker_counts_is_byte_identical(self, tmp_path):
        points = [{"x": i} for i in range(12)]
        reference = CampaignRunner(1).run(
            _square_row, points, affinity=_group_of
        )
        path = str(tmp_path / "j.jsonl")

        class Crash(Exception):
            pass

        def crash_immediately(outcome):
            raise Crash

        with pytest.raises(Crash):
            CampaignRunner(1, journal=path).run(
                _square_row, points, affinity=_group_of,
                on_chunk=crash_immediately,
            )
        resumed = CampaignRunner(2, journal=path).run(
            _square_row, points, affinity=_group_of
        )
        assert resumed.stats["resumed"] >= 1
        assert pickle.dumps(resumed.rows) == pickle.dumps(reference.rows)

    def test_worker_loss_rebuilds_pool_and_reproduces_result(self, tmp_path):
        flag = str(tmp_path / "killed")
        points = [{"x": i, "flag": flag} for i in range(6)]
        reference = CampaignRunner(1).run(
            _square_row, [{"x": p["x"]} for p in points], affinity=_group_of
        )
        # steal=False pins recovery to the pool-restart path: with
        # stealing on, a healthy worker can duplicate the dead
        # worker's chunk and finish before the broken pool is noticed.
        result = CampaignRunner(2, steal=False).run(
            _kill_once_row, points, affinity=_group_of
        )
        assert os.path.exists(flag)  # the kill actually happened
        assert result.stats["pool_restarts"] >= 1
        assert [row["x"] for row in result.rows] == [
            row["x"] for row in reference.rows
        ]

    def test_transient_chunk_error_is_retried(self, tmp_path):
        flag = str(tmp_path / "raised")
        points = [{"x": i, "flag": flag} for i in range(6)]
        result = CampaignRunner(2, steal=False).run(
            _raise_once_row, points, affinity=_group_of
        )
        assert os.path.exists(flag)
        assert result.stats["retried"] == 1
        assert [row["x"] for row in result.rows] == list(range(6))

    def test_deterministic_failure_propagates_as_itself(self):
        points = [{"x": i} for i in range(4)]
        with pytest.raises(ValueError, match="deterministic boom"):
            CampaignRunner(2).run(_failing_row, points, affinity=_group_of)
        with pytest.raises(ValueError, match="deterministic boom"):
            CampaignRunner(1).run(_failing_row, points, affinity=_group_of)

    def test_work_stealing_duplicates_agree(self):
        # More workers than chunks forces speculative duplicates; the
        # digest check inside the runner raises CampaignError on any
        # divergence, so success implies agreement.
        points = [{"x": i} for i in range(8)]
        result = CampaignRunner(4).run(
            _square_row, points, affinity=lambda p: p["x"] % 2
        )
        assert result.stats["chunks"] == 2
        assert pickle.dumps(result.rows) == pickle.dumps(
            [_square_row(p) for p in points]
        )

    def test_journal_replay_detects_divergent_reexecution(self, tmp_path):
        # Corrupt the journal's payload for chunk 0 with a *valid*
        # digest of different rows: resume accepts it (digest matches
        # payload), proving digests -- not trust -- gate the merge; the
        # rows then differ, which load_journal's cross-record digest
        # comparison would catch on the next completion.  Here we check
        # the cheaper invariant: mismatched payload vs digest raises.
        path = str(tmp_path / "j.jsonl")
        points = [{"x": i} for i in range(2)]
        chunks = plan_chunks(points)
        journal = CampaignJournal(path)
        journal.open(grid_fingerprint(points, chunks), chunks)
        journal.complete(0, pickle.dumps([1]), seconds=0.1, source="executed")
        journal.close()
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        record = json.loads(lines[-1])
        record["digest"] = "0" * 64
        lines[-1] = json.dumps(record)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError, match="digest"):
            load_journal(path)


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------
class TestSweepRunnerIntegration:
    def test_journal_routes_n_jobs_1_through_campaign(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        runner = SweepRunner(n_jobs=1, journal=path)
        rows = runner.map_rows(_square_row, [{"x": i} for i in range(4)])
        assert rows == [_square_row({"x": i}) for i in range(4)]
        assert runner.last_campaign is not None
        assert os.path.exists(path)
        # Second pass resumes everything from the journal.
        again = SweepRunner(n_jobs=1, journal=path)
        assert again.map_rows(_square_row, [{"x": i} for i in range(4)]) == rows
        assert again.last_campaign.stats["executed"] == 0

    def test_journal_grid_mismatch_raises(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        SweepRunner(n_jobs=1, journal=path).map_rows(
            _square_row, [{"x": i} for i in range(4)]
        )
        with pytest.raises(ConfigurationError, match="different grid"):
            SweepRunner(n_jobs=1, journal=path).map_rows(
                _square_row, [{"x": i} for i in range(5)]
            )

    def test_parallel_run_merges_worker_stage_timings(self):
        clear_capacity_caches()
        points = [{"lam": lam} for lam in (2e-5, 4e-5)]
        result = SweepRunner(n_jobs=2).run(
            experiment_id="probe",
            title="probe",
            headers=["lam", "top"],
            row_fn=_solving_row,
            points=points,
        )
        # The solves happened in pool workers; without the worker-delta
        # merge these stages would read ~0 in the parent.
        assert result.timings["solve"] > 0.0
        assert result.timings["assemble"] > 0.0
        assert result.metadata["solver_stats"]["direct"] + result.metadata[
            "solver_stats"
        ]["iterative"] >= 2
        campaign = result.metadata["campaign"]
        assert campaign["points"] == 2
        assert campaign["submissions"] <= campaign["chunks"] + campaign["stolen"]

    def test_counters_are_one_source_at_any_worker_count(self, tmp_path):
        """The same grid through the orchestrator inline (journaled
        n_jobs=1) and over a pool (n_jobs=2) reports identical integer
        counters; a counter only the row function knows reaches the
        metadata from the pool workers."""
        points = [{"kind": "capacity", "lam": lam} for lam in (2e-5, 4e-5, 6e-5)]
        points.append({"kind": "vector", "seed": 11})

        def run(runner):
            clear_capacity_caches()
            return runner.run(
                experiment_id="one-source",
                title="one source",
                headers=["kind"],
                row_fn=_counted_row,
                points=points,
                affinity=_counted_affinity,
            )

        pooled = run(SweepRunner(n_jobs=2, steal=False))
        assert _PROBE not in obs.snapshot()  # only the workers counted
        assert pooled.metadata["counters"][_PROBE] == len(points)
        inline = run(SweepRunner(n_jobs=1, journal=str(tmp_path / "j.jsonl")))
        assert inline.rows == pooled.rows

        def integers(counters):
            return {k: v for k, v in counters.items() if isinstance(v, int)}

        def floats(counters):
            return {k for k, v in counters.items() if isinstance(v, float)}

        mine, theirs = inline.metadata, pooled.metadata
        ints = integers(mine["counters"])
        assert ints[_PROBE] == len(points)
        assert ints["capacity.solver.direct"] + ints["capacity.solver.iterative"] == 3
        assert ints["vector.replications"] == ints["vector.fallbacks"] == 40
        for key in set(ints) | set(integers(theirs["counters"])):
            assert ints.get(key, 0) == theirs["counters"].get(key, 0), key
        assert floats(mine["counters"]) == floats(theirs["counters"])
        assert mine["solver_stats"] == theirs["solver_stats"]
        assert mine["vector_stats"] == theirs["vector_stats"]
        assert mine["vector_stats"]["fallback_fraction"] == 1.0
        for name in ("capacity-distribution", "capacity-unfold", "capacity-assemble"):
            for kind in ("hits", "misses", "evictions"):
                assert (
                    mine["cache_stats"][name][kind]
                    == theirs["cache_stats"][name][kind]
                ), (name, kind)
        assert mine["cache_stats"]["capacity-distribution"]["misses"] == 3
        assert set(inline.timings) == set(pooled.timings)
        assert pooled.timings["batch_vector_fallback"] > 0.0
