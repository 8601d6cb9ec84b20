"""Memoized + parallel experiment evaluation engine.

Every sweep/figure experiment is a grid of independent points, and the
expensive part of each point -- the SAN capacity solve -- depends only
on ``(CapacityModelConfig, stages)``.  :class:`SweepRunner` exploits
both facts:

* **Shared solves** named in ``presolve`` are computed once in the
  parent process through the memoized
  :func:`~repro.analytic.capacity.capacity_distribution` before any
  point is evaluated, so a ``tau``/``mu`` sweep performs exactly one
  capacity solve for its whole grid (asserted by the engine tests via
  the cache counters).
* **Fan-out**: with ``n_jobs > 1`` the grid is evaluated through the
  affinity-sharded campaign orchestrator
  (:class:`repro.campaign.CampaignRunner`): points are grouped into
  chunks by an optional ``affinity`` key, each chunk is pickled and
  submitted *once* (not once per point), executes consecutively on one
  worker seeded with the parent's solved-distribution cache, and is
  state-isolated at its boundaries.  ``n_jobs=1`` (the default) runs
  sequentially in-process with no pool overhead, and ``n_jobs=-1``
  uses one worker per CPU.
* **Determinism**: rows come back in grid order regardless of worker
  completion order, and chunk-level state isolation makes every row a
  pure function of its chunk, so parallel and sequential runs produce
  identical :class:`~repro.experiments.report.ExperimentResult`
  tables -- including across checkpoint/resume (pass ``journal=``) and
  worker-loss retries.  See ``docs/CAMPAIGN.md``.

* **Shared structure**: configs named in ``preassemble`` have their
  capacity *topology* assembled once up front
  (:func:`~repro.analytic.capacity.assemble_capacity_topology`); the
  per-point solves then re-rate that structure instead of regenerating
  the state space, and warm-start each steady-state solve from the
  previous point's solution.

Every run records one :mod:`repro.obs` counter delta -- the parent's
plus, for campaign runs, the deltas its pool workers shipped home --
as ``ExperimentResult.metadata["counters"]``.  The other diagnostics
are projections of it: ``ExperimentResult.timings`` (the engine's own
``capacity_presolve``/``rows``/``total`` plus the capacity and batch
stage seconds), and the ``solver_stats``, ``vector_stats`` and
``cache_stats`` metadata entries.  See ``docs/SAN_ENGINE.md`` for the
user guide and ``docs/CAMPAIGN.md`` ("Counters") for the registry.
"""

from __future__ import annotations

import math
import os
import time
from contextlib import contextmanager
from dataclasses import asdict
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro import obs
from repro.analytic.capacity import (
    CapacityModelConfig,
    assemble_capacity_topology,
    capacity_distribution,
)
from repro.analytic.solve_cache import CacheStats, cache_stats
from repro.campaign import CampaignResult, CampaignRunner
from repro.errors import ConfigurationError
from repro.experiments.report import ExperimentResult

__all__ = ["SweepRunner", "evaluate_grid"]

#: A sweep point is a plain mapping of parameter name -> value; it must
#: be picklable for the process-pool path.
Point = Mapping[str, object]
RowFn = Callable[[Point], Dict[str, object]]


@contextmanager
def _stage(timings: Dict[str, float], name: str):
    start = time.perf_counter()
    try:
        yield
    finally:
        timings[name] = timings.get(name, 0.0) + time.perf_counter() - start


class SweepRunner:
    """Evaluate experiment grids with shared solves and optional
    affinity-sharded process-pool parallelism.

    Parameters
    ----------
    n_jobs:
        ``1`` evaluates sequentially in-process (no pool, no pickling);
        ``> 1`` fans affinity chunks out over that many worker
        processes; ``-1`` means one worker per available CPU.
    journal:
        Optional path of a chunk-granular JSONL checkpoint journal
        (see :mod:`repro.campaign`).  Setting it routes even
        ``n_jobs=1`` runs through the orchestrator so they checkpoint
        and resume; an existing journal must fingerprint-match the
        grid.
    chunk_size:
        Optional cap on points per chunk.  Default: unlimited when an
        ``affinity`` key is supplied to :meth:`map_rows` (one chunk per
        affinity group -- the bit-stable plan), else
        ``ceil(len(points) / workers)`` contiguous blocks.
    steal:
        Let idle workers speculatively re-execute straggler chunks.
    retries:
        Re-attempts (from a fresh state reset) for a chunk whose
        evaluator raised, before the exception propagates.
    """

    def __init__(
        self,
        n_jobs: int = 1,
        *,
        journal: Optional[str] = None,
        chunk_size: Optional[int] = None,
        steal: bool = True,
        retries: int = 1,
    ):
        if n_jobs == -1:
            n_jobs = os.cpu_count() or 1
        if not isinstance(n_jobs, int) or n_jobs < 1:
            raise ConfigurationError(
                f"n_jobs must be a positive int or -1, got {n_jobs!r}"
            )
        self.n_jobs = n_jobs
        self.journal = journal
        self.chunk_size = chunk_size
        self.steal = steal
        self.retries = retries
        #: The :class:`repro.campaign.CampaignResult` of the last
        #: :meth:`map_rows` call that went through the orchestrator
        #: (``None`` after a plain sequential pass).
        self.last_campaign: Optional[CampaignResult] = None

    # ------------------------------------------------------------------
    # Shared capacity solves
    # ------------------------------------------------------------------
    @staticmethod
    def preassemble_capacity(
        keys: Iterable[Tuple[CapacityModelConfig, int]],
    ) -> int:
        """Assemble each distinct capacity *topology* once (memoized).

        Rate sweeps share one assembled structure across all their
        points; assembling it up front means every point -- including
        the first -- goes through the cheap re-rate path.  Configs that
        differ only in rate parameters collapse onto one topology key,
        so passing every grid config is fine.  Returns the number of
        distinct ``(config, stages)`` keys passed (not topologies).
        """
        distinct = list(dict.fromkeys(keys))
        for config, stages in distinct:
            assemble_capacity_topology(config, stages=stages)
        return len(distinct)

    @staticmethod
    def presolve_capacity(
        keys: Iterable[Tuple[CapacityModelConfig, int]],
    ) -> int:
        """Solve each distinct ``(config, stages)`` once (memoized).

        Returns the number of distinct keys.  Call this with the
        configs that are shared by *multiple* grid points; per-point
        configs are better solved inside the point evaluation (in
        parallel mode that keeps them on the workers).
        """
        distinct = list(dict.fromkeys(keys))
        for config, stages in distinct:
            capacity_distribution(config, stages=stages)
        return len(distinct)

    # ------------------------------------------------------------------
    # Grid evaluation
    # ------------------------------------------------------------------
    def map_rows(
        self,
        row_fn: RowFn,
        points: Sequence[Point],
        *,
        affinity: Optional[Callable[[Point], object]] = None,
    ) -> List[Dict[str, object]]:
        """``[row_fn(p) for p in points]``, possibly in parallel, with
        the sequential ordering guaranteed either way.

        ``affinity`` maps a point to a hashable key; points sharing a
        key execute consecutively on one worker (in grid order), so
        cells sharing a SAN topology take the assemble-cache /
        warm-start / re-rate fast path instead of rebuilding per point.
        """
        points = list(points)
        self.last_campaign = None
        if not points:
            return []
        if (self.n_jobs == 1 or len(points) == 1) and self.journal is None:
            return [dict(row_fn(point)) for point in points]

        chunk_size = self.chunk_size
        if chunk_size is None and affinity is None:
            # No locality structure declared: contiguous blocks, one
            # per worker, keep submission overhead at O(workers).
            workers = min(self.n_jobs, len(points))
            chunk_size = math.ceil(len(points) / workers)
        runner = CampaignRunner(
            self.n_jobs,
            journal=self.journal,
            max_chunk_size=chunk_size,
            steal=self.steal,
            retries=self.retries,
        )
        campaign = runner.run(row_fn, points, affinity=affinity)
        self.last_campaign = campaign
        return [dict(row) for row in campaign.rows]

    def run(
        self,
        *,
        experiment_id: str,
        title: str,
        headers: Sequence[str],
        row_fn: RowFn,
        points: Sequence[Point],
        notes: Sequence[str] = (),
        presolve: Iterable[Tuple[CapacityModelConfig, int]] = (),
        preassemble: Iterable[Tuple[CapacityModelConfig, int]] = (),
        affinity: Optional[Callable[[Point], object]] = None,
    ) -> ExperimentResult:
        """Presolve shared configs, evaluate the grid, and package the
        rows -- with stage timings -- as an :class:`ExperimentResult`.

        ``preassemble`` names configs whose *topology* should be
        assembled before solving starts (rate sweeps: pass one config
        per distinct topology).  The assembled structure is then
        re-rated per point instead of regenerated.  ``affinity`` is
        forwarded to :meth:`map_rows` for campaign runs.

        ``metadata["counters"]`` is the run's :mod:`repro.obs` counter
        delta, including the deltas campaign runs' pool workers ship
        home, so the totals hold at any ``n_jobs``.  Projections of it:

        * ``timings``: the capacity stages (``assemble``, ``refine``,
          ``quotient``, ``rerate``, ``solve``) and the replication
          stages as ``batch_<stage>`` (``template``, ``replicate``,
          ``run``, ``vector``, ``vector_fallback``);
        * ``metadata["solver_stats"]``: the capacity solver counters
          (solve methods, ``structure_fallbacks``, ...);
        * ``metadata["vector_stats"]``: vector-engine calls,
          replications and oracle fallbacks, with the run's
          ``fallback_fraction``;
        * ``metadata["cache_stats"]``: per live solve cache, the run's
          ``hits``/``misses``/``evictions`` and their ``hit_rate``,
          with ``size``/``maxsize`` read at the end of the run.

        Campaign runs also record the orchestrator's scheduling
        statistics (chunks, resumed, stolen, retried, pool restarts)
        in ``metadata["campaign"]``.
        """
        timings: Dict[str, float] = {}
        before = obs.snapshot()
        with _stage(timings, "total"):
            with _stage(timings, "capacity_presolve"):
                self.preassemble_capacity(preassemble)
                self.presolve_capacity(presolve)
            with _stage(timings, "rows"):
                rows = self.map_rows(row_fn, points, affinity=affinity)
        campaign = self.last_campaign
        counters = obs.delta(before, obs.snapshot())
        if campaign is not None:
            counters = obs.merge(counters, campaign.worker_counters())
        timings.update(obs.section(counters, "capacity.stage."))
        for stage, seconds in obs.section(counters, "batch.").items():
            timings[f"batch_{stage}"] = seconds
        vector = obs.section(counters, "vector.")
        vector["fallback_fraction"] = (
            vector["fallbacks"] / vector["replications"]
            if vector["replications"]
            else 0.0
        )
        cache = {}
        for name, now in cache_stats().items():
            run = CacheStats(
                hits=counters.get(f"cache.{name}.hits", 0),
                misses=counters.get(f"cache.{name}.misses", 0),
                evictions=counters.get(f"cache.{name}.evictions", 0),
                size=now.size,
                maxsize=now.maxsize,
            )
            cache[name] = {**asdict(run), "hit_rate": run.hit_rate}
        metadata: Dict[str, object] = {
            "counters": counters,
            "solver_stats": obs.section(counters, "capacity.solver."),
            "cache_stats": cache,
            "vector_stats": vector,
        }
        if campaign is not None:
            metadata["campaign"] = {
                **campaign.stats,
                "fingerprint": campaign.fingerprint,
            }
        return ExperimentResult(
            experiment_id=experiment_id,
            title=title,
            headers=list(headers),
            rows=rows,
            notes=list(notes),
            timings=timings,
            metadata=metadata,
        )


def evaluate_grid(
    row_fn: RowFn,
    points: Sequence[Point],
    *,
    n_jobs: int = 1,
    presolve: Iterable[Tuple[CapacityModelConfig, int]] = (),
) -> List[Dict[str, object]]:
    """Functional shorthand: presolve shared configs, then map the grid
    through a :class:`SweepRunner`."""
    runner = SweepRunner(n_jobs=n_jobs)
    runner.presolve_capacity(presolve)
    return runner.map_rows(row_fn, points)
