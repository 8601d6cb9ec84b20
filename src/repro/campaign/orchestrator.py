"""Chunk-sharded campaign execution with state isolation.

:class:`CampaignRunner` executes a planned campaign -- see
:func:`repro.campaign.planner.plan_chunks` -- inline or over a process
pool.  The determinism contract rests on one mechanism, **chunk-level
state isolation**: before a chunk executes (on any worker, on any
attempt), the process-local capacity caches are cleared and re-seeded
with the snapshot taken when the campaign started.  Each chunk's rows
are therefore a pure function of ``(snapshot, chunk points, in-chunk
order)``: scheduling, worker count, speculative duplicate execution,
worker-loss retry and checkpoint/resume all merge to byte-identical
results, verified by SHA-256 digests over the pickled row payloads.

Fault tolerance:

* **Checkpointing**: with a :class:`~repro.campaign.journal.
  CampaignJournal`, every completed chunk is journaled with its pickled
  rows; a rerun against the same grid skips completed chunks and
  replays their recorded payloads.
* **Worker loss**: a ``BrokenProcessPool`` (worker killed by the OS,
  segfault, OOM) rebuilds the pool and resubmits every incomplete
  chunk, up to ``pool_restarts`` times.
* **Evaluator errors**: a chunk raising an exception is retried
  ``retries`` times from a fresh state reset; a deterministic failure
  exhausts its retries and propagates as the original exception.
* **Stragglers**: once every chunk is in flight, idle workers
  speculatively re-execute outstanding chunks (work stealing); the
  first completion wins and any late duplicate must match its digest.

``isolate=False`` disables the per-chunk reset (workers then behave
like the legacy per-point pool, accumulating state across whatever
chunks they happen to receive) -- results remain correct but are no
longer bit-reproducible across worker counts; it exists for the
benchmark's legacy-emulation baseline.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.analytic.capacity import (
    capacity_cache_snapshot,
    clear_capacity_caches,
    seed_capacity_cache,
)
from repro.campaign.journal import CampaignJournal, payload_digest
from repro.campaign.planner import Chunk, grid_fingerprint, plan_chunks
from repro.errors import CampaignError, ConfigurationError

__all__ = ["CampaignResult", "CampaignRunner", "ChunkOutcome"]


def _capacity_cache_deltas(counters) -> Dict[str, Dict[str, int]]:
    """The capacity caches' hit/miss counters in ``counters``, keyed
    like :func:`~repro.analytic.capacity.capacity_cache_stats`."""
    caches: Dict[str, Dict[str, int]] = {}
    for name, value in obs.section(counters, "cache.capacity-").items():
        cache, _, kind = name.rpartition(".")
        if kind in ("hits", "misses"):
            caches.setdefault(cache, {})[kind] = value
    return caches


@dataclass
class ChunkOutcome:
    """What happened to one chunk: its merged-in rows, the digest of
    their pickled form, and ``counters``, the :mod:`repro.obs` counter
    delta sampled around the chunk's execution (empty for resumed
    chunks).  ``in_worker`` marks deltas that happened in a pool
    worker, outside the parent's own registry (inline execution is
    already counted by the parent; adding it again would double
    count)."""

    chunk_id: int
    affinity: str
    rows: List[object]
    digest: str
    seconds: float
    source: str  # "executed" | "resumed" | "stolen"
    in_worker: bool
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def batch_timings(self) -> Dict[str, float]:
        """Replication-stage seconds of this chunk."""
        return obs.section(self.counters, "batch.")

    @property
    def cache_deltas(self) -> Dict[str, Dict[str, int]]:
        """Capacity-cache hit/miss deltas of this chunk."""
        return _capacity_cache_deltas(self.counters)


#: :meth:`CampaignResult.worker_counter_sums` kinds -> counter prefix.
_COUNTER_KINDS = {"solver_stats": "capacity.solver.", "vector_stats": "vector."}


@dataclass
class CampaignResult:
    """Merged campaign output: ``rows[i]`` is the evaluator's result
    for ``points[i]`` (grid order, independent of execution order)."""

    rows: List[object]
    chunks: List[ChunkOutcome]
    fingerprint: str
    stats: Dict[str, object]

    def worker_counters(self) -> Dict[str, float]:
        """Summed counter deltas of the chunks executed inside pool
        workers (inline chunks excluded -- the parent's registry
        already saw those)."""
        return obs.merge(*(c.counters for c in self.chunks if c.in_worker))

    def worker_stage_timings(self) -> Dict[str, float]:
        """Summed capacity-stage seconds spent inside pool workers."""
        return obs.section(self.worker_counters(), "capacity.stage.")

    def worker_batch_timings(self) -> Dict[str, float]:
        """Summed replication-stage seconds spent inside pool workers."""
        return obs.section(self.worker_counters(), "batch.")

    def worker_counter_sums(self, kind: str) -> Dict[str, float]:
        """Summed worker-side counter deltas: ``kind`` is
        ``"solver_stats"`` or ``"vector_stats"``."""
        return obs.section(self.worker_counters(), _COUNTER_KINDS[kind])

    def cache_counter_sums(self) -> Dict[str, Dict[str, int]]:
        """Summed capacity-cache hit/miss deltas across *all* executed
        chunks (inline included -- counters are sampled around each
        chunk either way), the benchmark's locality evidence."""
        merged = obs.merge(*(c.counters for c in self.chunks))
        return _capacity_cache_deltas(merged)


# ----------------------------------------------------------------------
# Worker-side machinery (module level: must be picklable by reference)
# ----------------------------------------------------------------------

_WORKER_SNAPSHOT: Optional[object] = None
_WORKER_ISOLATE: bool = True


def _campaign_worker_init(entries, isolate: bool) -> None:
    """Pool initializer: remember the campaign's cache snapshot and
    seed it once (the non-isolated mode keeps this warm state and
    accumulates on top, exactly like the legacy per-point pool)."""
    global _WORKER_SNAPSHOT, _WORKER_ISOLATE
    _WORKER_SNAPSHOT = entries
    _WORKER_ISOLATE = isolate
    seed_capacity_cache(entries)


def _reset_to_snapshot(entries) -> None:
    """The isolation step: forget everything this process accumulated
    and restore the campaign's initial cache contents."""
    clear_capacity_caches()
    seed_capacity_cache(entries)


def _execute_chunk(row_fn, chunk_points: Sequence[object]):
    """Evaluate one chunk's points consecutively, in grid order."""
    return [row_fn(point) for point in chunk_points]


def _pool_chunk_task(payload):
    """Top-level (hence picklable) per-chunk pool task.

    Resets the worker to the campaign snapshot (unless the campaign
    disabled isolation), runs the chunk, and returns the *pickled* row
    list -- the parent digests exactly these bytes, so digest equality
    means byte equality of the payload the merge consumes -- plus the
    worker-side counter deltas for the chunk.
    """
    row_fn, chunk_id, attempt, chunk_points = payload
    if _WORKER_ISOLATE:
        _reset_to_snapshot(_WORKER_SNAPSHOT)
    before = obs.snapshot()
    start = time.perf_counter()
    rows = _execute_chunk(row_fn, chunk_points)
    seconds = time.perf_counter() - start
    counters = obs.delta(before, obs.snapshot())
    return chunk_id, attempt, pickle.dumps(rows), seconds, counters


class CampaignRunner:
    """Execute a grid of independent points as affinity-keyed chunks.

    Parameters
    ----------
    n_jobs:
        ``1`` executes chunks inline (no pool; still chunked,
        state-isolated and journalable -- this is the single-process
        reference every parallel run is byte-identical to); ``> 1``
        fans chunks out over that many worker processes; ``-1`` uses
        one worker per CPU.
    journal:
        Path of the JSONL checkpoint journal.  If the file exists it
        must fingerprint-match the requested grid (else
        :class:`~repro.errors.ConfigurationError`); completed chunks
        are replayed from it instead of re-executed.
    max_chunk_size:
        Optional cap on chunk size (splits oversized affinity groups;
        see :func:`~repro.campaign.planner.plan_chunks` for the
        bit-stability caveat).
    steal:
        Speculatively re-execute outstanding chunks on idle workers
        once everything is in flight (pool mode only).
    retries:
        How many times a chunk whose evaluator raised is re-attempted
        (from a fresh state reset) before the exception propagates.
    pool_restarts:
        How many ``BrokenProcessPool`` recoveries to attempt before
        giving up with :class:`~repro.errors.CampaignError`.
    isolate:
        Reset worker state at every chunk boundary (the determinism
        mechanism).  Disable only for legacy-emulation baselines.
    """

    def __init__(
        self,
        n_jobs: int = 1,
        *,
        journal: Optional[str] = None,
        max_chunk_size: Optional[int] = None,
        steal: bool = True,
        retries: int = 1,
        pool_restarts: int = 3,
        isolate: bool = True,
    ):
        if n_jobs == -1:
            n_jobs = os.cpu_count() or 1
        if not isinstance(n_jobs, int) or n_jobs < 1:
            raise ConfigurationError(
                f"n_jobs must be a positive int or -1, got {n_jobs!r}"
            )
        self.n_jobs = n_jobs
        self.journal_path = journal
        self.max_chunk_size = max_chunk_size
        self.steal = steal
        self.retries = retries
        self.pool_restarts = pool_restarts
        self.isolate = isolate

    # ------------------------------------------------------------------
    def run(
        self,
        row_fn: Callable[[object], object],
        points: Sequence[object],
        *,
        affinity: Optional[Callable[[object], object]] = None,
        seed: Optional[int] = None,
        on_chunk: Optional[Callable[[ChunkOutcome], None]] = None,
    ) -> CampaignResult:
        """Plan, execute and merge the campaign.

        ``on_chunk`` is invoked in the parent after each chunk lands
        (journal record already durable), in completion order -- a
        progress hook, and the test suite's crash-injection point.
        """
        points = list(points)
        chunks = plan_chunks(
            points,
            affinity=affinity,
            max_chunk_size=self.max_chunk_size,
            seed=seed,
        )
        fingerprint = grid_fingerprint(points, chunks)
        stats: Dict[str, object] = {
            "chunks": len(chunks),
            "points": len(points),
            "affinity_groups": len({c.affinity.split("#")[0] for c in chunks}),
            "workers": 1 if self.n_jobs == 1 else min(self.n_jobs, len(chunks)),
            "submissions": 0,
            "executed": 0,
            "resumed": 0,
            "stolen": 0,
            "retried": 0,
            "pool_restarts": 0,
        }
        journal: Optional[CampaignJournal] = None
        outcomes: Dict[int, ChunkOutcome] = {}
        try:
            if self.journal_path is not None:
                journal = CampaignJournal(self.journal_path)
                for chunk_id, (digest, payload) in journal.open(
                    fingerprint, chunks
                ).items():
                    outcomes[chunk_id] = ChunkOutcome(
                        chunk_id=chunk_id,
                        affinity=chunks[chunk_id].affinity,
                        rows=pickle.loads(payload),
                        digest=digest,
                        seconds=0.0,
                        source="resumed",
                        in_worker=False,
                    )
                stats["resumed"] = len(outcomes)
            pending = [c for c in chunks if c.chunk_id not in outcomes]
            if pending:
                if self.n_jobs == 1 or len(pending) == 1:
                    self._run_inline(
                        row_fn, pending, outcomes, stats, journal, on_chunk
                    )
                else:
                    self._run_pool(
                        row_fn, pending, outcomes, stats, journal, on_chunk
                    )
        finally:
            if journal is not None:
                journal.close()

        rows: List[object] = [None] * len(points)
        for chunk in chunks:
            outcome = outcomes[chunk.chunk_id]
            for position, index in enumerate(chunk.indices):
                rows[index] = outcome.rows[position]
        return CampaignResult(
            rows=rows,
            chunks=[outcomes[c.chunk_id] for c in chunks],
            fingerprint=fingerprint,
            stats=stats,
        )

    # ------------------------------------------------------------------
    def _run_inline(
        self,
        row_fn,
        pending: List[Chunk],
        outcomes: Dict[int, ChunkOutcome],
        stats: Dict[str, object],
        journal: Optional[CampaignJournal],
        on_chunk,
    ) -> None:
        snapshot = capacity_cache_snapshot() if self.isolate else None
        for chunk in pending:
            attempt = 1
            while True:
                if journal is not None:
                    journal.lease(chunk.chunk_id, attempt)
                stats["submissions"] += 1
                if self.isolate:
                    _reset_to_snapshot(snapshot)
                before = obs.snapshot()
                start = time.perf_counter()
                try:
                    chunk_rows = _execute_chunk(row_fn, chunk.points)
                except Exception as error:
                    if journal is not None:
                        journal.fail(chunk.chunk_id, attempt, repr(error))
                    if attempt > self.retries:
                        raise
                    attempt += 1
                    stats["retried"] += 1
                    continue
                seconds = time.perf_counter() - start
                counters = obs.delta(before, obs.snapshot())
                payload = pickle.dumps(chunk_rows)
                outcome = self._record(
                    chunk,
                    attempt,
                    payload,
                    seconds,
                    counters,
                    in_worker=False,
                    source="executed",
                    outcomes=outcomes,
                    stats=stats,
                    journal=journal,
                )
                if on_chunk is not None:
                    on_chunk(outcome)
                break

    # ------------------------------------------------------------------
    def _run_pool(
        self,
        row_fn,
        pending: List[Chunk],
        outcomes: Dict[int, ChunkOutcome],
        stats: Dict[str, object],
        journal: Optional[CampaignJournal],
        on_chunk,
    ) -> None:
        snapshot = capacity_cache_snapshot()
        workers = min(self.n_jobs, len(pending))
        stats["workers"] = workers
        by_id = {chunk.chunk_id: chunk for chunk in pending}
        attempts: Dict[int, int] = {cid: 0 for cid in by_id}
        failures: Dict[int, int] = {cid: 0 for cid in by_id}
        restarts = 0

        def make_pool() -> ProcessPoolExecutor:
            return ProcessPoolExecutor(
                max_workers=workers,
                initializer=_campaign_worker_init,
                initargs=(snapshot, self.isolate),
            )

        def submit(pool, chunk: Chunk, *, speculative: bool) -> Future:
            attempts[chunk.chunk_id] += 1
            attempt = attempts[chunk.chunk_id]
            if journal is not None:
                journal.lease(chunk.chunk_id, attempt)
            stats["submissions"] += 1
            if speculative:
                stats["stolen"] += 1
            future = pool.submit(
                _pool_chunk_task,
                (row_fn, chunk.chunk_id, attempt, chunk.points),
            )
            return future

        pool = make_pool()
        inflight: Dict[Future, int] = {}
        try:
            for chunk in pending:
                inflight[submit(pool, chunk, speculative=False)] = chunk.chunk_id
            while any(cid not in outcomes for cid in by_id):
                # Work stealing: every chunk is in flight, so point idle
                # workers at duplicates of the stragglers.  Isolation
                # makes the duplicate's result identical by construction;
                # the digest check enforces it.
                if self.steal:
                    outstanding = sorted(
                        (cid for cid in by_id if cid not in outcomes),
                        key=lambda cid: attempts[cid],
                    )
                    idle = workers - len(inflight)
                    for cid in outstanding[: max(0, idle)]:
                        if attempts[cid] < 2:  # at most one speculative copy
                            inflight[submit(pool, by_id[cid], speculative=True)] = cid
                done, _ = wait(inflight, return_when=FIRST_COMPLETED)
                broken = False
                for future in done:
                    cid = inflight.pop(future)
                    if future.cancelled():
                        continue
                    try:
                        chunk_id, attempt, payload, seconds, counters = (
                            future.result()
                        )
                    except BrokenProcessPool:
                        broken = True
                        continue
                    except Exception as error:
                        if cid in outcomes:
                            continue  # a duplicate already landed this chunk
                        failures[cid] += 1
                        if journal is not None:
                            journal.fail(cid, attempts[cid], repr(error))
                        if failures[cid] > self.retries:
                            raise
                        stats["retried"] += 1
                        inflight[submit(pool, by_id[cid], speculative=False)] = cid
                        continue
                    existing = outcomes.get(chunk_id)
                    if existing is not None:
                        # Late duplicate from stealing: must agree.
                        late_digest = payload_digest(payload)
                        if late_digest != existing.digest:
                            raise CampaignError(
                                f"chunk {chunk_id} re-execution produced a "
                                f"different result ({late_digest[:12]} vs "
                                f"{existing.digest[:12]}); the evaluator is "
                                f"not deterministic under state isolation"
                            )
                        continue
                    outcome = self._record(
                        by_id[chunk_id],
                        attempt,
                        payload,
                        seconds,
                        counters,
                        in_worker=True,
                        source="stolen" if attempt > 1 else "executed",
                        outcomes=outcomes,
                        stats=stats,
                        journal=journal,
                    )
                    if on_chunk is not None:
                        on_chunk(outcome)
                if broken:
                    # A worker died (kill -9, OOM, segfault): every
                    # in-flight future is poisoned.  Rebuild the pool and
                    # resubmit whatever has not completed.
                    restarts += 1
                    stats["pool_restarts"] = restarts
                    if restarts > self.pool_restarts:
                        raise CampaignError(
                            f"campaign worker pool broke {restarts} times "
                            f"(limit {self.pool_restarts}); giving up"
                        )
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = make_pool()
                    inflight = {}
                    for cid in sorted(cid for cid in by_id if cid not in outcomes):
                        inflight[submit(pool, by_id[cid], speculative=False)] = cid
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------
    def _record(
        self,
        chunk: Chunk,
        attempt: int,
        payload: bytes,
        seconds: float,
        counters: Dict[str, float],
        *,
        in_worker: bool,
        source: str,
        outcomes: Dict[int, ChunkOutcome],
        stats: Dict[str, object],
        journal: Optional[CampaignJournal],
    ) -> ChunkOutcome:
        outcome = ChunkOutcome(
            chunk_id=chunk.chunk_id,
            affinity=chunk.affinity,
            rows=pickle.loads(payload),
            digest=payload_digest(payload),
            seconds=seconds,
            source=source,
            in_worker=in_worker,
            counters=counters,
        )
        outcomes[chunk.chunk_id] = outcome
        stats["executed"] += 1
        if journal is not None:
            journal.complete(
                chunk.chunk_id, payload, seconds=seconds, source=source
            )
        return outcome
