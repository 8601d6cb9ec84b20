"""One process-local registry of named numeric counters.

Every layer that counts or times its own work -- the capacity solver
(``capacity.stage.*`` seconds, ``capacity.solver.*`` counts), the
batched replication engine (``batch.*`` seconds) and the vector engine
(``vector.*`` counts) -- adds to this one registry.  A timer is a
counter that accumulates seconds.  :func:`snapshot` also folds in the
hit/miss/eviction counters of every live
:class:`~repro.analytic.solve_cache.LRUSolveCache` as
``cache.<cache name>.<field>``; those stay per cache instance.

Callers that want the work of one run, one chunk or one cell take a
:func:`snapshot` before and after and keep the :func:`delta`.  Deltas
are plain picklable dicts: the campaign orchestrator ships one per
chunk home from its pool workers and :func:`merge` sums them, so a new
counter reaches run metadata with a single :func:`add` call.  See
``docs/CAMPAIGN.md`` ("Counters").
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, Mapping

__all__ = [
    "add",
    "declare",
    "delta",
    "merge",
    "reset",
    "section",
    "snapshot",
    "timed",
]

_LOCK = threading.Lock()
_COUNTERS: Dict[str, float] = {}


def add(name: str, value: float = 1) -> None:
    """Add ``value`` to counter ``name`` (created at zero on first use).
    One lock acquisition and one dict update: safe on hot paths."""
    with _LOCK:
        _COUNTERS[name] = _COUNTERS.get(name, 0) + value


def declare(prefix: str, names: Iterable[str], zero: float = 0) -> None:
    """Create the counters ``prefix + name`` at ``zero`` unless they
    exist, so snapshots list a layer's counters before their first use
    (``zero`` also fixes the type: ``0`` counts, ``0.0`` seconds)."""
    with _LOCK:
        for name in names:
            _COUNTERS.setdefault(prefix + name, zero)


@contextmanager
def timed(name: str) -> Iterator[None]:
    """Add the block's wall-clock seconds to ``name``, also when the
    block raises."""
    start = time.perf_counter()
    try:
        yield
    finally:
        add(name, time.perf_counter() - start)


def snapshot() -> Dict[str, float]:
    """Every counter's current value, plus the live solve caches'
    ``cache.<name>.hits`` / ``.misses`` / ``.evictions``."""
    # Imported here: repro.analytic imports this module.
    from repro.analytic.solve_cache import cache_stats

    with _LOCK:
        counters = dict(_COUNTERS)
    for name, stats in cache_stats().items():
        counters[f"cache.{name}.hits"] = stats.hits
        counters[f"cache.{name}.misses"] = stats.misses
        counters[f"cache.{name}.evictions"] = stats.evictions
    return counters


def delta(before: Mapping[str, float], after: Mapping[str, float]) -> Dict[str, float]:
    """``after - before`` per counter of ``after`` (a counter missing
    from ``before`` counts from zero)."""
    return {name: value - before.get(name, 0) for name, value in after.items()}


def merge(*counters: Mapping[str, float]) -> Dict[str, float]:
    """The per-name sum of several snapshots or deltas."""
    total: Dict[str, float] = {}
    for mapping in counters:
        for name, value in mapping.items():
            total[name] = total.get(name, 0) + value
    return total


def section(counters: Mapping[str, float], prefix: str) -> Dict[str, float]:
    """The counters under ``prefix``, keyed by the rest of their name."""
    cut = len(prefix)
    return {
        name[cut:]: value
        for name, value in counters.items()
        if name.startswith(prefix)
    }


def reset(prefix: str = "") -> None:
    """Zero every counter under ``prefix`` (names and types are kept;
    solve-cache counters are reset through their caches)."""
    with _LOCK:
        for name, value in _COUNTERS.items():
            if name.startswith(prefix):
                _COUNTERS[name] = 0.0 if isinstance(value, float) else 0
