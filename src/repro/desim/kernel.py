"""Discrete-event simulation kernel.

A minimal, deterministic event loop: events are ``(time, sequence)``
ordered (FIFO among simultaneous events), cancellable, and carry plain
callbacks.  The OAQ protocol simulation and the plane-degradation
process run on this kernel.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = ["Event", "Simulator"]


class Event:
    """A scheduled callback.  Returned by :meth:`Simulator.schedule` so
    the caller can cancel it (e.g. a protocol timer).

    ``priority`` breaks ties between events at the same timestamp:
    lower values run first (message deliveries use -1 so a notification
    arriving exactly at a timer's deadline is processed before the
    timer -- the strict inequality of the paper's wait condition).
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "cancelled")

    def __init__(
        self, time: float, priority: int, seq: int, callback: Callable, args: tuple
    ):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing (idempotent)."""
        self.cancelled = True

    def __repr__(self) -> str:
        status = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, {status}, {self.callback!r})"


class Simulator:
    """The event loop.

    Time is a float in whatever unit the scenario chooses (the OAQ
    protocol uses minutes, matching the paper's QoS model).
    """

    def __init__(self, *, start_time: float = 0.0):
        self._start_time = start_time
        self.now = start_time
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._seq = itertools.count()
        self._processed = 0

    def reset(self) -> None:
        """Return the kernel to its just-constructed state: the clock
        back at the start time, the event queue empty, and the
        tie-breaking sequence counter restarted (so a replayed scenario
        schedules events with the same ``(time, priority, seq)`` keys as
        a fresh kernel would).  Used by the batched replication engine
        (:mod:`repro.simulation.batch`) to reuse one kernel across many
        scenario replications."""
        self.now = self._start_time
        self._heap.clear()
        self._seq = itertools.count()
        self._processed = 0

    @property
    def events_processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    @property
    def pending(self) -> int:
        """Number of events still queued (including cancelled ones not
        yet discarded)."""
        return len(self._heap)

    def schedule(
        self, delay: float, callback: Callable, *args: Any, priority: int = 0
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` from now."""
        # Written as "not >=" so NaN is rejected too: a NaN key would
        # corrupt the heap order.
        if not delay >= 0:
            raise ConfigurationError(f"delay must be >= 0, got {delay}")
        # Push directly: a non-negative delay can never land in the
        # past, so the at() guard is redundant on this (hot) path.
        event = Event(
            self.now + delay, priority, next(self._seq), callback, args
        )
        heapq.heappush(self._heap, (event.time, event.priority, event.seq, event))
        return event

    def at(
        self, time: float, callback: Callable, *args: Any, priority: int = 0
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute ``time``."""
        if not time >= self.now:
            raise ConfigurationError(
                f"cannot schedule in the past (now={self.now}, requested {time})"
            )
        event = Event(time, priority, next(self._seq), callback, args)
        heapq.heappush(self._heap, (event.time, event.priority, event.seq, event))
        return event

    def step(self) -> bool:
        """Run the next pending event.  Returns False when the queue is
        empty."""
        while self._heap:
            _, _, _, event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self.now = event.time
            self._processed += 1
            event.callback(*event.args)
            return True
        return False

    def run(self, *, max_events: Optional[int] = None) -> None:
        """Run until the queue drains (or ``max_events`` is reached)."""
        count = 0
        while self.step():
            count += 1
            if max_events is not None and count >= max_events:
                return

    def run_until(
        self, time: float, *, stop: Optional[Callable[[], bool]] = None
    ) -> None:
        """Run all events scheduled at or before ``time``; afterwards
        ``now`` equals ``time``.

        ``stop`` is an optional predicate evaluated after each event; a
        truthy return abandons the run immediately (``now`` stays at the
        last executed event's time).  The batched replication engine
        uses it to cut a run short once the outcome is decided.
        """
        if not time >= self.now:
            raise ConfigurationError(
                f"cannot run backwards (now={self.now}, requested {time})"
            )
        heap = self._heap
        while heap:
            # Discard cancelled events lazily before consulting the head
            # timestamp: a cancelled event with an early time must not
            # admit a step() that would execute the next *live* event
            # beyond the horizon.
            while heap and heap[0][3].cancelled:
                heapq.heappop(heap)
            if not heap or heap[0][0] > time:
                break
            self.step()
            if stop is not None and stop():
                return
        self.now = time
