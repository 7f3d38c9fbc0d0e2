"""Deterministic discrete-event engine.

Design constraints:

- **Determinism** — events at equal virtual times fire in scheduling order
  (a monotone sequence number breaks ties), so a run is a pure function of
  its inputs and seed.  The paper's COV analysis is reproduced by perturbing
  the cost model with a seeded RNG, not by nondeterministic execution.
- **Throughput** — a fine-grained sweep executes hundreds of thousands of
  simulated tasks; the hot path is ``heapq`` push/pop of plain tuples with no
  allocation beyond the tuple itself (guides: profile first, keep the inner
  loop allocation-light).  ``run`` and ``run_until`` pause the cyclic
  garbage collector (:mod:`repro.collector`), which would otherwise walk
  the whole live task graph again and again.
"""

from __future__ import annotations

import heapq
from typing import Callable

from repro.collector import paused


class Event:
    """Handle for a scheduled callback; allows O(1) logical cancellation."""

    __slots__ = ("callback", "cancelled")

    def __init__(self, callback: Callable[[], None]):
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event dead; it is skipped (and dropped) when popped."""
        self.cancelled = True


class Simulator:
    """Virtual-time event loop.

    Time is integer nanoseconds.  ``run()`` drains the heap; ``run_until``
    stops the clock at a deadline (events beyond it stay queued).
    """

    __slots__ = ("now", "_heap", "_seq")

    def __init__(self) -> None:
        self.now: int = 0
        self._heap: list[tuple[int, int, Event]] = []
        self._seq: int = 0

    def schedule(self, delay_ns: int, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to fire ``delay_ns`` after the current time."""
        if delay_ns < 0:
            raise ValueError(f"negative delay {delay_ns}")
        return self.schedule_at(self.now + delay_ns, callback)

    def schedule_at(self, time_ns: int, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute virtual time ``time_ns``."""
        if time_ns < self.now:
            raise ValueError(
                f"cannot schedule in the past: {time_ns} < now {self.now}"
            )
        self._seq += 1
        event = Event(callback)
        heapq.heappush(self._heap, (time_ns, self._seq, event))
        return event

    def pending_events(self) -> int:
        """Number of not-yet-fired, not-cancelled events.

        Counts by scanning the heap (cancellation is logical, so the queue
        may hold dead entries); diagnostic use only, not a hot path.
        """
        return sum(1 for _t, _s, e in self._heap if not e.cancelled)

    @paused()
    def run(self) -> int:
        """Drain the event heap; returns the number of events fired."""
        heap = self._heap
        fired = 0
        while heap:
            time_ns, _seq, event = heapq.heappop(heap)
            if event.cancelled:
                continue
            self.now = time_ns
            event.callback()
            fired += 1
        return fired

    @paused()
    def run_until(self, deadline_ns: int) -> int:
        """Fire events with time <= deadline, then set the clock to it."""
        heap = self._heap
        fired = 0
        while heap and heap[0][0] <= deadline_ns:
            time_ns, _seq, event = heapq.heappop(heap)
            if event.cancelled:
                continue
            self.now = time_ns
            event.callback()
            fired += 1
        if deadline_ns > self.now:
            self.now = deadline_ns
        return fired
