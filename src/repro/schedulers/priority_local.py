"""The Priority Local-FIFO scheduler — the policy used for every measurement
in the paper (Sec. I-B, Fig. 1).

Structure:

- one **normal-priority dual queue** (staged + pending FIFO) per worker;
- a configurable number of **high-priority dual queues** (default: one per
  worker, as in HPX); high-priority work is always checked first;
- one **low-priority queue** for the whole scheduler, "for threads that will
  be scheduled only when all other work has been done".

Work-finding order for worker *w* (paper Fig. 1, numbered 1-6, with the
priority queues around it):

  HP: w's high-priority pending, then staged
  1. w's own pending queue
  2. w's own staged queue
  3. staged queues of other workers in w's NUMA domain
  4. pending queues of other workers in w's NUMA domain
  5. staged queues of workers in remote NUMA domains
  6. pending queues of workers in remote NUMA domains
  HP of other workers (stealing high-priority work before going idle)
  LP: the global low-priority queue

Staged work is preferred when stealing because a thread *description* has no
context yet and is cheap to migrate between memory domains (Sec. I-B).
"""

from __future__ import annotations

from typing import Iterator

from repro.runtime.task import Priority, Task
from repro.schedulers.base import (
    FoundWork,
    SchedulingPolicy,
    WorkSource,
    fig1_search,
)
from repro.schedulers.queues import DualQueue


class PriorityLocalScheduler(SchedulingPolicy):
    """Priority Local scheduling policy over lock-free-FIFO-style queues."""

    name = "priority-local"

    def __init__(self, num_high_priority_queues: int | None = None) -> None:
        super().__init__()
        self._requested_hp_queues = num_high_priority_queues
        self._normal: list[DualQueue] = []
        self._high: list[DualQueue] = []
        self._low: DualQueue | None = None

    def _build_queues(self) -> None:
        n = self.num_workers
        hp = self._requested_hp_queues if self._requested_hp_queues is not None else n
        if not 1 <= hp <= n:
            raise ValueError(f"high-priority queue count {hp} outside 1..{n}")
        self._normal = [DualQueue() for _ in range(n)]
        self._high = [DualQueue() for _ in range(hp)]
        self._low = DualQueue()

    # -- producers -------------------------------------------------------------

    def _queue_for(self, task: Task, worker: int) -> DualQueue:
        if task.priority is Priority.HIGH:
            return self._high[worker % len(self._high)]
        if task.priority is Priority.LOW:
            assert self._low is not None
            return self._low
        return self._normal[worker]

    def _enqueue(self, task: Task, worker: int, *, pending: bool) -> None:
        queue = self._queue_for(task, worker)
        if pending:
            queue.push_pending(task)
        else:
            queue.push_staged(task)

    # -- consumer ----------------------------------------------------------------

    def _empty_search_probes(self) -> int:
        # Every normal and high-priority queue, and the low-priority one.
        return len(self._normal) + len(self._high) + 1

    def _search(self, worker: int) -> FoundWork | None:
        high = self._high

        # High-priority work owned by this worker comes first.
        if worker < len(high):
            hq = high[worker]
            task = hq.pop_pending()
            if task is not None:
                return FoundWork(task, WorkSource.HIGH_PRIORITY)
            task = hq.pop_staged()
            if task is not None:
                return FoundWork(task, WorkSource.HIGH_PRIORITY)

        # 1.-6. the Fig. 1 thread phase over the normal-priority queues.
        found = fig1_search(
            self._normal, worker, self._same_domain[worker], self._remote[worker]
        )
        if found is not None:
            return found

        # High-priority queues of other workers, before going idle.
        for i, hq in enumerate(high):
            if i == worker:
                continue
            task = hq.pop_pending()
            if task is not None:
                return FoundWork(task, WorkSource.HIGH_PRIORITY)
            task = hq.pop_staged()
            if task is not None:
                return FoundWork(task, WorkSource.HIGH_PRIORITY)

        # Low priority only when all other work has been done.
        assert self._low is not None
        task = self._low.pop_pending()
        if task is not None:
            return FoundWork(task, WorkSource.LOW_PRIORITY)
        task = self._low.pop_staged()
        if task is not None:
            return FoundWork(task, WorkSource.LOW_PRIORITY)
        return None

    # -- introspection -------------------------------------------------------------

    def queues(self) -> Iterator[DualQueue]:
        yield from self._normal
        yield from self._high
        if self._low is not None:
            yield self._low

    def worker_queue_depth(self, worker: int) -> int:
        """Hot (staged+pending) depth of the queues homed on ``worker``.

        Counts the worker's normal queue, its high-priority queue (if it
        owns one) and — at worker 0, to keep totals exact — the global
        low-priority queue.
        """
        q = self._normal[worker]
        depth = q.pending_len + q.staged_len
        if worker < len(self._high):
            hq = self._high[worker]
            depth += hq.pending_len + hq.staged_len
        if worker == 0 and self._low is not None:
            depth += self._low.pending_len + self._low.staged_len
        return depth
