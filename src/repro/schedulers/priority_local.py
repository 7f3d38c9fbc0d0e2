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
        self._normal = [self._new_queue(w) for w in range(n)]
        self._high = [self._new_queue(w) for w in range(hp)]
        # Shared by every worker; worker 0's depth gauge counts it.
        self._low = self._new_queue(0)

    # -- producers -------------------------------------------------------------

    def _queue_for(self, task: Task, worker: int) -> DualQueue:
        if task.priority is Priority.HIGH:
            return self._high[worker % len(self._high)]
        if task.priority is Priority.LOW:
            assert self._low is not None
            return self._low
        return self._normal[worker]

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
