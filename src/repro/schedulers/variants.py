"""Comparison scheduling policies for the ablation benchmarks.

The paper notes that "different schedulers optimize performance for different
task size" and defers the scheduler study to future work (Sec. I-A, VI).
These variants let the ablation benches quantify that interaction on the
same simulated platforms:

- :class:`StaticScheduler` — per-worker dual queues, **no stealing**.  Coarse
  grain starves badly here because imbalance can never be corrected.
- :class:`GlobalQueueScheduler` — one shared dual queue.  Perfect balance but
  every access contends on one structure; fine grain suffers most.
- :class:`NumaBlindStealingScheduler` — Priority-Local's structure but steals
  in flat worker order, ignoring NUMA domains; isolates the value of the
  paper's NUMA-aware search order (steps 3-6 of Fig. 1).
"""

from __future__ import annotations

from repro.runtime.task import Task
from repro.schedulers.base import FoundWork, SchedulingPolicy, WorkSource
from repro.schedulers.queues import DualQueue


class StaticScheduler(SchedulingPolicy):
    """Per-worker queues with no work stealing at all."""

    name = "static"

    def __init__(self) -> None:
        super().__init__()
        self._queues: list[DualQueue] = []

    def _build_queues(self) -> None:
        self._queues = [self._new_queue(w) for w in range(self.num_workers)]

    def _queue_for(self, task: Task, worker: int) -> DualQueue:
        return self._queues[worker]

    def _search(self, worker: int) -> FoundWork | None:
        # Only the worker's own queue: a miss proves nothing about the
        # others, so no _empty_search_probes, and no search is skipped.
        own = self._queues[worker]
        task = own.pop_pending()
        if task is not None:
            return FoundWork(task, WorkSource.LOCAL_PENDING)
        task = own.pop_staged()
        if task is not None:
            return FoundWork(task, WorkSource.LOCAL_STAGED)
        return None


class GlobalQueueScheduler(SchedulingPolicy):
    """A single dual queue shared by every worker.

    The executor's contention model already scales management costs with the
    number of active workers; the shared structure additionally serializes
    FIFO order, so locality is entirely lost (every pop is effectively a
    steal from the program's point of view, charged at local rates).
    """

    name = "global-queue"

    #: per-competing-worker synchronization cost of the shared queue (ns);
    #: models CAS/lock contention on the single structure
    CONTENTION_NS_PER_WORKER = 35

    def __init__(self) -> None:
        super().__init__()
        self._queue: DualQueue | None = None

    def shared_structure_penalty_ns(self, active_workers: int) -> int:
        return self.CONTENTION_NS_PER_WORKER * max(0, active_workers - 1)

    def _build_queues(self) -> None:
        # Shared by every worker; worker 0's depth gauge counts it.
        self._queue = self._new_queue(0)

    def _queue_for(self, task: Task, worker: int) -> DualQueue:
        assert self._queue is not None
        return self._queue

    def _empty_search_probes(self) -> int:
        return 1

    def _search(self, worker: int) -> FoundWork | None:
        assert self._queue is not None
        task = self._queue.pop_pending()
        if task is not None:
            return FoundWork(task, WorkSource.LOCAL_PENDING)
        task = self._queue.pop_staged()
        if task is not None:
            return FoundWork(task, WorkSource.LOCAL_STAGED)
        return None


class NumaBlindStealingScheduler(StaticScheduler):
    """Per-worker dual queues with flat, NUMA-unaware stealing.

    Searches every other worker in ascending index order (staged first, then
    pending), so roughly half of all steals cross the socket boundary on the
    two-domain platforms and pay the remote-steal cost.  Queues, producers
    and introspection are :class:`StaticScheduler`'s; unlike the Fig. 1
    search, staged work runs without converting through a pending queue.
    """

    name = "numa-blind"

    def _source(self, worker: int, other: int, staged: bool) -> WorkSource:
        assert self.machine is not None
        same = self.machine.domain_of(worker) == self.machine.domain_of(other)
        if staged:
            return WorkSource.NUMA_STAGED if same else WorkSource.REMOTE_STAGED
        return WorkSource.NUMA_PENDING if same else WorkSource.REMOTE_PENDING

    def _empty_search_probes(self) -> int:
        # Unlike its base class, every search reaches every worker's queue.
        return self.num_workers

    def _search(self, worker: int) -> FoundWork | None:
        queues = self._queues
        own = queues[worker]
        task = own.pop_pending()
        if task is not None:
            return FoundWork(task, WorkSource.LOCAL_PENDING)
        task = own.pop_staged()
        if task is not None:
            return FoundWork(task, WorkSource.LOCAL_STAGED)
        for other in range(self.num_workers):
            if other == worker:
                continue
            task = queues[other].pop_staged()
            if task is not None:
                return FoundWork(task, self._source(worker, other, staged=True))
        for other in range(self.num_workers):
            if other == worker:
                continue
            task = queues[other].pop_pending()
            if task is not None:
                return FoundWork(task, self._source(worker, other, staged=False))
        return None
