"""Scheduling-policy interface shared by the executors.

A policy owns the task queues and answers one question — *given an idle
worker, what should it run next?* — while the executor owns time, cost
charging and task execution.  This split lets the simulated and the real
thread executor share every policy unchanged.

:func:`fig1_search` is the paper's Fig. 1 thread phase, written once: every
NUMA-aware policy (Priority Local and the deadline-bucket presets) runs it
over its own per-worker queues, with the steal orders that
:meth:`SchedulingPolicy.attach` precomputes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.runtime.task import Priority, Task
from repro.schedulers.queues import DualQueue, QueueStats
from repro.sim.machine import Machine


class WorkSource(enum.Enum):
    """Where ``find_work`` found the task; drives the executor's cost charges
    and the stolen-task counters.  The enum order matches the search order of
    the paper's Fig. 1."""

    LOCAL_PENDING = 1
    LOCAL_STAGED = 2
    NUMA_STAGED = 3
    NUMA_PENDING = 4
    REMOTE_STAGED = 5
    REMOTE_PENDING = 6
    HIGH_PRIORITY = 0
    LOW_PRIORITY = 7

    @property
    def was_staged(self) -> bool:
        return self in (WorkSource.LOCAL_STAGED, WorkSource.NUMA_STAGED, WorkSource.REMOTE_STAGED)

    @property
    def was_stolen(self) -> bool:
        return self in (
            WorkSource.NUMA_STAGED,
            WorkSource.NUMA_PENDING,
            WorkSource.REMOTE_STAGED,
            WorkSource.REMOTE_PENDING,
        )

    @property
    def same_domain(self) -> bool:
        """True for steals that stayed inside the worker's NUMA domain."""
        return self in (WorkSource.NUMA_STAGED, WorkSource.NUMA_PENDING)


@dataclass(frozen=True)
class FoundWork:
    """A task plus the provenance the executor needs for cost accounting."""

    task: Task
    source: WorkSource


def _convert(own: DualQueue, task: Task, source: WorkSource) -> FoundWork:
    # Mirror HPX's mechanics: a staged description is converted into a
    # pending thread on the *running* worker's queue and immediately popped
    # again, so the pending-queue counters register the conversion traffic
    # that Fig. 9/10 measure.  Callers reach this only after finding
    # ``own``'s pending lane empty, so the pop returns ``task``.
    own.push_pending(task)
    converted = own.pop_pending()
    assert converted is not None
    return FoundWork(converted, source)


def fig1_search(
    queues: Sequence[DualQueue],
    worker: int,
    same_domain: tuple[int, ...],
    remote: tuple[int, ...],
) -> FoundWork | None:
    """The thread phase of the paper's Fig. 1 over one queue per worker.

    Steps: 1. own pending, 2. own staged, 3./4. staged then pending queues
    of ``same_domain``, 5./6. staged then pending queues of ``remote``.
    Staged work, local or stolen, converts through ``worker``'s own pending
    queue.  Every probe counts an access (and maybe a miss) at the queue.
    """
    own = queues[worker]
    task = own.pop_pending()
    if task is not None:
        return FoundWork(task, WorkSource.LOCAL_PENDING)
    task = own.pop_staged()
    if task is not None:
        return _convert(own, task, WorkSource.LOCAL_STAGED)
    for other in same_domain:
        task = queues[other].pop_staged()
        if task is not None:
            return _convert(own, task, WorkSource.NUMA_STAGED)
    for other in same_domain:
        task = queues[other].pop_pending()
        if task is not None:
            return FoundWork(task, WorkSource.NUMA_PENDING)
    for other in remote:
        task = queues[other].pop_staged()
        if task is not None:
            return _convert(own, task, WorkSource.REMOTE_STAGED)
    for other in remote:
        task = queues[other].pop_pending()
        if task is not None:
            return FoundWork(task, WorkSource.REMOTE_PENDING)
    return None


class SchedulingPolicy:
    """Base class for scheduling policies.

    Lifecycle: construct, then :meth:`attach` to a machine (builds queues),
    then any number of enqueue/find_work calls from the executor.
    """

    name: str = "abstract"

    def __init__(self) -> None:
        self.machine: Machine | None = None
        self.num_workers: int = 0
        # Fig. 1 steal orders (steps 3-4 and 5-6), one tuple per worker.
        self._same_domain: list[tuple[int, ...]] = []
        self._remote: list[tuple[int, ...]] = []

    # -- setup ---------------------------------------------------------------

    def attach(self, machine: Machine) -> None:
        """Bind to ``machine`` and build one queue set per worker."""
        self.machine = machine
        self.num_workers = n = machine.num_cores
        self._same_domain = [machine.same_domain_cores(w) for w in range(n)]
        self._remote = [machine.remote_domain_cores(w) for w in range(n)]
        self._build_queues()

    def _build_queues(self) -> None:
        raise NotImplementedError

    # -- producer interface ----------------------------------------------------

    def enqueue_staged(self, task: Task, worker: int) -> None:
        """Place a newly created thread description near ``worker``."""
        raise NotImplementedError

    def enqueue_pending(self, task: Task, worker: int) -> None:
        """Requeue a resumed (previously suspended) thread near ``worker``."""
        raise NotImplementedError

    # -- consumer interface -----------------------------------------------------

    def find_work(self, worker: int) -> FoundWork | None:
        """The policy's work-finding algorithm for an idle ``worker``."""
        raise NotImplementedError

    def shared_structure_penalty_ns(self, active_workers: int) -> int:
        """Extra per-dispatch cost of contention on policy-owned shared
        structures.

        Per-worker-queue policies return 0 (their contention is already in
        the cost model's ``contention_coef``); a single shared queue pays a
        growing synchronization cost per pop, which is what makes the
        global-queue ablation honest.
        """
        return 0

    # -- introspection -----------------------------------------------------------

    def queues(self) -> Iterator[DualQueue]:
        """All dual queues owned by the policy (for stats aggregation)."""
        raise NotImplementedError

    def queued_tasks(self) -> int:
        """Tasks currently sitting in any queue (not active/suspended).

        Deferred tasks (parked by admission control, see
        :mod:`repro.overload.admission`) count: they are real queued work
        the consumers will re-admit, and the executor's give-up/deadlock
        checks must not treat them as gone.
        """
        return sum(
            q.pending_len + q.staged_len + q.deferred_len for q in self.queues()
        )

    def worker_queue_depth(self, worker: int) -> int:
        """Staged+pending depth of the queues homed on ``worker``.

        Feeds the per-worker ``/threads{...}/count/queue-depth`` gauge and
        the overload governor.  Policies with per-worker queues override
        this; the default suits single-shared-structure policies — the
        whole depth is reported at worker 0 so totals are not
        double-counted.  Deferred (cold) tasks are excluded: the gauge
        measures the hot structures workers actually scan.
        """
        if worker != 0:
            return 0
        return sum(q.pending_len + q.staged_len for q in self.queues())

    def aggregate_stats(self) -> QueueStats:
        """Summed access/miss counts over every queue."""
        total = QueueStats()
        for q in self.queues():
            total.merge(q.stats)
        return total

    @staticmethod
    def classify_priority(task: Task) -> Priority:
        return task.priority
