"""Scheduling-policy interface shared by the executors.

A policy owns the task queues and answers one question — *given an idle
worker, what should it run next?* — while the executor owns time, cost
charging and task execution.  This split lets the simulated and the real
thread executor share every policy unchanged.

:func:`fig1_search` is the paper's Fig. 1 thread phase, written once: every
NUMA-aware policy (Priority Local and the deadline-bucket presets) runs it
over its own per-worker queues, with the steal orders that
:meth:`SchedulingPolicy.attach` precomputes.

Everything a policy does with its queues apart from choosing them is
written once, in :class:`SchedulingPolicy`, which builds, gates, lists,
measures and pushes onto every queue, buckets built on first use included.

Idle searches cost O(1).  A policy keeps one *may have work* bit: every
enqueue sets it, and only a full search that finds nothing clears it.
While it is clear, :meth:`SchedulingPolicy.find_work` charges the probes
an empty search would make to one policy-level tally, which
:meth:`SchedulingPolicy.aggregate_stats` adds to the queues' own counts,
and returns ``None`` without touching a queue.  A policy built inside
:func:`repro.fastpath.reference` always runs the full search and checks
that the bit and the charge were right.
"""

from __future__ import annotations

import enum
from dataclasses import astuple, dataclass
from typing import TYPE_CHECKING, Sequence

from repro import fastpath
from repro.runtime.task import Task
from repro.schedulers.queues import DualQueue, QueueStats
from repro.sim.machine import Machine

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.overload.admission import AdmissionControl


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
    A subclass supplies its layout (:meth:`_build_queues`, which builds
    every queue with :meth:`_new_queue`), its routing (:meth:`_queue_for`)
    and its search (:meth:`_search`).
    """

    name: str = "abstract"
    #: the class of every queue :meth:`_new_queue` builds
    queue_type: type[DualQueue] = DualQueue

    def __init__(self) -> None:
        self.machine: Machine | None = None
        self.num_workers: int = 0
        #: the admission controller each queue is built with (None: ungated)
        self._admission: AdmissionControl | None = None
        #: every queue, in build order
        self._all_queues: list[DualQueue] = []
        #: the queues homed on each worker
        self._homed: list[list[DualQueue]] = []
        # Fig. 1 steal orders (steps 3-4 and 5-6), one tuple per worker.
        self._same_domain: list[tuple[int, ...]] = []
        self._remote: list[tuple[int, ...]] = []
        # The may-have-work bit: clear only while every queue, deferred
        # lanes included, is known to be empty.  Enqueues set it and a
        # full search that finds nothing clears it; nothing else writes
        # it.  ThreadRuntime calls enqueue and find_work only under its
        # own lock, which is what keeps the bit exact across threads.
        self._may_have_work = True
        #: probes, per lane, of the searches the clear bit skipped
        self._skipped_probes = 0
        #: probes per lane of one empty search; None: never skip
        self._idle_probes: int | None = None
        #: built inside fastpath.reference(): always search, and check
        self._reference = False

    # -- setup ---------------------------------------------------------------

    def attach(
        self, machine: Machine, admission: AdmissionControl | None = None
    ) -> None:
        """Bind to ``machine`` and build the policy's queues, each gated by
        ``admission`` (None: the unbounded path)."""
        self.machine = machine
        self.num_workers = n = machine.num_cores
        self._same_domain = [machine.same_domain_cores(w) for w in range(n)]
        self._remote = [machine.remote_domain_cores(w) for w in range(n)]
        self._admission = admission
        self._all_queues = []
        self._homed = [[] for _ in range(n)]
        self._build_queues()
        self._may_have_work = True
        self._skipped_probes = 0
        self._idle_probes = self._empty_search_probes()
        self._reference = fastpath.in_reference()

    def _build_queues(self) -> None:
        """Build the policy's queues with :meth:`_new_queue`."""
        raise NotImplementedError

    def _new_queue(self, home: int) -> DualQueue:
        """Build one :attr:`queue_type` queue, gated by the controller
        :meth:`attach` received, and register it in build order and under
        worker ``home`` (0 for a shared queue).  Every queue a policy owns
        comes from here, so none may be built and then discarded."""
        queue = self.queue_type(admission=self._admission)
        self._all_queues.append(queue)
        self._homed[home].append(queue)
        return queue

    def _empty_search_probes(self) -> int | None:
        """Queues one search probes, in each lane, when every queue is
        empty; ``None`` when a miss does not prove every queue empty (the
        search skips queues), which turns the fast path off."""
        return None

    # -- producer interface ----------------------------------------------------

    def enqueue_staged(self, task: Task, worker: int) -> None:
        """Place a newly created thread description near ``worker``."""
        self._may_have_work = True
        task.home_worker = worker
        self._enqueue(task, worker, pending=False)

    def enqueue_pending(self, task: Task, worker: int) -> None:
        """Requeue a resumed (previously suspended) thread near ``worker``."""
        self._may_have_work = True
        task.home_worker = worker
        self._enqueue(task, worker, pending=True)

    def _enqueue(self, task: Task, worker: int, *, pending: bool) -> None:
        """Push ``task`` onto the pending or staged lane of the queue the
        policy routes it to near ``worker``."""
        queue = self._queue_for(task, worker)
        if pending:
            queue.push_pending(task)
        else:
            queue.push_staged(task)

    def _queue_for(self, task: Task, worker: int) -> DualQueue:
        """The queue ``task``, enqueued near ``worker``, goes to."""
        raise NotImplementedError

    # -- consumer interface -----------------------------------------------------

    def find_work(self, worker: int) -> FoundWork | None:
        """The policy's work-finding algorithm for an idle ``worker``.

        While the may-have-work bit is clear, every queue is empty: the
        search is skipped and its probes go to the policy's tally.
        """
        if not self._may_have_work:
            if self._reference:
                return self._checked_search(worker)
            self._skipped_probes += self._idle_probes
            return None
        found = self._search(worker)
        if found is None and self._idle_probes is not None:
            self._may_have_work = False
        return found

    def _search(self, worker: int) -> FoundWork | None:
        """The full search over the policy's queues."""
        raise NotImplementedError

    def _checked_search(self, worker: int) -> FoundWork | None:
        """Reference mode's search behind a clear bit: it must find
        nothing and charge exactly the declared probes per lane."""
        before = astuple(self.aggregate_stats())
        found = self._search(worker)
        if found is not None:
            raise fastpath.FastPathError(
                f"{self.name}: the may-have-work bit was clear, but worker "
                f"{worker} found {found.task.name!r} ({found.source.name})"
            )
        charged = [b - a for a, b in zip(before, astuple(self.aggregate_stats()))]
        if charged != [self._idle_probes] * 4:
            raise fastpath.FastPathError(
                f"{self.name}: an empty search by worker {worker} charged "
                f"{charged} (pending accesses, misses, staged accesses, "
                f"misses); the fast path charges {self._idle_probes} to each"
            )
        return None

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

    def queues(self) -> Sequence[DualQueue]:
        """Every queue the policy owns, in build order."""
        return self._all_queues

    def queued_tasks(self) -> int:
        """Tasks currently sitting in any queue (not active/suspended).

        Deferred tasks (parked by admission control, see
        :mod:`repro.overload.admission`) count: they are real queued work
        the consumers will re-admit, and the executor's give-up/deadlock
        checks must not treat them as gone.
        """
        return sum(
            q.pending_len + q.staged_len + q.deferred_len for q in self._all_queues
        )

    def worker_queue_depth(self, worker: int) -> int:
        """Staged+pending depth of the queues homed on ``worker``.

        Feeds the per-worker ``/threads{...}/count/queue-depth`` gauge and
        the overload governor.  Shared queues are homed on worker 0, so
        totals are not double-counted.  Deferred (cold) tasks are
        excluded: the gauge measures the hot structures workers actually
        scan.
        """
        return sum(q.pending_len + q.staged_len for q in self._homed[worker])

    def aggregate_stats(self) -> QueueStats:
        """Summed access/miss counts over every queue, plus the probes the
        may-have-work bit skipped: each of those is one access and one miss
        in both lanes, exactly what the skipped search would have counted.
        """
        skipped = self._skipped_probes
        total = QueueStats(skipped, skipped, skipped, skipped)
        for q in self._all_queues:
            total.merge(q.stats)
        return total
