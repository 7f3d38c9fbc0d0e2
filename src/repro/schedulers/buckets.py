"""Deadline-bucket scheduling: the Clutch root-bucket phase, written once.

Apple's Clutch scheduler (see SNIPPETS.md section 3) selects work in
phases: a *root-bucket* phase picks the bucket to serve next (EDF over
bucket deadlines, with *warp* — a temporary deadline boost a bucket earns
when it wakes up — and starvation avoidance for buckets EDF keeps passing
over), then a thread phase inside the chosen bucket.  This module maps that
design onto the repo's scheduler protocol:

- a :class:`DeadlineBucket` holds one
  :class:`~repro.schedulers.queues.DualQueue` per worker plus its EDF
  parameters (latency, rank, warp, starvation limit);
- the **root-bucket phase** is EDF over bucket deadlines.  A bucket's
  deadline is the earliest hot head's ``absolute_deadline_ns`` tag (carried
  in ``Task.qos``), or the head's ``created_ns`` plus the bucket's latency
  when the head has no such tag — no clock access, so selection stays a
  pure function of queue contents and is bit-reproducible across
  executors;
- **warp**: work arriving into a hot-empty bucket with ``warp_ns > 0`` arms
  ``warp_dispatches`` selections during which the bucket's deadline is
  advanced by ``warp_ns``;
- **starvation avoidance**: a non-empty bucket passed over
  ``starvation_limit`` consecutive dispatches is served next regardless of
  deadlines (a limit of 0 turns this off);
- ties break on ``(deadline, -rank, bucket index)`` — a total, replayable
  order;
- the **thread phase** inside the chosen bucket is the paper's Fig. 1
  order, :func:`~repro.schedulers.base.fig1_search`.

:class:`DeadlineBucketScheduler` leaves only *routing* (task to bucket) to
its presets: ``qos`` (:class:`repro.qos.scheduler.QosBucketScheduler`, one
bucket per QoS class) and ``rt-edf`` (:class:`repro.rt.scheduler.
EdfScheduler`, one bucket per real-time task, which is job-level EDF).
"""

from __future__ import annotations

from repro.runtime.task import Task
from repro.schedulers.base import FoundWork, SchedulingPolicy, fig1_search
from repro.schedulers.queues import DualQueue

__all__ = [
    "DeadlineBucket",
    "DeadlineBucketScheduler",
    "ROOT_CONTENTION_NS_PER_WORKER",
]

#: per-dispatch cost of the shared root-bucket structure: every worker's
#: find_work reads (and the winner updates) the same EDF state, which is a
#: real synchronization point per-worker queues do not have
ROOT_CONTENTION_NS_PER_WORKER = 12

_INF = float("inf")


class DeadlineBucket:
    """One root bucket: per-worker queues plus warp/starvation state."""

    __slots__ = (
        "index",
        "queues",
        "latency_ns",
        "rank",
        "warp_ns",
        "starvation_limit",
        "warp_remaining",
        "skipped",
    )

    def __init__(
        self,
        index: int,
        queues: list[DualQueue],
        *,
        latency_ns: int,
        rank: int = 0,
        warp_ns: int = 0,
        starvation_limit: int = 0,
    ) -> None:
        self.index = index
        #: one queue per worker, indexed by worker
        self.queues = queues
        self.latency_ns = latency_ns
        self.rank = rank
        self.warp_ns = warp_ns
        self.starvation_limit = starvation_limit
        self.warp_remaining = 0
        self.skipped = 0

    def hot_depth(self) -> int:
        return sum(q.pending_len + q.staged_len for q in self.queues)

    def has_work(self) -> bool:
        return any(not q.is_empty for q in self.queues)

    def deadline(self) -> float:
        """Earliest deadline among the queue heads, warped while armed.

        A head's deadline is its ``absolute_deadline_ns`` tag, else its
        ``created_ns`` plus the bucket latency.  Hot-empty buckets (possibly
        holding only deferred work) sort last: deferred tasks are cold by
        design and re-admit via the drain hook once a pop touches their
        queue.
        """
        earliest = _INF
        for q in self.queues:
            head = q.head_task()
            if head is None:
                continue
            deadline = getattr(head.qos, "absolute_deadline_ns", None)
            if deadline is None:
                deadline = head.created_ns + self.latency_ns
            if deadline < earliest:
                earliest = deadline
        if self.warp_remaining > 0 and earliest != _INF:
            earliest -= self.warp_ns
        return earliest


class DeadlineBucketScheduler(SchedulingPolicy):
    """EDF root buckets with warp and starvation avoidance.

    Subclasses supply :meth:`_bucket_for` (routing) and build their buckets
    with :meth:`_add_bucket`, up front in :meth:`_build_queues` or lazily
    on first use; a bucket's index is its creation order.
    """

    #: selections a woken bucket's warp lasts (0: buckets never warp)
    warp_dispatches: int = 0

    def __init__(self) -> None:
        super().__init__()
        self._buckets: list[DeadlineBucket] = []

    # -- setup and routing -----------------------------------------------------

    def _build_queues(self) -> None:
        self._buckets = []

    def _add_bucket(self, **params: int) -> DeadlineBucket:
        queues = [self._new_queue(w) for w in range(self.num_workers)]
        bucket = DeadlineBucket(len(self._buckets), queues, **params)
        self._buckets.append(bucket)
        return bucket

    def _bucket_for(self, task: Task) -> DeadlineBucket:
        raise NotImplementedError

    # -- producers -------------------------------------------------------------

    def _enqueue(self, task: Task, worker: int, *, pending: bool) -> None:
        bucket = self._bucket_for(task)
        wake = bucket.warp_ns > 0 and bucket.hot_depth() == 0
        queue = bucket.queues[worker]
        if pending:
            queue.push_pending(task)
        else:
            queue.push_staged(task)
        # Arm warp only if the push actually landed hot (a shed or deferred
        # admission must not earn the bucket a boost).
        if wake and bucket.hot_depth() > 0:
            bucket.warp_remaining = self.warp_dispatches

    # -- consumer ----------------------------------------------------------------

    def _empty_search_probes(self) -> int:
        # The root phase passes over buckets without work, so an empty
        # search probes nothing; the bit saves the root phase's scan.
        return 0

    def _selection_order(self) -> list[DeadlineBucket]:
        """Root-bucket phase: starved buckets first, then EDF order."""
        # Indices are unique, so tuple comparison never reaches the bucket.
        keyed = [
            (
                not (0 < b.starvation_limit <= b.skipped),
                b.deadline(),
                -b.rank,
                b.index,
                b,
            )
            for b in self._buckets
            if b.has_work()
        ]
        keyed.sort()
        return [entry[-1] for entry in keyed]

    def _note_selected(self, bucket: DeadlineBucket) -> None:
        if bucket.warp_remaining > 0:
            bucket.warp_remaining -= 1
        bucket.skipped = 0
        for other in self._buckets:
            if other.starvation_limit and other is not bucket and other.has_work():
                other.skipped += 1

    def _search(self, worker: int) -> FoundWork | None:
        same, remote = self._same_domain[worker], self._remote[worker]
        for bucket in self._selection_order():
            found = fig1_search(bucket.queues, worker, same, remote)
            if found is not None:
                self._note_selected(bucket)
                return found
        return None

    def shared_structure_penalty_ns(self, active_workers: int) -> int:
        """Root-bucket EDF state is shared by every worker's dispatch."""
        return ROOT_CONTENTION_NS_PER_WORKER * max(0, active_workers - 1)
