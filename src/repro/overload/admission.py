"""Admission control: bounded scheduler queues with overflow policies.

The paper's two walls (Sec. IV) are queueing phenomena: at fine grain the
pending/staged queues grow faster than workers can drain them, and every
queued task pays management overhead whether or not it ever helps
utilization.  Admission control bounds the *depth* of each
:class:`~repro.schedulers.queues.DualQueue` (staged + pending) and picks
one of three overflow policies when a new staged task arrives at a full
queue:

``block``
    The producer pays backpressure: the task waits in a per-queue
    deferred lane and is admitted (FIFO) as soon as depth recovers.  The
    simulated-time wait is metered into
    ``/overload/time/backpressure-blocked``.

``shed``
    The least-protected staged task (newest among ties) is rejected with
    a typed :class:`~repro.overload.errors.TaskShedError`; if nothing
    staged is less protected than the newcomer, the newcomer itself is
    shed.  Protection is queue priority first, then QoS class standing
    (shed eligibility, then class rank — see
    :meth:`AdmissionControl._shed_key`), so under multi-tenant overload
    low-QoS work is dropped before high-QoS work at equal priority.
    Shedding bounds completion time as well as memory: offered work that
    cannot be absorbed is dropped instead of queued.

``spill``
    The task moves to an unbounded *cold* queue (a description, not a
    runnable) and is re-admitted when depth recovers.  Spilling bounds
    the hot structures the workers scan while conserving all offered
    work.

Only *new staged admissions* are gated.  ``push_pending`` (resumed tasks
and staged-to-pending conversion inside ``find_work``) is always
admitted: a suspended task already holds resources, and deferring its
resume could deadlock the very continuation that would free capacity.

Conservation identity (asserted by figO)::

    offered == admitted == executed + shed + deferred_pending

where ``deferred_pending`` is zero once a run drains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.overload.errors import TaskShedError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.counters.registry import CounterRegistry
    from repro.runtime.task import Task
    from repro.schedulers.queues import DualQueue

__all__ = ["AdmissionParams", "AdmissionStats", "AdmissionControl"]

_POLICIES = ("block", "shed", "spill")


@dataclass(frozen=True)
class AdmissionParams:
    """Configuration for admission control on the scheduler queues.

    ``max_depth`` bounds staged+pending depth *per queue*; ``None`` means
    unbounded (observe-only: depth statistics are tracked but nothing is
    ever deferred or shed — useful as a measured baseline).
    """

    max_depth: int | None = None
    policy: str = "shed"

    def __post_init__(self) -> None:
        if self.policy not in _POLICIES:
            raise ValueError(
                f"unknown overflow policy {self.policy!r}; "
                f"expected one of {_POLICIES}"
            )
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")


@dataclass
class AdmissionStats:
    """Running totals for one :class:`AdmissionControl` instance."""

    offered: int = 0  #: tasks presented for staged admission
    admitted: int = 0  #: tasks placed directly on a hot queue
    shed: int = 0  #: tasks rejected under the ``shed`` policy
    blocked: int = 0  #: tasks deferred under the ``block`` policy
    spilled: int = 0  #: tasks deferred under the ``spill`` policy
    readmitted: int = 0  #: deferred tasks later admitted
    backpressure_wait_ns: int = 0  #: total simulated wait (``block`` only)
    peak_depth: int = 0  #: high-water staged+pending depth of any queue


class AdmissionControl:
    """Shared controller gating staged admissions across a policy's queues.

    A scheduling policy hands one instance to every :class:`DualQueue` it
    builds (``SchedulingPolicy.attach(machine, admission)``), buckets
    built on first use included; each queue keeps its own deferred lane
    while bounds, policy, statistics and the shed callback live here.
    ``max_depth`` is ``params.max_depth``, copied onto the instance because
    every admission reads it.
    """

    def __init__(
        self,
        params: AdmissionParams,
        *,
        now_fn: Callable[[], int],
        on_shed: Callable[["Task", TaskShedError], None] | None = None,
    ):
        self.params = params
        self.max_depth = params.max_depth
        self.now_fn = now_fn
        self.on_shed = on_shed
        self.stats = AdmissionStats()

    @property
    def deferred_tasks(self) -> int:
        """Tasks currently parked in deferred lanes (spill depth gauge).

        Exact without a queue list: only :meth:`offer` appends to a
        deferred lane, counting one blocked or spilled task, and only
        :meth:`drain` takes from one, counting one readmitted.
        """
        stats = self.stats
        return stats.blocked + stats.spilled - stats.readmitted

    def register_counters(self, registry: "CounterRegistry") -> None:
        """Register the ``/overload`` counter family."""
        stats = self.stats
        registry.derived("/overload/count/offered",
                         lambda: float(stats.offered),
                         "tasks presented to admission control")
        registry.derived("/overload/count/admitted",
                         lambda: float(stats.admitted),
                         "tasks admitted to the hot queues")
        registry.derived("/overload/count/shed",
                         lambda: float(stats.shed),
                         "tasks rejected under the shed policy")
        registry.derived("/overload/count/blocked",
                         lambda: float(stats.blocked),
                         "tasks deferred by backpressure (block policy)")
        registry.derived("/overload/count/spilled",
                         lambda: float(stats.spilled),
                         "tasks moved to the cold queue (spill policy)")
        registry.derived("/overload/count/readmitted",
                         lambda: float(stats.readmitted),
                         "deferred tasks re-admitted after depth recovered")
        registry.derived("/overload/time/backpressure-blocked",
                         lambda: float(stats.backpressure_wait_ns),
                         "total simulated producer wait under block (ns)")
        registry.value("/overload/count/spill-depth@gauge",
                       "tasks currently parked in deferred lanes",
                       source=lambda: float(self.deferred_tasks))
        registry.value("/overload/count/peak-queue-depth@gauge",
                       "high-water staged+pending depth of any one queue",
                       source=lambda: float(stats.peak_depth))

    # -- the gate -------------------------------------------------------

    def offer(self, queue: "DualQueue", task: "Task") -> None:
        """Admit, defer, or shed a new staged ``task`` for ``queue``."""
        stats = self.stats
        stats.offered += 1
        depth = queue.pending_len + queue.staged_len
        if self.max_depth is None or depth < self.max_depth:
            queue._staged.append(task)
            stats.admitted += 1
            if depth + 1 > stats.peak_depth:
                stats.peak_depth = depth + 1
            return
        policy = self.params.policy
        if policy == "shed":
            victim = self._lowest_priority_staged(queue, task)
            if victim is None:
                self._shed(task, depth)
            else:
                queue._staged.remove(victim)
                queue._staged.append(task)
                stats.admitted += 1
                self._shed(victim, depth)
            return
        queue._deferred.append((task, self.now_fn()))
        if policy == "spill":
            stats.spilled += 1
        else:
            stats.blocked += 1

    def note_pending_push(self, queue: "DualQueue") -> None:
        """Track depth after an (always admitted) pending push."""
        depth = queue.pending_len + queue.staged_len
        if depth > self.stats.peak_depth:
            self.stats.peak_depth = depth

    def drain(self, queue: "DualQueue") -> None:
        """Re-admit deferred tasks while ``queue`` has headroom.

        Called from the queue's pop paths, so any worker touching the
        queue (including stealers) pulls cold work back in as soon as
        depth recovers.
        """
        deferred = queue._deferred
        if not deferred:
            return
        stats = self.stats
        meter_wait = self.params.policy == "block"
        now = None
        while deferred:
            depth = queue.pending_len + queue.staged_len
            if self.max_depth is not None and depth >= self.max_depth:
                return
            task, since = deferred.popleft()
            queue._staged.append(task)
            stats.admitted += 1
            stats.readmitted += 1
            if depth + 1 > stats.peak_depth:
                stats.peak_depth = depth + 1
            if meter_wait:
                if now is None:
                    now = self.now_fn()
                stats.backpressure_wait_ns += now - since

    # -- helpers --------------------------------------------------------

    @staticmethod
    def _shed_key(task: "Task") -> tuple[int, int, int]:
        """Composite eviction-resistance key; lower keys are shed first.

        Queue priority dominates (preserving pre-QoS behaviour exactly for
        unclassed workloads), then QoS standing among equal priorities: a
        shed-ineligible class outranks every eligible one, and within the
        eligible a higher class ``rank`` resists eviction longer.  Tasks
        without a QoS class, or with a tag that has no QoS standing (such
        as :class:`~repro.rt.scheduler.RtTag`), tie with an eligible rank-0
        class.
        """
        qos = task.qos
        if qos is None:
            return (int(task.priority), 0, 0)
        try:
            return (int(task.priority), 0 if qos.shed_eligible else 1, qos.rank)
        except AttributeError:
            return (int(task.priority), 0, 0)

    def _lowest_priority_staged(
        self, queue: "DualQueue", incoming: "Task"
    ) -> "Task | None":
        """The staged task to evict in favour of ``incoming``, if any.

        Picks the staged task with the minimum :meth:`_shed_key` (queue
        priority, then QoS class standing), newest among ties, but only if
        its key is *strictly* lower than ``incoming``'s — ties shed the
        newcomer, preserving arrival-order fairness within a class.
        """
        victim = None
        victim_key = None
        for task in reversed(queue._staged):
            key = self._shed_key(task)
            if victim_key is None or key < victim_key:
                victim, victim_key = task, key
        if victim is not None and victim_key < self._shed_key(incoming):
            return victim
        return None

    def _shed(self, task: "Task", depth: int) -> None:
        self.stats.shed += 1
        hook = self.on_shed
        if hook is not None:
            bound = self.max_depth if self.max_depth is not None else 0
            hook(task, TaskShedError(task.name, queue_depth=depth, max_depth=bound))
