"""Dual staged/pending task queues with access accounting.

"All HPX-thread scheduling policies use a dual-queue scheme to manage
threads" (paper Sec. I-B): thread *descriptions* wait in a staged queue
(cheap to create and to move between memory domains), and context-equipped
threads ready to run wait in a pending queue.

The paper's Fig. 9/10 metric — pending-queue accesses and misses — is counted
here, at the queue, so every scheduling policy gets the accounting for free
and the counts register genuine scheduler activity rather than a model.

Each queue optionally carries an :class:`repro.overload.admission.
AdmissionControl` (``admission``; default ``None`` — the unbounded legacy
path), which a policy hands to every queue it builds
(:meth:`repro.schedulers.base.SchedulingPolicy._new_queue`).  With a
controller, new staged pushes go through its admission gate, overflow
lands in the queue's *deferred* lane (``block`` / ``spill`` policies), and
every pop first re-admits deferred work while depth allows.
``push_pending`` is never gated: resumed tasks already hold contexts and
must not deadlock behind their own backpressure.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.runtime.task import Task

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.overload.admission import AdmissionControl


@dataclass
class QueueStats:
    """Access/miss counts for one dual queue.

    An *access* is one look by the thread scheduler into the queue; a *miss*
    is an access that found no work there (paper Sec. II-A).
    """

    pending_accesses: int = 0
    pending_misses: int = 0
    staged_accesses: int = 0
    staged_misses: int = 0

    def merge(self, other: "QueueStats") -> None:
        self.pending_accesses += other.pending_accesses
        self.pending_misses += other.pending_misses
        self.staged_accesses += other.staged_accesses
        self.staged_misses += other.staged_misses


@dataclass
class DualQueue:
    """One staged + pending FIFO pair, as attached to each worker thread."""

    stats: QueueStats = field(default_factory=QueueStats)
    _staged: deque[Task] = field(default_factory=deque)
    _pending: deque[Task] = field(default_factory=deque)
    #: overflow lane: (task, deferred_at_ns) pairs awaiting re-admission
    _deferred: deque[tuple[Task, int]] = field(default_factory=deque)
    #: admission controller; ``None`` keeps the exact unbounded behaviour
    admission: "AdmissionControl | None" = None

    # -- producers ------------------------------------------------------------

    def push_staged(self, task: Task) -> None:
        admission = self.admission
        if admission is None:
            self._staged.append(task)
        else:
            admission.offer(self, task)

    def push_pending(self, task: Task) -> None:
        self._pending.append(task)
        admission = self.admission
        if admission is not None:
            admission.note_pending_push(self)

    # -- consumers (every pop counts an access) --------------------------------

    def pop_pending(self) -> Task | None:
        """FIFO-pop from the pending queue, counting the access."""
        admission = self.admission
        if admission is not None:
            admission.drain(self)
        stats = self.stats
        stats.pending_accesses += 1
        if self._pending:
            return self._pending.popleft()
        stats.pending_misses += 1
        return None

    def pop_staged(self) -> Task | None:
        """FIFO-pop from the staged queue, counting the access."""
        admission = self.admission
        if admission is not None:
            admission.drain(self)
        stats = self.stats
        stats.staged_accesses += 1
        if self._staged:
            return self._staged.popleft()
        stats.staged_misses += 1
        return None

    # -- introspection (no access counted; used for termination checks) --------

    def head_task(self) -> Task | None:
        """Peek the oldest hot entry (earliest ``created_ns``), or None.

        Introspection for deadline-ordered root selection (the deadline-
        bucket scheduler reads the head's arrival and deadline tag).  Both
        lanes are FIFO, so the older of the two heads is the queue's
        earliest arrival.  No access is counted — this is a peek, not a
        scheduling attempt.
        """
        head = self._pending[0] if self._pending else None
        if self._staged:
            staged_head = self._staged[0]
            if head is None or staged_head.created_ns < head.created_ns:
                head = staged_head
        return head

    @property
    def pending_len(self) -> int:
        return len(self._pending)

    @property
    def staged_len(self) -> int:
        return len(self._staged)

    @property
    def deferred_len(self) -> int:
        return len(self._deferred)

    @property
    def is_empty(self) -> bool:
        return not self._pending and not self._staged and not self._deferred
