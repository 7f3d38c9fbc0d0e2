"""Priority Local-LIFO: the depth-first sibling of the paper's scheduler.

HPX ships both FIFO and LIFO composition of the Priority Local policy
(``local-priority-fifo`` — the paper's measured configuration — and
``local-priority-lifo``).  LIFO pops the *most recently* queued task from
the local queues, which keeps the working set of a fork-join recursion hot
(depth-first execution) at the price of fairness.

Only the local pop order differs from
:class:`repro.schedulers.priority_local.PriorityLocalScheduler`; the NUMA
search order of the paper's Fig. 1 is identical, so comparing the two
isolates the queue discipline.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.task import Task
from repro.schedulers.priority_local import PriorityLocalScheduler
from repro.schedulers.queues import DualQueue


@dataclass
class LifoDualQueue(DualQueue):
    """Dual queue whose pops take the newest entry (LIFO)."""

    def pop_pending(self) -> Task | None:
        admission = self.admission
        if admission is not None:
            admission.drain(self)
        stats = self.stats
        stats.pending_accesses += 1
        if self._pending:
            return self._pending.pop()
        stats.pending_misses += 1
        return None

    def pop_staged(self) -> Task | None:
        admission = self.admission
        if admission is not None:
            admission.drain(self)
        stats = self.stats
        stats.staged_accesses += 1
        if self._staged:
            return self._staged.pop()
        stats.staged_misses += 1
        return None


class PriorityLocalLifoScheduler(PriorityLocalScheduler):
    """Priority Local policy over LIFO local queues (HPX's
    ``local-priority-lifo``).

    Thief-side accesses go through the same ``pop_*`` methods as the
    owner's, i.e. steals also take the newest entry — matching HPX's
    ``local-priority-lifo``, whose queues have a single pop end.
    """

    name = "priority-local-lifo"

    def _build_queues(self) -> None:
        super()._build_queues()
        self._normal = [LifoDualQueue() for _ in range(self.num_workers)]
        self._high = [LifoDualQueue() for _ in range(len(self._high))]
        self._low = LifoDualQueue()
