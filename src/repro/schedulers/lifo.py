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

from collections import deque
from dataclasses import dataclass, field

from repro.runtime.task import Task
from repro.schedulers.priority_local import PriorityLocalScheduler
from repro.schedulers.queues import DualQueue


class _Stack(deque):
    """A lane whose ``popleft`` takes the newest entry."""

    popleft = deque.pop


@dataclass
class LifoDualQueue(DualQueue):
    """Dual queue whose pops take the newest entry (LIFO).

    Only the lanes differ, so every pop, drain and stat is
    :class:`DualQueue`'s.  The deferred lane stays FIFO: admission
    control re-admits parked work in arrival order.
    """

    _staged: deque[Task] = field(default_factory=_Stack)
    _pending: deque[Task] = field(default_factory=_Stack)


class PriorityLocalLifoScheduler(PriorityLocalScheduler):
    """Priority Local policy over LIFO local queues (HPX's
    ``local-priority-lifo``).

    Thief-side accesses go through the same ``pop_*`` methods as the
    owner's, i.e. steals also take the newest entry — matching HPX's
    ``local-priority-lifo``, whose queues have a single pop end.
    """

    name = "priority-local-lifo"
    queue_type = LifoDualQueue
