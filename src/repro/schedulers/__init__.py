"""Thread-scheduling policies.

The paper's measurements all use the **Priority Local-FIFO** scheduler — "a
composition of the Priority Local scheduling policy and the lock free FIFO
queuing policy" (Sec. I-B) — implemented here in
:mod:`repro.schedulers.priority_local` with exactly the work-finding order of
the paper's Fig. 1:

1. local pending queue
2. local staged queue
3. staged queues of the local NUMA domain
4. pending queues of the local NUMA domain
5. staged queues of remote NUMA domains
6. pending queues of remote NUMA domains

That order exists once, as :func:`repro.schedulers.base.fig1_search`; every
NUMA-aware policy runs it over its own per-worker queues.

:mod:`repro.schedulers.variants` adds the comparison policies used by the
ablation benchmarks (static/no-stealing, one global queue, NUMA-blind
stealing); the paper motivates studying such scheduler/granularity
interactions but defers it to future work, so these are extensions.

:mod:`repro.schedulers.buckets` holds the deadline-bucket scheduler (a
Clutch-style EDF root phase over per-bucket queues, then the Fig. 1 thread
phase inside the chosen bucket).  Its two presets live with the layers that
own their routing: ``qos`` (:mod:`repro.qos.scheduler`, one bucket per QoS
class) and ``rt-edf`` (:mod:`repro.rt.scheduler`, one bucket per real-time
task).
"""

from repro.schedulers.base import FoundWork, SchedulingPolicy, WorkSource
from repro.schedulers.lifo import PriorityLocalLifoScheduler
from repro.schedulers.priority_local import PriorityLocalScheduler
from repro.schedulers.queues import DualQueue, QueueStats
from repro.schedulers.variants import (
    GlobalQueueScheduler,
    NumaBlindStealingScheduler,
    StaticScheduler,
)

def _make_qos_scheduler() -> SchedulingPolicy:
    # Imported lazily: repro.qos sits *above* this package in the layering
    # (it builds on schedulers, counters and stats), so the registry refers
    # to it by factory instead of importing it at module load.
    from repro.qos.scheduler import QosBucketScheduler

    return QosBucketScheduler()


def _make_rt_edf_scheduler() -> SchedulingPolicy:
    # Same layering story as the QoS scheduler: repro.rt builds on this
    # package, so the registry refers to it by lazy factory.
    from repro.rt.scheduler import EdfScheduler

    return EdfScheduler()


#: Registry of scheduler constructors by command-line name.
SCHEDULERS = {
    "priority-local": PriorityLocalScheduler,
    "priority-local-lifo": PriorityLocalLifoScheduler,
    "static": StaticScheduler,
    "global-queue": GlobalQueueScheduler,
    "numa-blind": NumaBlindStealingScheduler,
    "qos": _make_qos_scheduler,
    "rt-edf": _make_rt_edf_scheduler,
}


def make_scheduler(name: str) -> SchedulingPolicy:
    """Instantiate a scheduler by registry name."""
    try:
        return SCHEDULERS[name]()
    except KeyError:
        raise KeyError(
            f"unknown scheduler {name!r}; expected one of {sorted(SCHEDULERS)}"
        ) from None


__all__ = [
    "FoundWork",
    "SchedulingPolicy",
    "WorkSource",
    "PriorityLocalScheduler",
    "PriorityLocalLifoScheduler",
    "DualQueue",
    "QueueStats",
    "StaticScheduler",
    "GlobalQueueScheduler",
    "NumaBlindStealingScheduler",
    "SCHEDULERS",
    "make_scheduler",
]
