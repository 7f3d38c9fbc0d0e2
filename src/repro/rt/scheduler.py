"""Deadline-aware scheduling: rate-monotonic assignment and job-level EDF.

Two classical policies, mapped onto the repo's existing machinery instead
of reinvented:

**Rate-monotonic** is a *priority assignment*, not a new queue structure:
:func:`rate_monotonic_priorities` ranks a task set by minimum interarrival
(shortest period = most urgent) onto the three queue priorities of the
paper's Priority Local scheduler — the shortest-period tier runs HIGH,
the longest LOW, everything between NORMAL.  The service layer spawns
each job's subtasks at the assigned (or inherited, see
:mod:`repro.rt.resources`) priority and the stock ``priority-local``
policy does the rest.  This is deliberately the configuration where
priority inversion is *observable*: the LOW tier runs only when every
other queue is empty.

**Job-level EDF** (:class:`EdfScheduler`, registry name ``rt-edf``) is a
routing preset of the clock-free deadline-bucket scheduler
(:class:`~repro.schedulers.buckets.DeadlineBucketScheduler`, which the
``qos`` preset shares): one bucket per RT task (keyed by the
:class:`RtTag` each subtask carries in ``Task.qos``), and the bucket to
serve next is the one whose *head* job has the earliest absolute deadline.
Within a bucket releases are monotone and the relative deadline is
constant, so FIFO order *is* deadline order — which makes the bucket
selection exactly job-level EDF while selection stays a pure function of
queue contents (no clock reads, bit-reproducible everywhere).  EDF buckets
have rank 0, no warp and no starvation limit, so deadline ties break on
bucket creation (first-enqueue) order.  Subtasks without an :class:`RtTag`
fall into a default bucket whose deadline is ``arrival +
default_latency_ns``, so mixed workloads (and the differential fuzzer) run
unmodified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.runtime.task import Priority, Task
from repro.schedulers.buckets import DeadlineBucket, DeadlineBucketScheduler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.rt.model import TaskSet

__all__ = ["RtTag", "rate_monotonic_priorities", "EdfScheduler"]

#: bucket for subtasks that carry no RtTag
_UNTAGGED = "@untagged"


@dataclass(frozen=True)
class RtTag:
    """Deadline transport: rides in ``Task.qos`` (an ``Any`` slot that
    non-QoS-aware schedulers ignore entirely) from the service layer to
    the EDF scheduler.  Duck-typed via ``getattr``, so tasks tagged with a
    :class:`repro.qos.QosClass` — or nothing — coexist freely."""

    #: the job's absolute deadline on the simulated clock
    absolute_deadline_ns: int
    #: EDF bucket this subtask sorts under (the RT task's name)
    bucket_key: str
    #: job sequence number within the task (diagnostics/tie-breaks)
    job_id: int = 0


def rate_monotonic_priorities(taskset: "TaskSet") -> dict[str, Priority]:
    """RM assignment onto the three queue priorities, by task name.

    Tasks are ranked by minimum interarrival: every task sharing the
    shortest one runs HIGH, every task sharing the longest runs LOW, and
    the middle tiers run NORMAL.  A set with a single distinct period has
    no rate ordering to express and stays all-NORMAL.
    """
    periods = sorted({t.min_interarrival_ns for t in taskset.tasks})
    if len(periods) == 1:
        return {t.name: Priority.NORMAL for t in taskset.tasks}
    out: dict[str, Priority] = {}
    for t in taskset.tasks:
        if t.min_interarrival_ns == periods[0]:
            out[t.name] = Priority.HIGH
        elif t.min_interarrival_ns == periods[-1]:
            out[t.name] = Priority.LOW
        else:
            out[t.name] = Priority.NORMAL
    return out


class EdfScheduler(DeadlineBucketScheduler):
    """Job-level EDF via per-task buckets and clock-free root selection."""

    name = "rt-edf"

    def __init__(self, *, default_latency_ns: int = 5_000_000) -> None:
        super().__init__()
        if default_latency_ns < 0:
            raise ValueError(
                f"default_latency_ns must be >= 0, got {default_latency_ns}"
            )
        self.default_latency_ns = default_latency_ns
        self._by_key: dict[str, DeadlineBucket] = {}

    def _build_queues(self) -> None:
        super()._build_queues()
        self._by_key = {}

    def _bucket_for(self, task: Task) -> DeadlineBucket:
        key = getattr(task.qos, "bucket_key", None)
        if not isinstance(key, str) or not key:
            key = _UNTAGGED
        bucket = self._by_key.get(key)
        if bucket is None:
            # Buckets appear in first-enqueue order, which is itself a
            # deterministic function of the workload — ties in deadline
            # break on this index, keeping selection total and replayable.
            bucket = self._add_bucket(latency_ns=self.default_latency_ns)
            self._by_key[key] = bucket
        return bucket
