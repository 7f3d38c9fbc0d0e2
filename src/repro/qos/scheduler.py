"""Clutch-style QoS bucket scheduler: the ``qos`` preset.

The root-bucket phase (EDF over bucket deadlines, warp on wakeup,
starvation avoidance) and the Fig. 1 thread phase live in
:class:`~repro.schedulers.buckets.DeadlineBucketScheduler`; this preset
supplies only validation and routing:

- one bucket per :class:`~repro.qos.classes.QosClass`, built up front in
  class-list order (which is the final tie-break), whose deadline is the
  earliest queued arrival plus the class's ``latency_target_ns`` — the
  target is constant per bucket, so the earliest head also has the
  earliest deadline;
- the bucket's rank and warp are the class's ``rank`` and ``warp_ns``;
  work arriving into an empty bucket arms ``warp_dispatches`` selections
  of warp, which is what keeps interactive wakeup latency flat under load;
- the bucket's starvation limit is ``max(1, starvation_limit // weight)``
  — heavier classes tolerate fewer skips.  This is why batch work still
  progresses while higher tiers saturate the machine (asserted by figQ).

Tasks whose ``Task.qos`` tag names no configured class — unclassed tasks,
classes from another configuration, or foreign tags such as the real-time
layer's :class:`~repro.rt.scheduler.RtTag` — are routed by their queue
priority via :func:`~repro.qos.classes.class_for_priority`, so any existing
workload runs under ``scheduler="qos"`` unmodified — the property the
differential fuzzer leans on.
"""

from __future__ import annotations

from typing import Sequence

from repro.qos.classes import QosClass, class_for_priority, default_classes
from repro.runtime.task import Task
from repro.schedulers.buckets import DeadlineBucket, DeadlineBucketScheduler
from repro.schedulers.queues import DualQueue

__all__ = ["QosBucketScheduler"]


class QosBucketScheduler(DeadlineBucketScheduler):
    """Per-class EDF root buckets with warp and starvation avoidance."""

    name = "qos"

    def __init__(
        self,
        classes: Sequence[QosClass] | None = None,
        *,
        warp_dispatches: int = 4,
        starvation_limit: int = 8,
    ) -> None:
        super().__init__()
        resolved = tuple(classes) if classes is not None else default_classes()
        if not resolved:
            raise ValueError("QosBucketScheduler needs at least one class")
        names = [c.name for c in resolved]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate QoS class names: {names}")
        if warp_dispatches < 0:
            raise ValueError(f"warp_dispatches must be >= 0, got {warp_dispatches}")
        if starvation_limit < 1:
            raise ValueError(f"starvation_limit must be >= 1, got {starvation_limit}")
        self.classes = resolved
        self.warp_dispatches = warp_dispatches
        self.starvation_limit = starvation_limit
        self._by_name: dict[str, DeadlineBucket] = {}

    def _build_queues(self) -> None:
        super()._build_queues()
        self._by_name = {
            c.name: self._add_bucket(
                latency_ns=c.latency_target_ns,
                rank=c.rank,
                warp_ns=c.warp_ns,
                starvation_limit=max(1, self.starvation_limit // c.weight),
            )
            for c in self.classes
        }

    def _bucket_for(self, task: Task) -> DeadlineBucket:
        bucket = self._by_name.get(getattr(task.qos, "name", None))
        if bucket is None:
            cls = class_for_priority(task.priority, self.classes)
            bucket = self._by_name[cls.name]
        return bucket

    def bucket_queue(self, class_name: str, worker: int) -> DualQueue:
        """The ``worker``-homed queue of class ``class_name``.

        Tests read it to check the routing law: a classed task lands in
        its class's bucket, and an unclassed, unknown or foreign-tagged
        one in the bucket its priority maps to.
        """
        return self._by_name[class_name].queues[worker]
