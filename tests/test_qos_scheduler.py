"""Unit tests for the Clutch-style QosBucketScheduler.

Covers the three root-bucket mechanisms (EDF selection, warp on wakeup,
starvation avoidance), the Fig. 1 thread phase inside a bucket, priority
fallback for unclassed tasks, and the registry/executor integration.
"""

import pytest

from repro.qos.classes import QosClass, default_classes
from repro.qos.scheduler import QosBucketScheduler
from repro.rt.scheduler import RtTag
from repro.runtime.runtime import Runtime, RuntimeConfig
from repro.runtime.task import Priority, Task
from repro.schedulers import SCHEDULERS, make_scheduler
from repro.schedulers.base import WorkSource
from repro.sim.machine import Machine
from repro.sim.platforms import HASWELL


def task(name="t", priority=Priority.NORMAL, qos=None, created_ns=0) -> Task:
    t = Task(lambda: None, name=name, priority=priority, qos=qos)
    t.created_ns = created_ns
    return t


def attached(cores=4, **kwargs) -> QosBucketScheduler:
    policy = QosBucketScheduler(**kwargs)
    policy.attach(Machine(HASWELL, cores))
    return policy


BATCH, STANDARD, INTERACTIVE = default_classes()


class TestConstruction:
    def test_registered_in_the_scheduler_registry(self):
        assert "qos" in SCHEDULERS
        policy = make_scheduler("qos")
        assert isinstance(policy, QosBucketScheduler)
        assert policy.name == "qos"

    def test_default_classes_are_the_three_tiers(self):
        policy = QosBucketScheduler()
        assert [c.name for c in policy.classes] == [
            "batch", "standard", "interactive",
        ]

    def test_duplicate_class_names_rejected(self):
        with pytest.raises(ValueError):
            QosBucketScheduler(classes=[BATCH, BATCH])

    def test_empty_classes_rejected(self):
        with pytest.raises(ValueError):
            QosBucketScheduler(classes=[])

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError):
            QosBucketScheduler(warp_dispatches=-1)
        with pytest.raises(ValueError):
            QosBucketScheduler(starvation_limit=0)


class TestRouting:
    def test_classed_task_lands_in_its_bucket(self):
        policy = attached()
        policy.enqueue_staged(task(qos=INTERACTIVE), 1)
        assert policy.bucket_queue("interactive", 1).staged_len == 1
        assert policy.bucket_queue("batch", 1).staged_len == 0

    def test_unclassed_task_routed_by_priority(self):
        policy = attached()
        policy.enqueue_staged(task(priority=Priority.LOW), 0)
        policy.enqueue_staged(task(priority=Priority.NORMAL), 0)
        policy.enqueue_staged(task(priority=Priority.HIGH), 0)
        assert policy.bucket_queue("batch", 0).staged_len == 1
        assert policy.bucket_queue("standard", 0).staged_len == 1
        assert policy.bucket_queue("interactive", 0).staged_len == 1

    def test_unknown_class_falls_back_to_priority(self):
        other = QosClass(name="elsewhere", rank=9, latency_target_ns=1_000)
        policy = attached()
        policy.enqueue_staged(task(qos=other, priority=Priority.LOW), 0)
        assert policy.bucket_queue("batch", 0).staged_len == 1

    def test_foreign_tag_falls_back_to_priority(self):
        tag = RtTag(absolute_deadline_ns=1_000, bucket_key="ctrl")
        policy = attached()
        policy.enqueue_staged(task(qos=tag, priority=Priority.HIGH), 0)
        assert policy.bucket_queue("interactive", 0).staged_len == 1

    def test_depth_introspection(self):
        policy = attached()
        policy.enqueue_staged(task(qos=BATCH), 2)
        policy.enqueue_pending(task(qos=INTERACTIVE), 2)
        policy.enqueue_staged(task(qos=STANDARD), 0)
        assert policy.worker_queue_depth(2) == 2
        assert policy.worker_queue_depth(0) == 1
        assert policy.queued_tasks() == 3


class TestEdfSelection:
    def test_tighter_latency_target_wins_at_equal_arrival(self):
        policy = attached()
        policy.enqueue_staged(task("b", qos=BATCH, created_ns=100), 0)
        policy.enqueue_staged(task("i", qos=INTERACTIVE, created_ns=100), 0)
        found = policy.find_work(0)
        assert found is not None and found.task.name == "i"

    def test_much_older_batch_work_overtakes_by_deadline(self):
        policy = attached()
        # Batch arrived 5 ms + 1 us before its target; interactive just now.
        policy.enqueue_staged(task("b", qos=BATCH, created_ns=0), 0)
        policy.enqueue_staged(
            task("i", qos=INTERACTIVE, created_ns=BATCH.latency_target_ns), 0
        )
        found = policy.find_work(0)
        assert found is not None and found.task.name == "b"

    def test_staged_converts_through_pending(self):
        policy = attached()
        policy.enqueue_staged(task("i", qos=INTERACTIVE), 0)
        found = policy.find_work(0)
        assert found.source is WorkSource.LOCAL_STAGED
        q = policy.bucket_queue("interactive", 0)
        assert q.stats.pending_accesses >= 1  # the conversion registered

    def test_steals_within_the_class_bucket(self):
        policy = attached(cores=4)
        policy.enqueue_staged(task("i", qos=INTERACTIVE), 3)
        found = policy.find_work(0)
        assert found is not None and found.task.name == "i"
        assert found.source.was_stolen

    def test_empty_policy_finds_nothing(self):
        assert attached().find_work(0) is None


class TestWarp:
    def test_wakeup_arms_warp_and_dispatch_consumes_it(self):
        policy = attached(warp_dispatches=2)
        policy.enqueue_staged(task(qos=INTERACTIVE), 0)
        bucket = policy._by_name["interactive"]
        assert bucket.warp_remaining == 2
        assert policy.find_work(0) is not None
        assert bucket.warp_remaining == 1

    def test_warp_advances_the_deadline(self):
        policy = attached()
        bucket = policy._by_name["interactive"]
        policy.enqueue_staged(task(qos=INTERACTIVE, created_ns=1_000), 0)
        warped = bucket.deadline()
        bucket.warp_remaining = 0
        assert bucket.deadline() == warped + INTERACTIVE.warp_ns

    def test_push_into_nonempty_bucket_does_not_rearm(self):
        policy = attached(warp_dispatches=2)
        policy.enqueue_staged(task(qos=INTERACTIVE), 0)
        bucket = policy._by_name["interactive"]
        bucket.warp_remaining = 0
        policy.enqueue_staged(task(qos=INTERACTIVE), 0)
        assert bucket.warp_remaining == 0

    def test_zero_warp_class_never_arms(self):
        policy = attached()
        assert BATCH.warp_ns == 0
        policy.enqueue_staged(task(qos=BATCH), 0)
        bucket = policy._by_name["batch"]
        assert bucket.warp_remaining == 0


class TestStarvationAvoidance:
    def test_skipped_bucket_is_eventually_forced(self):
        policy = attached(starvation_limit=3)
        # Batch weight 1 -> limit 3.  Keep interactive deadlines earlier.
        policy.enqueue_staged(task("b", qos=BATCH, created_ns=0), 0)
        for k in range(6):
            policy.enqueue_staged(
                task(f"i{k}", qos=INTERACTIVE, created_ns=1), 0
            )
        served = []
        for _ in range(4):
            found = policy.find_work(0)
            served.append(found.task.name)
        # Three interactive dispatches skip batch three times; the fourth
        # dispatch is forced to serve the starved batch bucket.
        assert served == ["i0", "i1", "i2", "b"]

    def test_heavier_classes_starve_sooner(self):
        policy = attached(starvation_limit=8)
        buckets = {c.name: b for c, b in zip(policy.classes, policy._buckets)}
        assert buckets["batch"].starvation_limit == 8  # weight 1
        assert buckets["standard"].starvation_limit == 4  # weight 2
        assert buckets["interactive"].starvation_limit == 2  # weight 4


class TestExecutorIntegration:
    def test_plain_workload_completes_under_qos_scheduler(self):
        rt = Runtime(RuntimeConfig(num_cores=4, scheduler="qos"))
        futures = [rt.async_(lambda k=k: k * k) for k in range(20)]
        rt.run()
        assert [f.value for f in futures] == [k * k for k in range(20)]

    def test_contention_penalty_grows_with_workers(self):
        policy = QosBucketScheduler()
        assert policy.shared_structure_penalty_ns(1) == 0
        assert policy.shared_structure_penalty_ns(8) > 0
