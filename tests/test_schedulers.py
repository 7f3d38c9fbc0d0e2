"""Unit tests for queues and scheduling policies (incl. Fig. 1's order)."""

import pytest

from repro.qos.scheduler import QosBucketScheduler
from repro.rt.scheduler import EdfScheduler
from repro.runtime.task import Priority, Task
from repro.schedulers import SCHEDULERS, make_scheduler
from repro.schedulers.base import WorkSource
from repro.schedulers.priority_local import PriorityLocalScheduler
from repro.schedulers.queues import DualQueue
from repro.schedulers.variants import (
    GlobalQueueScheduler,
    NumaBlindStealingScheduler,
    StaticScheduler,
)
from repro.sim.machine import Machine
from repro.sim.platforms import HASWELL


def task(name="t", priority=Priority.NORMAL) -> Task:
    return Task(lambda: None, name=name, priority=priority)


def attached(policy, cores=4, platform=HASWELL):
    policy.attach(Machine(platform, cores))
    return policy


class TestDualQueue:
    def test_fifo_order_pending(self):
        q = DualQueue()
        a, b = task("a"), task("b")
        q.push_pending(a)
        q.push_pending(b)
        assert q.pop_pending() is a
        assert q.pop_pending() is b

    def test_fifo_order_staged(self):
        q = DualQueue()
        a, b = task("a"), task("b")
        q.push_staged(a)
        q.push_staged(b)
        assert q.pop_staged() is a
        assert q.pop_staged() is b

    def test_access_and_miss_counting(self):
        q = DualQueue()
        q.pop_pending()  # miss
        q.push_pending(task())
        q.pop_pending()  # hit
        assert q.stats.pending_accesses == 2
        assert q.stats.pending_misses == 1

    def test_staged_counting_separate(self):
        q = DualQueue()
        q.pop_staged()
        assert q.stats.staged_accesses == 1
        assert q.stats.staged_misses == 1
        assert q.stats.pending_accesses == 0

    def test_lengths_do_not_count_accesses(self):
        q = DualQueue()
        q.push_pending(task())
        assert q.pending_len == 1
        assert q.staged_len == 0
        assert not q.is_empty
        assert q.stats.pending_accesses == 0


class Fig1Order:
    """The work-finding order of the paper's Fig. 1, steps 1-6.

    Mixed into one test class per policy that runs the shared thread phase
    (:func:`repro.schedulers.base.fig1_search`): Priority Local, and the
    ``qos`` and ``rt-edf`` deadline-bucket presets, where untagged NORMAL
    tasks all land in one bucket.
    """

    policy: type

    def test_own_pending_first(self):
        p = attached(self.policy())
        t_pending, t_staged = task("p"), task("s")
        p.enqueue_pending(t_pending, 0)
        p.enqueue_staged(t_staged, 0)
        found = p.find_work(0)
        assert found.task is t_pending
        assert found.source is WorkSource.LOCAL_PENDING

    def test_own_staged_second(self):
        p = attached(self.policy())
        t = task()
        p.enqueue_staged(t, 0)
        found = p.find_work(0)
        assert found.task is t
        assert found.source is WorkSource.LOCAL_STAGED
        assert not found.source.was_stolen
        assert found.source.was_staged

    def test_numa_staged_before_numa_pending(self):
        # 4 cores on Haswell all share domain 0.
        p = attached(self.policy(), cores=4)
        t_staged, t_pending = task("s"), task("p")
        p.enqueue_pending(t_pending, 1)
        p.enqueue_staged(t_staged, 2)
        found = p.find_work(0)
        assert found.task is t_staged
        assert found.source is WorkSource.NUMA_STAGED
        assert found.source.was_stolen and found.source.same_domain

    def test_numa_pending_fourth(self):
        p = attached(self.policy(), cores=4)
        t = task()
        p.enqueue_pending(t, 3)
        found = p.find_work(0)
        assert found.source is WorkSource.NUMA_PENDING

    def test_remote_staged_before_remote_pending(self):
        # 16 cores: workers 14/15 are in NUMA domain 1.
        p = attached(self.policy(), cores=16)
        t_staged, t_pending = task("rs"), task("rp")
        p.enqueue_pending(t_pending, 14)
        p.enqueue_staged(t_staged, 15)
        found = p.find_work(0)
        assert found.task is t_staged
        assert found.source is WorkSource.REMOTE_STAGED
        assert not found.source.same_domain

    def test_local_numa_preferred_over_remote(self):
        p = attached(self.policy(), cores=16)
        t_near, t_far = task("near"), task("far")
        p.enqueue_staged(t_far, 15)   # remote domain
        p.enqueue_staged(t_near, 1)   # same domain as worker 0
        found = p.find_work(0)
        assert found.task is t_near

    def test_stolen_staged_converts_through_thief_pending(self):
        p = attached(self.policy(), cores=4)
        p.enqueue_staged(task(), 2)
        assert p.find_work(0).source is WorkSource.NUMA_STAGED
        (victim,) = [
            q for q in p.queues() if q.stats.staged_accesses > q.stats.staged_misses
        ]
        (thief,) = [
            q for q in p.queues() if q.stats.pending_accesses > q.stats.pending_misses
        ]
        # The thief's own queue missed at step 1, then popped the converted
        # description: the Fig. 9/10 conversion traffic lands on the thief.
        assert thief is not victim
        assert (thief.stats.pending_accesses, thief.stats.pending_misses) == (2, 1)

    def test_empty_returns_none(self):
        p = attached(self.policy())
        assert p.find_work(0) is None


class TestPriorityLocalOrder(Fig1Order):
    """Fig. 1 under the paper's scheduler, plus its priority queues."""

    policy = PriorityLocalScheduler

    def test_high_priority_beats_local_pending(self):
        p = attached(PriorityLocalScheduler())
        normal, high = task("n"), task("h", Priority.HIGH)
        p.enqueue_pending(normal, 0)
        p.enqueue_staged(high, 0)
        found = p.find_work(0)
        assert found.task is high
        assert found.source is WorkSource.HIGH_PRIORITY

    def test_high_priority_stolen_before_idle(self):
        p = attached(PriorityLocalScheduler(), cores=4)
        high = task("h", Priority.HIGH)
        p.enqueue_staged(high, 2)  # goes to HP queue #2
        found = p.find_work(0)
        assert found.task is high
        assert found.source is WorkSource.HIGH_PRIORITY

    def test_low_priority_only_when_nothing_else(self):
        p = attached(PriorityLocalScheduler(), cores=2)
        low, normal = task("l", Priority.LOW), task("n")
        p.enqueue_staged(low, 0)
        p.enqueue_staged(normal, 1)
        first = p.find_work(0)
        assert first.task is normal
        second = p.find_work(0)
        assert second.task is low
        assert second.source is WorkSource.LOW_PRIORITY

    def test_hp_queue_count_configurable(self):
        p = attached(PriorityLocalScheduler(num_high_priority_queues=1), cores=4)
        high = task("h", Priority.HIGH)
        p.enqueue_staged(high, 3)  # 3 % 1 == 0: lands in the only HP queue
        assert p.find_work(0).task is high

    def test_invalid_hp_queue_count(self):
        with pytest.raises(ValueError):
            attached(PriorityLocalScheduler(num_high_priority_queues=9), cores=4)

    def test_queued_tasks_counts_everything(self):
        p = attached(PriorityLocalScheduler(), cores=2)
        p.enqueue_staged(task(), 0)
        p.enqueue_pending(task(), 1)
        p.enqueue_staged(task("h", Priority.HIGH), 0)
        assert p.queued_tasks() == 3

    def test_aggregate_stats_sums_queues(self):
        p = attached(PriorityLocalScheduler(), cores=2)
        p.find_work(0)  # misses everywhere
        stats = p.aggregate_stats()
        assert stats.pending_accesses > 0
        assert stats.pending_misses == stats.pending_accesses


class TestQosPresetOrder(Fig1Order):
    """Fig. 1 inside one ``qos`` bucket (untagged NORMAL: "standard")."""

    policy = QosBucketScheduler


class TestEdfPresetOrder(Fig1Order):
    """Fig. 1 inside one ``rt-edf`` bucket (untagged: the default one)."""

    policy = EdfScheduler


class TestStaticScheduler:
    def test_never_steals(self):
        p = attached(StaticScheduler(), cores=2)
        p.enqueue_staged(task(), 1)
        assert p.find_work(0) is None
        assert p.find_work(1) is not None

    def test_own_pending_then_staged(self):
        p = attached(StaticScheduler(), cores=1)
        s, pe = task("s"), task("p")
        p.enqueue_staged(s, 0)
        p.enqueue_pending(pe, 0)
        assert p.find_work(0).task is pe
        assert p.find_work(0).task is s


class TestGlobalQueueScheduler:
    def test_any_worker_sees_all_work(self):
        p = attached(GlobalQueueScheduler(), cores=4)
        p.enqueue_staged(task(), 3)
        assert p.find_work(0) is not None

    def test_fifo_across_producers(self):
        p = attached(GlobalQueueScheduler(), cores=4)
        a, b = task("a"), task("b")
        p.enqueue_staged(a, 2)
        p.enqueue_staged(b, 0)
        assert p.find_work(1).task is a
        assert p.find_work(1).task is b

    def test_contention_penalty_grows(self):
        p = attached(GlobalQueueScheduler(), cores=4)
        assert p.shared_structure_penalty_ns(1) == 0
        assert p.shared_structure_penalty_ns(4) > p.shared_structure_penalty_ns(2)

    def test_per_worker_policies_have_no_penalty(self):
        p = attached(PriorityLocalScheduler(), cores=4)
        assert p.shared_structure_penalty_ns(4) == 0


class TestNumaBlindScheduler:
    def test_steals_in_flat_order(self):
        p = attached(NumaBlindStealingScheduler(), cores=16)
        t_far = task("far")
        p.enqueue_staged(t_far, 14)  # remote domain, but lowest staged index
        found = p.find_work(0)
        assert found.task is t_far
        assert found.source is WorkSource.REMOTE_STAGED

    def test_same_domain_source_labelled(self):
        p = attached(NumaBlindStealingScheduler(), cores=4)
        p.enqueue_staged(task(), 1)
        assert p.find_work(0).source is WorkSource.NUMA_STAGED


class TestRegistry:
    def test_all_registered_schedulers_constructible(self):
        for name in SCHEDULERS:
            policy = make_scheduler(name)
            policy.attach(Machine(HASWELL, 2))
            assert policy.find_work(0) is None

    def test_unknown_scheduler(self):
        with pytest.raises(KeyError, match="unknown scheduler"):
            make_scheduler("fifo-lifo")

    def test_paper_scheduler_is_default_registry_entry(self):
        assert SCHEDULERS["priority-local"] is PriorityLocalScheduler
