"""Closed-form runs: makespans and queue counts derived by hand.

Every other oracle compares a run with another run.  With the cost
model's jitter turned off, a run whose schedule is forced has a makespan
and Fig. 9/10 access and miss counts that follow from the documented
terms alone, so a cost term or a counter that is wrong the same way in
every run fails here.  Each expected value below is written from those
terms, not copied from a run.

No makespan here has a poll term: a look into a queue costs no virtual
time and shows only in the access and miss counters.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.runtime.runtime import Runtime, RuntimeConfig
from repro.runtime.task import Task
from repro.runtime.work import FixedWork
from repro.sim import costmodel
from repro.sim.platforms import HASWELL

US = 1_000

# The per-task terms of Haswell's 900 ns management budget: CREATE_FRAC,
# CONVERT_FRAC and SWITCH_FRAC of it, the switch share plus the 30 ns
# timer of the timer counters.
CREATE_NS = 315  # 0.35 * 900
CONVERT_NS = 315  # 0.35 * 900
SWITCH_NS = 300  # 0.30 * 900 + 30


@pytest.fixture(autouse=True)
def no_jitter(monkeypatch):
    monkeypatch.setattr(costmodel, "JITTER_FRAC", 0)
    monkeypatch.setattr(costmodel, "RUN_JITTER_BASE", 0)
    monkeypatch.setattr(costmodel, "RUN_JITTER_PER_CORE2", 0)


def run(platform, cores, works):
    rt = Runtime(RuntimeConfig(platform=platform, num_cores=cores))
    for ns in works:
        rt.spawn(Task(lambda: None, work=FixedWork(ns)))
    result = rt.run()
    counts = tuple(
        int(result.counters.get(f"/threads/count/{name}"))
        for name in (
            "pending-accesses", "pending-misses",
            "staged-accesses", "staged-misses",
        )
    )
    return result.execution_time_ns, counts


def test_the_terms_are_the_documented_ones():
    costs = HASWELL.costs
    assert costs.task_overhead_ns == 900
    assert costs.timer_overhead_ns == 30
    assert (costmodel.CREATE_FRAC, costmodel.CONVERT_FRAC,
            costmodel.SWITCH_FRAC) == (0.35, 0.35, 0.30)
    assert costmodel.CostModel(HASWELL, 1).task_costs(1) == (
        costmodel.TaskCosts(CREATE_NS, CONVERT_NS, SWITCH_NS)
    )


class TestOneCoreTenTasks:
    """One Haswell core runs ten ``FixedWork(7_000)`` tasks back to back."""

    def test_makespan_is_ten_tasks_of_terms_and_work(self):
        makespan, _ = run(HASWELL, 1, [7_000] * 10)
        assert makespan == 10 * (CREATE_NS + CONVERT_NS + SWITCH_NS + 7_000)
        assert makespan == 79_300

    def test_queue_counts(self):
        # Per task the search misses the high-priority pair (one pending,
        # one staged probe) and the own pending lane, hits the own staged
        # lane, and the conversion's pending pop hits: pending 3/2 and
        # staged 2/1.  After the last task one search misses all three
        # queues (high-priority, own, low-priority) on each lane.
        _, counts = run(HASWELL, 1, [7_000] * 10)
        pending = (10 * 3 + 3, 10 * 2 + 3)
        staged = (10 * 2 + 3, 10 * 1 + 3)
        assert counts == (*pending, *staged) == (33, 23, 23, 13)


class TestStarvedSecondCore:
    """Two Haswell cores, no contention growth, one ``FixedWork(1_000_000)``
    task: one worker runs it while the other polls empty queues."""

    PLATFORM = replace(HASWELL, costs=replace(HASWELL.costs, contention_coef=0.0))
    #: the idle worker's searches: ``idle_backoff_ns`` waits 2**k us after
    #: its k-th consecutive miss, capped at 64 us from the sixth
    SEARCHES_US = [0, 2, 6, 14, 30, 62, 126, *range(190, 1_000, 64)]
    #: probes per lane of an all-miss search on two cores: own
    #: high-priority, own normal, the neighbour's normal, the neighbour's
    #: high-priority and the shared low-priority queue
    PROBES = 5

    def test_makespan_has_no_poll_term(self):
        makespan, _ = run(self.PLATFORM, 2, [1_000_000])
        assert makespan == CREATE_NS + CONVERT_NS + SWITCH_NS + 1_000_000
        assert makespan == 1_000_930

    def test_poll_counts_follow_the_backoff(self):
        _, counts = run(self.PLATFORM, 2, [1_000_000])
        searches = len(self.SEARCHES_US)
        assert searches == 20
        assert self.SEARCHES_US[-1] == 958
        idle = self.PROBES * searches  # every idle probe misses
        # The busy worker finds the task as on one core (pending 3/2,
        # staged 2/1) and makes one all-miss search when it ends.
        busy_pending = (3 + self.PROBES, 2 + self.PROBES)
        busy_staged = (2 + self.PROBES, 1 + self.PROBES)
        assert counts == (
            busy_pending[0] + idle, busy_pending[1] + idle,
            busy_staged[0] + idle, busy_staged[1] + idle,
        ) == (108, 107, 107, 106)
