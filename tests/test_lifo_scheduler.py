"""Unit tests for the Priority Local-LIFO scheduler variant."""

from repro.runtime.task import Task
from repro.schedulers import SCHEDULERS, make_scheduler
from repro.schedulers.lifo import LifoDualQueue, PriorityLocalLifoScheduler
from repro.schedulers.base import WorkSource
from repro.sim.machine import Machine
from repro.sim.platforms import HASWELL


def task(name="t"):
    return Task(lambda: None, name=name)


def attached(cores=4):
    p = PriorityLocalLifoScheduler()
    p.attach(Machine(HASWELL, cores))
    return p


class TestLifoDualQueue:
    def test_local_pops_are_lifo(self):
        q = LifoDualQueue()
        a, b = task("a"), task("b")
        q.push_pending(a)
        q.push_pending(b)
        assert q.pop_pending() is b
        assert q.pop_pending() is a

    def test_staged_pops_are_lifo(self):
        q = LifoDualQueue()
        a, b = task("a"), task("b")
        q.push_staged(a)
        q.push_staged(b)
        assert q.pop_staged() is b

    def test_access_counting_preserved(self):
        q = LifoDualQueue()
        q.pop_pending()
        assert q.stats.pending_accesses == 1
        assert q.stats.pending_misses == 1


class TestScheduler:
    def test_registered(self):
        assert SCHEDULERS["priority-local-lifo"] is PriorityLocalLifoScheduler
        assert isinstance(
            make_scheduler("priority-local-lifo"), PriorityLocalLifoScheduler
        )

    def test_depth_first_local_order(self):
        p = attached()
        a, b, c = task("a"), task("b"), task("c")
        for t in (a, b, c):
            p.enqueue_staged(t, 0)
        assert p.find_work(0).task is c
        assert p.find_work(0).task is b
        assert p.find_work(0).task is a

    def test_numa_search_order_unchanged(self):
        # Fig. 1's search order must be inherited intact: same-domain
        # staged work beats same-domain pending work.
        p = attached(cores=4)
        t_staged, t_pending = task("s"), task("p")
        p.enqueue_pending(t_pending, 1)
        p.enqueue_staged(t_staged, 2)
        found = p.find_work(0)
        assert found.task is t_staged
        assert found.source is WorkSource.NUMA_STAGED

    def test_runs_full_stencil(self):
        from repro.apps.stencil1d import StencilConfig, run_stencil
        from repro.runtime.runtime import RuntimeConfig

        cfg = StencilConfig(
            total_points=4096, partition_points=256, time_steps=3
        )
        out = run_stencil(
            RuntimeConfig(num_cores=4, scheduler="priority-local-lifo", seed=1),
            cfg,
        )
        assert out.result.tasks_executed == cfg.total_tasks

    def test_lifo_vs_fifo_differ_in_execution_order(self):
        def completion_order(scheduler):
            from repro.runtime.runtime import Runtime, RuntimeConfig
            from repro.runtime.work import FixedWork

            rt = Runtime(
                RuntimeConfig(num_cores=1, scheduler=scheduler, seed=1)
            )
            order = []
            for i in range(6):
                rt.spawn(
                    Task(lambda i=i: order.append(i), work=FixedWork(1_000)),
                    worker=0,
                )
            rt.run()
            return order

        fifo = completion_order("priority-local")
        lifo = completion_order("priority-local-lifo")
        assert fifo == sorted(fifo)
        assert lifo != fifo
