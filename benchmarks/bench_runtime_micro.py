"""Micro-benchmarks of the library itself (wall-clock, multiple rounds).

Unlike the figure benchmarks (which time one deterministic simulation),
these measure the Python-level throughput of the hot paths: simulated task
execution, scheduler work-finding, future/dataflow bookkeeping, and counter
snapshots.  They exist so performance regressions in the substrate are
caught — a 2x slower event loop doubles every experiment's wall time.
"""

from repro.counters.registry import CounterRegistry
from repro.runtime.future import make_ready_future
from repro.runtime.runtime import Runtime, RuntimeConfig
from repro.runtime.task import Task
from repro.runtime.work import FixedWork
from repro.schedulers.priority_local import PriorityLocalScheduler
from repro.sim.engine import Simulator
from repro.sim.machine import Machine
from repro.sim.platforms import HASWELL


def test_engine_event_throughput(benchmark):
    """Raw heap push/pop rate of the DES engine (100k events)."""

    def run():
        sim = Simulator()
        count = 100_000
        for i in range(count):
            sim.schedule(i, lambda: None)
        sim.run()
        return sim.now

    assert benchmark(run) == 99_999


def test_simulated_task_throughput(benchmark):
    """End-to-end simulated tasks per second (spawn + schedule + complete)."""

    def run():
        rt = Runtime(RuntimeConfig(platform="haswell", num_cores=8, seed=1))
        for _ in range(5_000):
            rt.spawn(Task(lambda: None, work=FixedWork(1_000)))
        return rt.run().execution_time_ns

    assert benchmark(run) > 0


def test_scheduler_find_work_hit(benchmark):
    """One find_work call against a populated local pending queue."""
    policy = PriorityLocalScheduler()
    policy.attach(Machine(HASWELL, 8))

    def run():
        policy.enqueue_pending(Task(lambda: None), 0)
        return policy.find_work(0)

    assert benchmark(run) is not None


def test_scheduler_find_work_full_miss(benchmark):
    """One find_work scan over every queue of an empty 28-worker system.

    Each round sets the may-have-work bit again, as an enqueue would, so
    every round runs the full search rather than the skip.
    """
    policy = PriorityLocalScheduler()
    policy.attach(Machine(HASWELL, 28))

    def run():
        policy._may_have_work = True
        return policy.find_work(0)

    assert benchmark(run) is None


def test_scheduler_find_work_skipped_miss(benchmark):
    """One find_work on an empty 28-worker system after a full miss has
    cleared the may-have-work bit: the search is skipped and only its
    probes are charged."""
    policy = PriorityLocalScheduler()
    policy.attach(Machine(HASWELL, 28))
    assert policy.find_work(0) is None  # the full miss clears the bit
    assert benchmark(lambda: policy.find_work(0)) is None
    assert not policy._may_have_work


def test_dataflow_graph_construction(benchmark):
    """Build a 1000-node dependency chain (no execution)."""

    def run():
        rt = Runtime(RuntimeConfig(platform="haswell", num_cores=1))
        f = make_ready_future(0)
        for _ in range(1_000):
            f = rt.dataflow(lambda x: x + 1, [f], work=FixedWork(100))
        return f

    assert benchmark(run) is not None


def test_counter_snapshot(benchmark):
    """Snapshot of a registry the size a 28-core runtime registers."""
    reg = CounterRegistry()
    for i in range(28):
        reg.raw(f"/threads{{locality#0/worker-thread#{i}}}/count/cumulative")
        reg.average(f"/threads{{locality#0/worker-thread#{i}}}/time/average")
    for name in ("/threads/idle-rate", "/threads/count/cumulative"):
        reg.derived(name, lambda: 0.0)
    snap = benchmark(reg.snapshot)
    assert len(snap.values) + len(snap.average_pairs) == 58
