"""Unit tests for the policy engine and concurrency throttling."""

import pytest

from repro.apps.stencil1d import StencilConfig, build_stencil_graph
from repro.core.policy import PolicyEngine, PolicyContext, ThrottlingPolicy
from repro.runtime.runtime import Runtime, RuntimeConfig
from repro.runtime.task import Task
from repro.runtime.work import FixedWork


def stencil_runtime(cores=28, partition=512, total=1 << 19, steps=3, seed=5):
    rt = Runtime(RuntimeConfig(platform="haswell", num_cores=cores, seed=seed))
    cfg = StencilConfig(
        total_points=total, partition_points=partition, time_steps=steps
    )
    build_stencil_graph(rt, cfg)
    return rt


class TestExecutorThrottling:
    def test_limit_clamped(self):
        rt = Runtime(RuntimeConfig(num_cores=4))
        rt.executor.set_active_worker_limit(0)
        assert rt.executor.active_worker_limit == 1
        rt.executor.set_active_worker_limit(99)
        assert rt.executor.active_worker_limit == 4

    def test_throttled_run_completes(self):
        rt = Runtime(RuntimeConfig(num_cores=8, seed=1))
        rt.executor.set_active_worker_limit(2)
        for _ in range(40):
            rt.spawn(Task(lambda: None, work=FixedWork(10_000)))
        result = rt.run()
        assert result.tasks_executed == 40
        # Only the first two workers ever executed anything.
        busy = [w.index for w in rt.executor.workers if w.tasks_executed > 0]
        assert set(busy) <= {0, 1}

    def test_throttling_to_one_worker_serializes(self):
        def time_with(limit):
            rt = Runtime(RuntimeConfig(num_cores=8, seed=2))
            rt.executor.set_active_worker_limit(limit)
            for _ in range(32):
                rt.spawn(Task(lambda: None, work=FixedWork(100_000)))
            return rt.run().execution_time_ns

        assert time_with(1) > time_with(8) * 3

    def test_raising_limit_mid_run_wakes_parked_workers(self):
        rt = Runtime(RuntimeConfig(num_cores=4, seed=3))
        rt.executor.set_active_worker_limit(1)
        for _ in range(16):
            rt.spawn(Task(lambda: None, work=FixedWork(50_000)))
        # Raise the limit after 100 us of virtual time.
        rt.simulator.schedule(
            100_000, lambda: rt.executor.set_active_worker_limit(4)
        )
        rt.run()
        busy = [w.index for w in rt.executor.workers if w.tasks_executed > 0]
        assert len(busy) > 1


class TestPolicyEngine:
    def test_samples_taken(self):
        rt = stencil_runtime(cores=4, partition=4096, total=1 << 18)
        engine = PolicyEngine(rt, interval_ns=50_000)
        engine.run()
        assert len(rt.sampler.samples) >= 2

    def test_invalid_interval(self):
        rt = stencil_runtime(cores=2, partition=4096, total=1 << 16, steps=1)
        with pytest.raises(ValueError):
            PolicyEngine(rt, interval_ns=0)

    def test_policies_receive_context(self):
        rt = stencil_runtime(cores=4, partition=4096, total=1 << 18)
        seen = []

        class Recorder:
            def on_sample(self, sample, ctx: PolicyContext):
                seen.append((sample.length_ns, ctx.num_workers))

        PolicyEngine(rt, interval_ns=50_000).add_policy(Recorder()).run()
        assert seen
        assert all(nw == 4 for _, nw in seen)


class TestThrottlingPolicy:
    def test_fine_grain_gets_throttled_and_faster(self):
        plain = stencil_runtime().run()

        rt = stencil_runtime()
        policy = ThrottlingPolicy()
        result = PolicyEngine(rt, interval_ns=100_000).add_policy(policy).run()

        assert policy.decisions, "no throttling decisions at fine grain"
        assert rt.executor.active_worker_limit < 28
        assert result.execution_time_ns < plain.execution_time_ns

    def test_medium_grain_left_alone_or_harmless(self):
        plain = stencil_runtime(partition=8192).run()
        rt = stencil_runtime(partition=8192)
        policy = ThrottlingPolicy()
        result = PolicyEngine(rt, interval_ns=100_000).add_policy(policy).run()
        assert result.execution_time_ns < plain.execution_time_ns * 1.15

    def test_decisions_logged_with_reasons(self):
        rt = stencil_runtime()
        policy = ThrottlingPolicy()
        PolicyEngine(rt, interval_ns=100_000).add_policy(policy).run()
        for d in policy.decisions:
            assert d.new_limit != d.old_limit
            assert d.reason
            assert d.time_ns >= 0

    def test_never_below_min_workers(self):
        rt = stencil_runtime(cores=8, partition=256, total=1 << 18)
        policy = ThrottlingPolicy(min_workers=3)
        PolicyEngine(rt, interval_ns=50_000).add_policy(policy).run()
        assert rt.executor.active_worker_limit >= 3
        assert all(d.new_limit >= 3 for d in policy.decisions)
