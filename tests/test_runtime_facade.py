"""Unit tests for the Runtime facade and RunResult."""

import pytest

from repro.core.policy import PolicyEngine
from repro.runtime.runtime import Runtime, RuntimeConfig, RunResult
from repro.runtime.work import FixedWork
from repro.schedulers.variants import StaticScheduler
from repro.sim.platforms import HASWELL


class TestRuntimeConfig:
    def test_platform_by_name_and_spec(self):
        assert RuntimeConfig(platform="haswell").resolve_platform() is HASWELL
        assert RuntimeConfig(platform=HASWELL).resolve_platform() is HASWELL

    def test_scheduler_by_name_and_instance(self):
        assert RuntimeConfig().resolve_scheduler().name == "priority-local"
        custom = StaticScheduler()
        assert RuntimeConfig(scheduler=custom).resolve_scheduler() is custom

    def test_kwargs_construction(self):
        rt = Runtime(platform="sb", num_cores=2)
        assert rt.platform.name.startswith("Sandy")
        assert rt.machine.num_cores == 2

    def test_config_and_kwargs_mutually_exclusive(self):
        with pytest.raises(TypeError):
            Runtime(RuntimeConfig(), num_cores=2)


class TestAsync:
    def test_async_returns_future_with_value(self):
        rt = Runtime(num_cores=1)
        f = rt.async_(lambda: 21 * 2)
        rt.run()
        assert f.value == 42

    def test_async_with_args(self):
        rt = Runtime(num_cores=1)
        f = rt.async_(lambda a, b: a + b, 1, 2)
        rt.run()
        assert f.value == 3

    def test_async_exception_lands_in_future(self):
        rt = Runtime(num_cores=1)

        def boom():
            raise ValueError("task failed")

        f = rt.async_(boom)
        rt.run()
        assert f.has_exception
        with pytest.raises(ValueError, match="task failed"):
            f.value

    def test_dataflow_through_runtime(self):
        rt = Runtime(num_cores=2)
        a = rt.async_(lambda: 10, work=FixedWork(100))
        b = rt.async_(lambda: 20, work=FixedWork(100))
        c = rt.dataflow(lambda x, y: x + y, [a, b])
        rt.run()
        assert c.value == 30


class TestRun:
    def test_single_use(self):
        rt = Runtime(num_cores=1)
        rt.async_(lambda: None)
        rt.run()
        with pytest.raises(RuntimeError, match="single-use"):
            rt.run()

    def test_result_fields(self):
        rt = Runtime(num_cores=2, seed=5)
        for _ in range(4):
            rt.async_(lambda: None, work=FixedWork(1_000))
        result = rt.run()
        assert isinstance(result, RunResult)
        assert result.num_cores == 2
        assert result.tasks_executed == 4
        assert result.execution_time_ns > 0
        assert result.execution_time_s == result.execution_time_ns / 1e9
        assert result.platform_name == "Haswell (HW)"

    def test_result_counter_properties(self):
        rt = Runtime(num_cores=2)
        for _ in range(8):
            rt.async_(lambda: None, work=FixedWork(2_000))
        result = rt.run()
        assert result.task_duration_ns > 0
        assert result.task_overhead_ns > 0
        assert result.cumulative_exec_ns <= result.cumulative_func_ns
        assert 0.0 <= result.idle_rate <= 1.0
        assert result.pending_accesses >= 8
        assert result.phases == 8

    def test_interval_sampling(self):
        rt = Runtime(num_cores=2)
        for _ in range(32):
            rt.async_(lambda: None, work=FixedWork(50_000))
        PolicyEngine(rt, interval_ns=20_000).run()
        assert len(rt.sampler.samples) >= 2
        total_tasks = sum(
            s.get("/threads/count/cumulative") for s in rt.sampler.samples
        )
        assert total_tasks <= 32

    def test_timer_counters_flag_changes_time(self):
        def total(flag):
            rt = Runtime(num_cores=1, seed=9, timer_counters=flag)
            for _ in range(50):
                rt.async_(lambda: None, work=FixedWork(1_000))
            return rt.run().execution_time_ns

        assert total(True) > total(False)
