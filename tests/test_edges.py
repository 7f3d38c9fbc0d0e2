"""Edge-case tests across modules (gaps found during review)."""

import pytest

from repro.core.policy import PolicyEngine
from repro.counters.interval import IntervalSampler
from repro.counters.registry import CounterRegistry
from repro.experiments import cli
from repro.runtime.runtime import Runtime, RuntimeConfig
from repro.runtime.task import Task
from repro.runtime.work import FixedWork
from repro.sim.machine import Machine
from repro.sim.platforms import SANDY_BRIDGE


class TestIntervalSamplerEdges:
    def test_zero_length_interval(self):
        reg = CounterRegistry()
        reg.raw("/a/b")
        sampler = IntervalSampler(reg)
        sampler.start(100)
        s = sampler.sample(100)
        assert s.length_ns == 0
        assert s.get("/a/b") == 0

    def test_samples_accumulate(self):
        reg = CounterRegistry()
        sampler = IntervalSampler(reg)
        sampler.start(0)
        for t in (10, 20, 30):
            sampler.sample(t)
        assert [s.end_ns for s in sampler.samples] == [10, 20, 30]


class TestUptimeCounter:
    def test_uptime_tracks_virtual_time(self):
        rt = Runtime(RuntimeConfig(num_cores=1, seed=1))
        rt.spawn(Task(lambda: None, work=FixedWork(5_000)))
        result = rt.run()
        uptime = result.counters.get("/runtime/uptime")
        assert uptime == result.execution_time_ns

    def test_uptime_delta_is_interval_length(self):
        rt = Runtime(RuntimeConfig(num_cores=2, seed=1))
        for _ in range(16):
            rt.spawn(Task(lambda: None, work=FixedWork(40_000)))
        PolicyEngine(rt, interval_ns=50_000).run()
        # The final tick can fire after the run finished (uptime freezes at
        # finish_ns), so it is exempt.
        for s in rt.sampler.samples[:-1]:
            assert s.get("/runtime/uptime") == pytest.approx(
                s.length_ns, abs=1
            )


class TestMachineEdges:
    def test_partial_second_domain(self):
        # Sandy Bridge: 16 cores, 2 domains of 8; ask for 9 cores.
        m = Machine(SANDY_BRIDGE, 9)
        assert len(m.domains) == 2
        assert m.domains[0].core_indices == tuple(range(8))
        assert m.domains[1].core_indices == (8,)
        assert m.same_domain_cores(8) == ()
        assert m.remote_domain_cores(8) == tuple(range(8))


class TestCliEdges:
    def test_exit_code_counts_failing_experiments(self, tmp_path, monkeypatch):
        # Force a shape-check failure by monkeypatching table1's checks.
        from repro.experiments import table1_platforms

        monkeypatch.setattr(
            table1_platforms, "shape_checks", lambda fig: ["synthetic failure"]
        )
        rc = cli.main(["table1", "--scale", "smoke", "--no-plots"])
        assert rc == 1

    def test_markdown_records_failures(self, tmp_path, monkeypatch):
        from repro.experiments import table1_platforms

        monkeypatch.setattr(
            table1_platforms, "shape_checks", lambda fig: ["synthetic failure"]
        )
        path = tmp_path / "r.md"
        cli.main(
            ["table1", "--scale", "smoke", "--no-plots", "--markdown", str(path)]
        )
        assert "FAIL: synthetic failure" in path.read_text()


class TestRunResultEdges:
    def test_empty_run_metrics_are_degenerate(self):
        rt = Runtime(RuntimeConfig(num_cores=2))
        result = rt.run()
        assert result.execution_time_ns == 0
        assert result.tasks_executed == 0
        assert result.idle_rate == 0.0
        assert result.task_duration_ns == 0.0

    def test_spawn_after_run_is_rejected_by_single_use(self):
        rt = Runtime(RuntimeConfig(num_cores=1))
        rt.run()
        with pytest.raises(RuntimeError):
            rt.run()
