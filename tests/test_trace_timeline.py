"""Unit tests for execution tracing and timeline analysis."""

import hashlib
from dataclasses import replace

import pytest

from repro.apps.stencil1d import StencilConfig, build_stencil_graph
from repro.core.timeline import (
    average_concurrency,
    concurrency_profile,
    critical_path_ns,
    render_gantt,
    wave_count,
    worker_utilization,
)
from repro.runtime.runtime import Runtime, RuntimeConfig
from repro.runtime.task import Task
from repro.runtime.work import FixedWork
from repro.sim.trace import ExecutionTrace, PhaseRecord


def traced_run(cores=4, n_tasks=40, work_ns=10_000, seed=1):
    rt = Runtime(RuntimeConfig(platform="haswell", num_cores=cores, seed=seed,
                               trace=True))
    for i in range(n_tasks):
        rt.spawn(Task(lambda: None, work=FixedWork(work_ns)), worker=i % cores)
    rt.run()
    return rt.trace


class TestTraceRecording:
    def test_one_record_per_phase(self):
        trace = traced_run(n_tasks=25)
        assert len(trace.phases) == 25
        assert len({p.task_id for p in trace.phases}) == 25

    def test_trace_validates(self):
        trace = traced_run(cores=8, n_tasks=100)
        assert trace.validate() == []

    def test_finish_time_recorded(self):
        trace = traced_run()
        assert trace.finish_ns > 0
        assert all(p.end_ns <= trace.finish_ns for p in trace.phases)

    def test_steals_recorded_when_imbalanced(self):
        rt = Runtime(RuntimeConfig(platform="haswell", num_cores=4, seed=2,
                                   trace=True))
        for _ in range(40):
            rt.spawn(Task(lambda: None, work=FixedWork(50_000)), worker=0)
        rt.run()
        assert rt.trace.steals
        thief_ids = {s.thief for s in rt.trace.steals}
        assert thief_ids - {0}  # someone other than the victim stole

    def test_untraced_run_has_no_trace(self):
        rt = Runtime(RuntimeConfig(num_cores=1))
        rt.async_(lambda: None)
        rt.run()
        assert rt.trace is None

    def test_suspension_produces_two_phase_records(self):
        from repro.runtime.future import Future

        rt = Runtime(RuntimeConfig(num_cores=1, trace=True))
        gate = Future()

        def suspender():
            yield gate

        t = Task(suspender, work=FixedWork(1_000))
        rt.spawn(t)
        rt.spawn(Task(lambda: gate.set_value(1), work=FixedWork(20_000)))
        rt.run()
        assert [p.task_id for p in rt.trace.phases].count(t.task_id) == 2

    def test_validate_catches_overlap(self):
        trace = ExecutionTrace(num_workers=1)
        trace.phases.append(PhaseRecord(1, "a", 0, 1, 0, 10, 10, 100, "local"))
        trace.phases.append(PhaseRecord(2, "b", 0, 1, 50, 10, 60, 150, "local"))
        assert any("overlap" in p for p in trace.validate())

    def test_validate_catches_mgmt_gap_mismatch(self):
        trace = ExecutionTrace(num_workers=1)
        trace.phases.append(PhaseRecord(1, "a", 0, 1, 0, 10, 30, 100, "local"))
        assert any("mgmt gap" in p for p in trace.validate())


def trace_digest(trace: ExecutionTrace) -> str:
    """sha256 over the spawn, steal and phase records, in list order, and
    ``finish_ns``.  Task ids come from a process-wide counter, so the
    digest renumbers them by first appearance."""
    ids: dict[int, int] = {}

    def renumber(task_id):
        return None if task_id is None else ids.setdefault(task_id, len(ids))

    lines = [
        repr(replace(s, parent_task_id=renumber(s.parent_task_id),
                     child_task_id=renumber(s.child_task_id)))
        for s in trace.spawns
    ]
    lines += [repr(s) for s in trace.steals]
    lines += [repr(replace(p, task_id=renumber(p.task_id)))
              for p in trace.phases]
    lines.append(f"finish_ns {trace.finish_ns}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestTracePin:
    """The exact records of two small traced stencil runs."""

    @pytest.mark.parametrize("scheduler, cores, digest", [
        ("priority-local", 28,
         "0d6aa3ad80ca7835e0ba3c54c9a5116bab585fe75604869f8447c44388f26222"),
        ("priority-local-lifo", 8,
         "8a144852d5543e6253803e6dd181884ece58517119f2fb8889f2de789b15d1f9"),
    ], ids=["priority-local", "priority-local-lifo"])
    def test_records_pinned(self, scheduler, cores, digest):
        rt = Runtime(RuntimeConfig(platform="haswell", num_cores=cores,
                                   scheduler=scheduler, seed=1, trace=True))
        build_stencil_graph(rt, StencilConfig(
            total_points=100_000, partition_points=2_000, time_steps=5))
        rt.run()
        assert rt.trace.steals
        assert trace_digest(rt.trace) == digest


class TestUtilization:
    def test_split_sums_to_total(self):
        trace = traced_run(cores=4)
        for u in worker_utilization(trace):
            assert u.exec_ns + u.mgmt_ns + u.idle_ns == u.total_ns
            assert 0.0 <= u.exec_fraction <= 1.0

    def test_balanced_load_similar_utilization(self):
        trace = traced_run(cores=4, n_tasks=400, work_ns=5_000)
        fractions = [u.exec_fraction for u in worker_utilization(trace)]
        assert max(fractions) - min(fractions) < 0.2

    def test_starved_workers_idle(self):
        # 1 task on 4 cores: three workers are fully idle.
        trace = traced_run(cores=4, n_tasks=1, work_ns=100_000)
        idle_workers = [
            u for u in worker_utilization(trace) if u.exec_ns == 0
        ]
        assert len(idle_workers) == 3


class TestConcurrency:
    def test_profile_bounded_by_workers(self):
        trace = traced_run(cores=4, n_tasks=64)
        profile = concurrency_profile(trace)
        assert all(0 <= level <= 4 for _, level in profile)
        assert max(level for _, level in profile) == 4

    def test_average_concurrency_matches_exec_sum(self):
        trace = traced_run(cores=4, n_tasks=64)
        avg = average_concurrency(trace)
        expected = sum(p.duration_ns for p in trace.phases) / trace.finish_ns
        assert avg == pytest.approx(expected)

    def test_empty_trace(self):
        trace = ExecutionTrace(num_workers=2)
        assert concurrency_profile(trace) == [(0, 0)]
        assert average_concurrency(trace) == 0.0

    def test_wave_count_on_barrier_schedule(self):
        # Coarse stencil: 2 partitions per step on 2 cores => each time step
        # is its own wave of width 2.
        rt = Runtime(RuntimeConfig(num_cores=2, seed=3, trace=True))
        cfg = StencilConfig(
            total_points=200_000, partition_points=100_000, time_steps=4
        )
        build_stencil_graph(rt, cfg)
        rt.run()
        waves = wave_count(rt.trace, threshold_fraction=0.9)
        assert waves >= 3  # one per step, modulo pipelining at the seams


class TestCriticalPath:
    def test_serial_chain_equals_sum(self):
        trace = ExecutionTrace(num_workers=1)
        t = 0
        for i in range(5):
            trace.phases.append(
                PhaseRecord(i, f"t{i}", 0, 1, t, 10, t + 10, t + 110, "local")
            )
            t += 110
        trace.finish_ns = t
        assert critical_path_ns(trace) == 5 * 110

    def test_parallel_phases_not_chained(self):
        trace = ExecutionTrace(num_workers=2)
        trace.phases.append(PhaseRecord(1, "a", 0, 1, 0, 0, 0, 100, "local"))
        trace.phases.append(PhaseRecord(2, "b", 1, 1, 0, 0, 0, 100, "local"))
        trace.finish_ns = 100
        assert critical_path_ns(trace) == 100

    def test_bounds_makespan_from_below(self):
        trace = traced_run(cores=4, n_tasks=64)
        assert critical_path_ns(trace) <= trace.finish_ns

    def test_empty(self):
        assert critical_path_ns(ExecutionTrace(num_workers=1)) == 0


class TestGantt:
    def test_renders_rows_per_worker(self):
        trace = traced_run(cores=3, n_tasks=12)
        art = render_gantt(trace, width=60)
        lines = art.splitlines()
        assert len([l for l in lines if l.startswith("w")]) == 3
        assert "#" in art

    def test_caps_worker_rows(self):
        trace = traced_run(cores=8, n_tasks=16)
        art = render_gantt(trace, max_workers=4)
        assert "more workers" in art

    def test_empty_trace(self):
        assert render_gantt(ExecutionTrace(num_workers=1)) == "(empty trace)"
