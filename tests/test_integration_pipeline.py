"""Cross-module integration: the full methodology pipeline on several
workloads, and consistency between independently computed quantities."""

import pytest

from repro.apps.microbench import MicrobenchConfig, run_task_ladder
from repro.apps.stencil1d import stencil_run_fn
from repro.apps.wavefront2d import wavefront_run_fn
from repro.core.characterize import characterize
from repro.core.metrics import GranularityMetrics, MetricInputs
from repro.core.selection import select_by_idle_rate, select_by_min_time
from repro.runtime.runtime import RuntimeConfig


class TestPipelineOnLadder:
    """characterize/selection on the dependency-free micro-benchmark, where
    the 'grain' is tasks-per-run at constant total work."""

    @pytest.fixture(scope="class")
    def report(self):
        total_work = 40_000_000

        def run_fn(cfg: RuntimeConfig, grain: int):
            return run_task_ladder(
                cfg,
                MicrobenchConfig(
                    total_work_ns=total_work,
                    num_tasks=max(1, total_work // grain),
                ),
            )

        return characterize(
            run_fn,
            [500, 5_000, 50_000, 500_000, 5_000_000, 40_000_000],
            platform="haswell",
            num_cores=8,
            repetitions=2,
            seed=4,
            measure_single_core_reference=False,
        )

    def test_u_shape(self, report):
        times = [p.execution_time_s.mean for p in report.points]
        best = min(times)
        assert times[0] > best  # overhead wall
        assert times[-1] > best  # single-task serialization

    def test_selection_rules_agree_roughly(self, report):
        oracle = select_by_min_time(report)
        idle = select_by_idle_rate(report, threshold=0.30)
        assert idle.slowdown <= 1.5

    def test_task_counts_follow_grain(self, report):
        for p in report.points:
            assert p.tasks_executed == max(1, 40_000_000 // p.grain)


class TestCrossWorkloadConsistency:
    def test_metrics_identities_hold_on_real_runs(self):
        """Eq. 1-4 computed two ways (RunResult properties vs the metrics
        module) agree on every workload."""
        runs = [
            stencil_run_fn(1 << 16, 3)(
                RuntimeConfig(num_cores=4, seed=1), 1_024
            ),
            wavefront_run_fn(256, cell_ns=5)(
                RuntimeConfig(num_cores=4, seed=2), 32
            ),
        ]
        for result in runs:
            m = GranularityMetrics.compute(MetricInputs.from_run_result(result))
            assert m.idle_rate == pytest.approx(result.idle_rate, rel=1e-9)
            assert m.task_duration_ns == pytest.approx(
                result.task_duration_ns, rel=1e-6
            )
            # Eq. 3 via worker-time accounting vs per-task counter: the
            # former includes starvation, so it must dominate.
            assert m.task_overhead_ns >= result.task_overhead_ns * 0.99

    def test_trace_agrees_with_counters(self):
        """The trace's per-worker exec sums must equal the exec counter."""
        from repro.apps.stencil1d import StencilConfig, build_stencil_graph
        from repro.runtime.runtime import Runtime

        rt = Runtime(RuntimeConfig(num_cores=4, seed=3, trace=True))
        build_stencil_graph(
            rt, StencilConfig(total_points=1 << 14, partition_points=512,
                              time_steps=3)
        )
        result = rt.run()
        trace = rt.trace
        assert trace is not None
        trace_exec = sum(p.duration_ns for p in trace.phases)
        assert trace_exec == int(result.cumulative_exec_ns)
        assert len({p.task_id for p in trace.phases}) == result.tasks_executed
        assert len(trace.steals) == int(
            result.counters.get("/threads/count/stolen")
        )

    def test_interval_samples_sum_to_run_totals(self):
        """Interval deltas of monotonic counters must sum to the final
        values (no events lost between samples)."""
        from repro.apps.stencil1d import StencilConfig, build_stencil_graph
        from repro.core.policy import PolicyEngine
        from repro.runtime.runtime import Runtime

        rt = Runtime(RuntimeConfig(num_cores=4, seed=5))
        build_stencil_graph(
            rt, StencilConfig(total_points=1 << 16, partition_points=1_024,
                              time_steps=4)
        )
        result = PolicyEngine(rt, interval_ns=20_000).run()
        sampled_tasks = sum(
            s.get("/threads/count/cumulative") for s in rt.sampler.samples
        )
        # The final partial interval after the last sample is not collected,
        # so the sampled sum can be short, never over.
        assert sampled_tasks <= result.tasks_executed
        assert sampled_tasks >= result.tasks_executed * 0.5
