"""Unit tests for the adaptive grain-size tuner."""

import pytest

from repro.apps.stencil1d import stencil_run_fn
from repro.core.tuner import AdaptiveGrainTuner, TunerConfig
from repro.runtime.runtime import RuntimeConfig

TOTAL = 1 << 18
RUN_FN = stencil_run_fn(TOTAL, time_steps=3)


def make_tuner(initial_grain, max_epochs=20, cores=8, **cfg_overrides):
    config = TunerConfig(
        min_grain=64,
        max_grain=TOTAL,
        initial_grain=initial_grain,
        max_epochs=max_epochs,
        **cfg_overrides,
    )
    return AdaptiveGrainTuner(
        epoch_fn=RUN_FN,
        runtime_config_factory=lambda epoch: RuntimeConfig(
            platform="haswell", num_cores=cores, seed=100 + epoch
        ),
        config=config,
    )


class TestConfigValidation:
    def test_bad_grain_bounds(self):
        with pytest.raises(ValueError):
            TunerConfig(min_grain=0, max_grain=10)
        with pytest.raises(ValueError):
            TunerConfig(min_grain=100, max_grain=10)

    def test_bad_epochs(self):
        with pytest.raises(ValueError):
            TunerConfig(min_grain=1, max_grain=10, max_epochs=0)


class TestDiagnosis:
    def _metrics(self, td_ns, to_ns, nt, nc, exec_time_ns):
        from repro.core.metrics import GranularityMetrics, MetricInputs

        return GranularityMetrics.compute(
            MetricInputs(
                execution_time_ns=exec_time_ns,
                cumulative_exec_ns=td_ns * nt,
                cumulative_func_ns=(td_ns + to_ns) * nt,
                tasks_executed=nt,
                num_cores=nc,
            )
        )

    def test_too_fine_when_overhead_dominates_many_tasks(self):
        tuner = make_tuner(64)
        # 10k tasks on 4 cores, overhead = duration.
        m = self._metrics(1_000, 1_000, 10_000, 4, 10_000 * 500.0)
        assert tuner.diagnose(m)[0] == "too-fine"

    def test_too_coarse_when_few_tasks_and_starved(self):
        tuner = make_tuner(64)
        # 8 long tasks on 4 cores, only half the machine busy on average.
        m = self._metrics(1_000_000, 10_000, 8, 4, 4_000_000.0)
        assert tuner.diagnose(m)[0] == "too-coarse"

    def test_ok_in_the_middle(self):
        tuner = make_tuner(64)
        # 1000 tasks, negligible overhead, ~full utilization.
        m = self._metrics(100_000, 2_000, 1_000, 4, 26_000_000.0)
        assert tuner.diagnose(m)[0] == "ok"

    def test_one_core_never_too_coarse(self):
        tuner = make_tuner(64)
        m = self._metrics(1_000_000, 1_000, 2, 1, 2_100_000.0)
        assert tuner.diagnose(m)[0] == "ok"


class TestControlLoop:
    def test_from_too_fine_grows(self):
        outcome = make_tuner(64).run()
        assert outcome.converged
        assert outcome.final_grain > 64
        grains = [s.grain for s in outcome.steps[:3]]
        assert grains == sorted(grains)  # initial moves grow

    def test_from_too_coarse_shrinks(self):
        outcome = make_tuner(TOTAL).run()
        assert outcome.converged
        assert outcome.final_grain < TOTAL

    def test_converges_near_oracle(self):
        """Both starting points land within 40% of the sweep optimum."""
        from repro.core.characterize import characterize, default_partition_sweep
        from repro.core.selection import select_by_min_time

        sweep = characterize(
            RUN_FN,
            default_partition_sweep(TOTAL, finest=256, points_per_decade=3),
            platform="haswell",
            num_cores=8,
            repetitions=1,
            seed=7,
            measure_single_core_reference=False,
        )
        oracle = select_by_min_time(sweep)
        for start in (64, TOTAL):
            outcome = make_tuner(start, max_epochs=25).run()
            assert outcome.final_time_s <= oracle.best_execution_time_s * 1.4

    def test_epoch_budget_respected(self):
        outcome = make_tuner(64, max_epochs=3).run()
        assert outcome.epochs <= 3

    def test_trajectory_recorded(self):
        outcome = make_tuner(64, max_epochs=6).run()
        assert [s.epoch for s in outcome.steps] == list(range(outcome.epochs))
        assert outcome.steps[-1].action == "stop"

    def test_final_time_matches_final_grain_measurement(self):
        outcome = make_tuner(64).run()
        times = {s.grain: s.execution_time_s for s in outcome.steps}
        assert outcome.final_grain in times

    def test_initial_grain_clamped(self):
        tuner = make_tuner(10)  # below min_grain=64
        outcome = tuner.run()
        assert outcome.steps[0].grain == 64
