"""Unit tests for the cost model — each paper mechanism in isolation."""

import pytest

from repro.sim.costmodel import JITTER_FRAC, CostModel
from repro.sim.platforms import HASWELL, XEON_PHI


def model(platform=HASWELL, cores=8, **kwargs) -> CostModel:
    return CostModel(platform, cores, **kwargs)


class TestTaskCosts:
    def test_budget_split_sums_to_total(self):
        # The run-level jitter perturbs the budget by a few percent (see
        # repro.sim.costmodel.RUN_JITTER_*), so the check allows that envelope.
        m = model()
        costs = m.task_costs(active_cores=1)
        total = costs.create_ns + costs.convert_ns + costs.switch_ns
        expected = HASWELL.costs.task_overhead_ns + HASWELL.costs.timer_overhead_ns
        assert total == pytest.approx(expected, rel=0.06)

    def test_contention_grows_with_active_cores(self):
        m = model(cores=28)
        single = m.task_costs(1).total_ns
        many = m.task_costs(28).total_ns
        assert many > single * 5  # convex growth, Sec. IV-A's 90% idle-rates

    def test_contention_convexity(self):
        m = model(cores=28)
        c8 = m.task_costs(8).total_ns
        c16 = m.task_costs(16).total_ns
        c28 = m.task_costs(28).total_ns
        assert (c28 - c16) > (c16 - c8)

    def test_timer_counters_add_cost(self):
        with_timer = model(seed=1).task_costs(1).total_ns
        without = model(seed=1, timer_counters_enabled=False).task_costs(1).total_ns
        assert with_timer - without == pytest.approx(
            HASWELL.costs.timer_overhead_ns, abs=2
        )

    def test_remote_steal_costs_more(self):
        m = model()
        assert m.steal_cost_ns(same_domain=True) < m.steal_cost_ns(same_domain=False)


class TestBackoff:
    def test_backoff_grows_then_caps(self):
        m = model()
        values = [m.idle_backoff_ns(k) for k in range(1, 12)]
        assert values[0] < values[1] < values[2]
        assert values[6] == values[10]  # capped

    def test_backoff_is_deterministic(self):
        assert model().idle_backoff_ns(3) == model().idle_backoff_ns(3)


class TestCacheFactor:
    def test_l1_resident_is_fastest(self):
        m = model()
        assert m.cache_factor(100) < 1.0

    def test_l2_resident_is_baseline(self):
        m = model()
        # 3 KB/point working set: 5000 points = 120 KB < 256 KB L2.
        assert m.cache_factor(5_000) == 1.0

    def test_llc_slower_than_l2(self):
        m = model()
        assert m.cache_factor(100_000) > m.cache_factor(5_000)

    def test_dram_slowest(self):
        m = model()
        assert m.cache_factor(10_000_000) > m.cache_factor(100_000)

    def test_phi_has_no_llc_tier(self):
        m = model(platform=XEON_PHI)
        # Beyond L2 goes straight to (GDDR) DRAM pricing.
        assert m.cache_factor(100_000) == m.cache_factor(10_000_000)


class TestBandwidthInflation:
    def test_single_core_no_inflation(self):
        assert model().bandwidth_inflation(1.0) == 1.0

    def test_inflation_monotone_in_cores(self):
        m = model(cores=28)
        values = [m.bandwidth_inflation(float(n)) for n in (1, 4, 8, 16, 28)]
        assert values == sorted(values)
        assert values[-1] > 2.0  # the paper's strong-scaling ceiling

    def test_fractional_effective_cores(self):
        m = model()
        assert m.bandwidth_inflation(3.5) <= m.bandwidth_inflation(4.0)


class TestComputeNs:
    def test_scales_linearly_with_points_within_cache_tier(self):
        # Both sizes sit in the L2 tier (72 KB and 144 KB working sets), so
        # the cache factor is constant and time is linear in points.
        m = model(cores=1)
        t1 = m.compute_ns(3_000, active_cores=1, idle_cores=0, jitter=False)
        t2 = m.compute_ns(6_000, active_cores=1, idle_cores=0, jitter=False)
        assert t2 == pytest.approx(2 * t1, rel=0.02)

    def test_contention_inflates_duration(self):
        m = model(cores=28)
        solo = m.compute_ns(50_000, active_cores=1, idle_cores=27, jitter=False)
        crowded = m.compute_ns(50_000, active_cores=28, idle_cores=0, jitter=False)
        assert crowded > solo * 1.5

    def test_duty_cycle_damps_inflation(self):
        # Overhead-bound tasks do not saturate bandwidth (fine-grain region).
        m = model(cores=28)
        full = m.compute_ns(1_000, active_cores=28, idle_cores=0, jitter=False)
        damped = m.compute_ns(
            1_000, active_cores=28, idle_cores=0, mgmt_ns=20_000, jitter=False
        )
        assert damped < full

    def test_solo_interference_when_no_idle_cores(self):
        m = model(cores=1)
        busy = m.compute_ns(10_000, active_cores=1, idle_cores=0, jitter=False)
        m2 = model(cores=2)
        relaxed = m2.compute_ns(10_000, active_cores=1, idle_cores=1, jitter=False)
        assert busy > relaxed  # the negative-wait mechanism

    def test_jitter_bounded(self):
        m = model(seed=42)
        base = m.compute_ns(10_000, active_cores=1, idle_cores=1, jitter=False)
        j = JITTER_FRAC
        for _ in range(50):
            v = m.compute_ns(10_000, active_cores=1, idle_cores=1)
            assert base * (1 - 1.5 * j) <= v <= base * (1 + 1.5 * j)

    def test_jitter_deterministic_per_seed(self):
        a = [
            model(seed=7).compute_ns(5_000, active_cores=1, idle_cores=1)
            for _ in range(1)
        ]
        b = [
            model(seed=7).compute_ns(5_000, active_cores=1, idle_cores=1)
            for _ in range(1)
        ]
        assert a == b

    def test_duration_at_least_one(self):
        m = model()
        assert m.compute_ns(1, active_cores=1, idle_cores=1) >= 1


class TestUniformWork:
    def test_nominal_duration(self):
        m = model()
        assert m.uniform_work_ns(5_000, jitter=False) == 5_000

    def test_jittered_near_nominal(self):
        m = model(seed=3)
        v = m.uniform_work_ns(100_000)
        assert 90_000 < v < 110_000


class TestPaperAnchor:
    def test_haswell_12500_points_near_21us_single_core(self):
        """Sec. IV-A: 'The average task duration for computing 12,500 grid
        points using one core is 21 microseconds on Haswell'."""
        m = model(cores=1)
        ns = m.compute_ns(12_500, active_cores=1, idle_cores=0, jitter=False)
        assert 14_000 < ns < 30_000

    def test_phi_12500_points_near_1_1ms_single_core(self):
        """...'and 1.1 milliseconds on the Xeon Phi'."""
        m = model(platform=XEON_PHI, cores=1)
        ns = m.compute_ns(12_500, active_cores=1, idle_cores=0, jitter=False)
        assert 0.8e6 < ns < 1.6e6
