"""Unit tests for repro.util.stats — the paper's mean/stddev/COV machinery."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.stats import (
    SampleStats,
    cov,
    mean,
    quantile,
    stddev,
)


class TestMean:
    def test_single(self):
        assert mean([4.0]) == 4.0

    def test_uniform(self):
        assert mean([2.0, 2.0, 2.0]) == 2.0

    def test_mixed(self):
        assert mean([1.0, 2.0, 3.0, 4.0]) == 2.5

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean([])


class TestStddev:
    def test_single_sample_is_zero(self):
        assert stddev([7.0]) == 0.0

    def test_known_value(self):
        # Sample stddev (ddof=1) of 2,4,4,4,5,5,7,9 is ~2.138.
        samples = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        assert stddev(samples) == pytest.approx(2.13809, abs=1e-4)

    def test_constant_series(self):
        assert stddev([3.0] * 10) == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            stddev([])


class TestCov:
    def test_constant_series(self):
        assert cov([5.0, 5.0, 5.0]) == 0.0

    def test_zero_mean(self):
        # Event counts that never fire: COV defined as 0.
        assert cov([0.0, 0.0]) == 0.0

    def test_known_value(self):
        samples = [9.0, 10.0, 11.0]
        assert cov(samples) == pytest.approx(1.0 / 10.0, rel=1e-9)

    def test_negative_mean_uses_absolute(self):
        assert cov([-9.0, -10.0, -11.0]) == pytest.approx(0.1, rel=1e-9)


class TestSampleStats:
    def test_from_samples_fields(self):
        stats = SampleStats.from_samples([1.0, 2.0, 3.0])
        assert stats.n == 3
        assert stats.mean == 2.0
        assert stats.minimum == 1.0
        assert stats.maximum == 3.0
        assert stats.stddev == pytest.approx(1.0)
        assert stats.cov == pytest.approx(0.5)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            SampleStats.from_samples([])

    def test_within_stddev_true(self):
        stats = SampleStats.from_samples([1.70, 1.72, 1.74])
        # The paper's criterion: 1.75 s vs min 1.71 s within stddev 0.03.
        assert stats.within_stddev(stats.mean + stats.stddev * 0.99)

    def test_within_stddev_false(self):
        stats = SampleStats.from_samples([1.70, 1.72, 1.74])
        assert not stats.within_stddev(stats.mean + stats.stddev * 1.5)

    def test_within_stddev_symmetric(self):
        stats = SampleStats.from_samples([10.0, 12.0])
        assert stats.within_stddev(stats.mean - stats.stddev / 2)

    def test_stats_are_finite(self):
        stats = SampleStats.from_samples([1e-12, 1e12])
        assert math.isfinite(stats.cov)
        assert math.isfinite(stats.stddev)


# ---------------------------------------------------------------------------
# nearest-rank quantiles (the QoS layer's p50/p99/p999 machinery)
# ---------------------------------------------------------------------------

_samples = st.lists(
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
    min_size=1,
    max_size=200,
)
_qs = st.floats(min_value=1e-6, max_value=1.0)


class TestQuantile:
    def test_known_decile_values(self):
        xs = list(range(1, 11))  # 1..10
        assert quantile(xs, 0.1) == 1
        assert quantile(xs, 0.5) == 5
        assert quantile(xs, 0.51) == 6
        assert quantile(xs, 0.99) == 10
        assert quantile(xs, 1.0) == 10

    def test_order_independent(self):
        assert quantile([3, 1, 2], 0.5) == quantile([1, 2, 3], 0.5) == 2

    def test_singleton(self):
        assert quantile([7.0], 0.5) == 7.0
        assert quantile([7.0], 1.0) == 7.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            quantile([], 0.5)

    @pytest.mark.parametrize("q", [0.0, -0.1, 1.1])
    def test_out_of_range_q_raises(self, q):
        with pytest.raises(ValueError):
            quantile([1.0], q)

    @given(_samples, _qs)
    @settings(max_examples=150, deadline=None)
    def test_result_is_a_sample(self, xs, q):
        # No interpolation: every reported quantile was actually observed.
        assert quantile(xs, q) in xs

    @given(_samples, _qs)
    @settings(max_examples=150, deadline=None)
    def test_nearest_rank_definition(self, xs, q):
        # The smallest x with at least ceil(q*n) samples <= x (same float
        # guard as the implementation: plain ceil misranks e.g. 0.999*1000).
        value = quantile(xs, q)
        need = max(1, math.ceil(q * len(xs) - 1e-9))
        assert sum(1 for x in xs if x <= value) >= need
        # ... and no strictly smaller sample satisfies the rank.
        smaller = [x for x in xs if x < value]
        assert sum(1 for x in xs if x <= max(smaller, default=value)) < need or not smaller

    @given(_samples, _qs, _qs)
    @settings(max_examples=150, deadline=None)
    def test_monotone_in_q(self, xs, q1, q2):
        lo, hi = sorted((q1, q2))
        assert quantile(xs, lo) <= quantile(xs, hi)

    @given(_samples)
    @settings(max_examples=100, deadline=None)
    def test_extremes(self, xs):
        assert quantile(xs, 1.0) == max(xs)
        assert quantile(xs, 1.0 / (len(xs) + 1)) == min(xs)

