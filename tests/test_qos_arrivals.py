"""Unit tests for repro.qos.arrivals — deterministic open-loop generators."""

import pytest

from repro.qos.arrivals import (
    BurstyArrivals,
    DiurnalArrivals,
    PeriodicArrivals,
    PoissonArrivals,
)
from repro.util.stats import mean

WINDOW = 1_000_000  # 1 ms
GAP = 1_000.0  # mean interarrival: 1 us -> ~1000 arrivals per window

RANDOM = [
    PoissonArrivals(GAP),
    BurstyArrivals(GAP),
    DiurnalArrivals(GAP),
]
ALL = [*RANDOM, PeriodicArrivals(GAP)]


class TestCommonProperties:
    @pytest.mark.parametrize("proc", ALL, ids=lambda p: type(p).__name__)
    def test_deterministic_for_seed_and_tenant(self, proc):
        assert proc.times(7, 0, WINDOW) == proc.times(7, 0, WINDOW)

    @pytest.mark.parametrize("proc", RANDOM, ids=lambda p: type(p).__name__)
    def test_seed_and_tenant_change_the_schedule(self, proc):
        base = proc.times(7, 0, WINDOW)
        assert proc.times(8, 0, WINDOW) != base
        assert proc.times(7, 1, WINDOW) != base

    @pytest.mark.parametrize("proc", ALL, ids=lambda p: type(p).__name__)
    def test_strictly_increasing_ints_inside_window(self, proc):
        ts = proc.times(3, 0, WINDOW)
        assert all(isinstance(t, int) for t in ts)
        assert all(0 <= t < WINDOW for t in ts)
        assert all(b > a for a, b in zip(ts, ts[1:]))

    @pytest.mark.parametrize("proc", ALL, ids=lambda p: type(p).__name__)
    def test_mean_rate_is_roughly_the_configured_one(self, proc):
        # ~1000 expected arrivals; allow wide statistical slack.
        n = len(proc.times(11, 0, WINDOW))
        assert 600 <= n <= 1500

    @pytest.mark.parametrize("proc", ALL, ids=lambda p: type(p).__name__)
    def test_bad_window_rejected(self, proc):
        with pytest.raises(ValueError):
            proc.times(0, 0, 0)


class TestValidation:
    def test_poisson_rejects_nonpositive_gap(self):
        with pytest.raises(ValueError):
            PoissonArrivals(0.0)

    def test_bursty_rejects_bad_on_fraction(self):
        with pytest.raises(ValueError):
            BurstyArrivals(GAP, on_fraction=0.0)
        with pytest.raises(ValueError):
            BurstyArrivals(GAP, on_fraction=1.0)

    def test_bursty_rejects_bad_burst(self):
        with pytest.raises(ValueError):
            BurstyArrivals(GAP, burst_ns=0.0)

    def test_diurnal_rejects_bad_amplitude(self):
        with pytest.raises(ValueError):
            DiurnalArrivals(GAP, amplitude=1.0)
        with pytest.raises(ValueError):
            DiurnalArrivals(GAP, amplitude=-0.1)

    def test_diurnal_rejects_bad_period(self):
        with pytest.raises(ValueError):
            DiurnalArrivals(GAP, period_ns=0.0)


class TestPeriodicArrivals:
    def test_count_covers_half_open_window(self):
        # Arrivals at k * 1000 strictly inside [0, 10000): k = 0..9.
        assert len(PeriodicArrivals(1000).times(0, 0, 10_000)) == 10

    def test_count_excludes_the_window_edge(self):
        ts = PeriodicArrivals(2500).times(0, 0, 10_000)
        assert ts == [0, 2500, 5000, 7500]  # not 10000

    def test_validation(self):
        for gap in (0, 0.5, -1):
            with pytest.raises(ValueError):
                PeriodicArrivals(gap)

    def test_ticks_multiply_rather_than_accumulate(self):
        # figO's 3x point at 1 us grain on 8 cores: a running sum of this
        # gap drifts to 7,201 arrivals in 300 us; the product gives 7,200.
        gap = 1000 / 24
        ts = PeriodicArrivals(gap).times(0, 0, 300_000)
        assert ts == [int(k * gap) for k in range(7_200)]


class TestShapes:
    def test_bursty_gaps_are_burstier_than_poisson(self):
        # Squared-CV of interarrival gaps: ~1 for Poisson, > 1 for MMPP.
        def scv(ts):
            gaps = [b - a for a, b in zip(ts, ts[1:])]
            m = mean(gaps)
            var = mean([(g - m) ** 2 for g in gaps])
            return var / (m * m)

        poisson = scv(PoissonArrivals(GAP).times(13, 0, WINDOW))
        bursty = scv(BurstyArrivals(GAP).times(13, 0, WINDOW))
        assert bursty > 1.5 * poisson

    def test_diurnal_rate_tracks_the_sine(self):
        # First half-period is above-mean rate, second below (sin >= 0
        # then <= 0): the first half must hold more arrivals.
        proc = DiurnalArrivals(GAP, period_ns=float(WINDOW), amplitude=0.9)
        ts = proc.times(17, 0, WINDOW)
        first = sum(1 for t in ts if t < WINDOW // 2)
        second = len(ts) - first
        assert first > 1.3 * second

    def test_poisson_mean_gap(self):
        ts = PoissonArrivals(GAP).times(19, 0, WINDOW)
        gaps = [b - a for a, b in zip(ts, ts[1:])]
        assert GAP * 0.8 <= mean(gaps) <= GAP * 1.2
