"""Unit tests for repro.faults: plans, injector determinism, retry params."""

import pytest

from repro.counters.registry import CounterRegistry
from repro.dist.network import NetworkModel
from repro.dist.parcel import Parcelport
from repro.faults import (
    CrashAt,
    FaultInjector,
    FaultPlan,
    LinkDegradation,
    LocalityCrashError,
    ParcelLostError,
    RetryParams,
    Straggler,
    WatchdogTimeout,
    stream_unit,
)
from repro.sim.engine import Simulator


class TestStreams:
    def test_unit_in_range_and_deterministic(self):
        draws = [stream_unit(42, 1, i) for i in range(1000)]
        assert all(0.0 <= d < 1.0 for d in draws)
        assert draws == [stream_unit(42, 1, i) for i in range(1000)]

    def test_distinct_keys_give_distinct_draws(self):
        assert stream_unit(0, 1, 2) != stream_unit(0, 2, 1)
        assert stream_unit(0, 1, 2) != stream_unit(1, 1, 2)

    def test_roughly_uniform(self):
        draws = [stream_unit(7, 3, i) for i in range(4000)]
        mean = sum(draws) / len(draws)
        assert 0.45 < mean < 0.55


class TestPlanValidation:
    def test_rates_bounded(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_rate=1.0)
        with pytest.raises(ValueError):
            FaultPlan(drop_rate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(duplicate_rate=1.5)

    def test_one_straggler_per_locality(self):
        with pytest.raises(ValueError):
            FaultPlan(
                stragglers=(Straggler(0, 2.0), Straggler(0, 3.0))
            )

    def test_one_crash_per_locality(self):
        # Two crash times for one locality would make the crash instant
        # depend on tuple order.
        with pytest.raises(ValueError, match="at most one CrashAt"):
            FaultPlan(crashes=(CrashAt(1, 100), CrashAt(1, 50)))

    def test_straggler_factor_at_least_one(self):
        with pytest.raises(ValueError):
            Straggler(0, 0.5)

    def test_degradation_window_sane(self):
        with pytest.raises(ValueError):
            LinkDegradation(start_ns=10, end_ns=10)
        with pytest.raises(ValueError):
            LinkDegradation(start_ns=0, end_ns=10, latency_factor=0.5)
        with pytest.raises(ValueError):
            LinkDegradation(start_ns=0, end_ns=10, bandwidth_factor=0.0)

    def test_degradation_endpoints_non_negative(self):
        # A negative endpoint would silently never match any link.
        with pytest.raises(ValueError, match="endpoint"):
            LinkDegradation(start_ns=0, end_ns=10, src=-1)
        with pytest.raises(ValueError, match="endpoint"):
            LinkDegradation(start_ns=0, end_ns=10, dst=-2)

    def test_none_plan_is_inactive(self):
        assert not FaultPlan.none().is_active
        assert FaultPlan(drop_rate=0.01).is_active
        assert FaultPlan(crashes=(CrashAt(0, 5),)).is_active
        assert FaultPlan(doom_every=4).is_active


class TestInjector:
    def test_drop_decisions_are_pure(self):
        inj = FaultInjector(FaultPlan(seed=9, drop_rate=0.3))
        fates = [(inj.drops(p, a)) for p in range(200) for a in range(3)]
        inj2 = FaultInjector(FaultPlan(seed=9, drop_rate=0.3))
        assert fates == [
            (inj2.drops(p, a)) for p in range(200) for a in range(3)
        ]

    def test_drop_rate_is_respected_statistically(self):
        inj = FaultInjector(FaultPlan(seed=1, drop_rate=0.2))
        hits = sum(inj.drops(p, 0) for p in range(1, 5001))
        assert 0.17 < hits / 5000 < 0.23

    def test_seed_changes_the_schedule(self):
        a = FaultInjector(FaultPlan(seed=1, drop_rate=0.5))
        b = FaultInjector(FaultPlan(seed=2, drop_rate=0.5))
        fates_a = [a.drops(p, 0) for p in range(100)]
        fates_b = [b.drops(p, 0) for p in range(100)]
        assert fates_a != fates_b

    def test_doomed_parcels_always_drop(self):
        inj = FaultInjector(FaultPlan(seed=3, doom_every=7))
        assert inj.doomed(7) and inj.doomed(14)
        assert not inj.doomed(8)
        assert all(inj.drops(14, attempt) for attempt in range(10))

    def test_zero_rates_never_fire(self):
        inj = FaultInjector(FaultPlan(seed=5))
        assert not any(inj.drops(p, 0) for p in range(100))
        assert not any(inj.duplicates(p, 0) for p in range(100))

    def test_link_multipliers_compound(self):
        inj = FaultInjector(
            FaultPlan(
                degradations=(
                    LinkDegradation(0, 100, latency_factor=2.0),
                    LinkDegradation(
                        50, 100, latency_factor=3.0, bandwidth_factor=0.5
                    ),
                )
            )
        )
        assert inj.link_multipliers(0, 1, 10) == (2.0, 1.0)
        assert inj.link_multipliers(0, 1, 60) == (6.0, 0.5)
        assert inj.link_multipliers(0, 1, 100) == (1.0, 1.0)

    def test_link_degradation_matches_specific_link_only(self):
        window = LinkDegradation(0, 100, latency_factor=2.0, src=0, dst=1)
        inj = FaultInjector(FaultPlan(degradations=(window,)))
        assert inj.link_multipliers(0, 1, 50) == (2.0, 1.0)
        assert inj.link_multipliers(1, 0, 50) == (1.0, 1.0)

    def test_straggler_and_crash_lookup(self):
        inj = FaultInjector(
            FaultPlan(
                stragglers=(Straggler(1, 4.0),),
                crashes=(CrashAt(2, 1000),),
            )
        )
        assert inj.straggler_factor(1) == 4.0
        assert inj.straggler_factor(0) == 1.0
        assert inj.crash_time(2) == 1000
        assert inj.crash_time(0) is None

    def test_jitter_bounded(self):
        """The retransmit timer's seeded jitter lies in ``[0, cap]``."""

        def port(cap_ns: int) -> Parcelport:
            return Parcelport(
                0, Simulator(), NetworkModel(), CounterRegistry(),
                retry=RetryParams(max_jitter_ns=cap_ns), seed=11,
            )

        jittered = port(500)
        draws = [jittered._jitter_ns(p, 0) for p in range(500)]
        assert all(0 <= j <= 500 for j in draws)
        assert len(set(draws)) > 100  # actually varies
        assert port(0)._jitter_ns(3, 0) == 0


class TestRetryParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryParams(ack_timeout_ns=0)
        with pytest.raises(ValueError):
            RetryParams(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryParams(max_retries=-1)
        with pytest.raises(ValueError):
            RetryParams(max_jitter_ns=-1)

    def test_exponential_backoff(self):
        retry = RetryParams(ack_timeout_ns=100, backoff_factor=2.0)
        assert [retry.timeout_ns(a) for a in range(4)] == [100, 200, 400, 800]


class TestErrors:
    def test_parcel_lost_names_everything(self):
        err = ParcelLostError(12, 0, 3, 4)
        text = str(err)
        assert "parcel #12" in text
        assert "locality 0 -> locality 3" in text
        assert "4 attempts" in text
        assert err.parcel_id == 12 and err.attempts == 4

    def test_single_attempt_grammar(self):
        assert "1 attempt" in str(ParcelLostError(1, 0, 1, 1))

    def test_crash_and_watchdog_carry_fields(self):
        crash = LocalityCrashError(2, detail="halo producer died")
        assert crash.locality == 2 and "halo producer" in str(crash)
        dog = WatchdogTimeout(5_000, "locality 1: 3 task(s) outstanding")
        assert dog.deadline_ns == 5_000
        assert "locality 1" in str(dog)
