"""Resilience integration tests: faults x reliable transport x recovery.

Each scenario drives the full distributed stencil (or a minimal two-locality
graph) through the fault injector and asserts the *typed* outcome: completed
runs satisfy the parcel-conservation identity and validate against the
serial reference; failed runs raise ParcelLostError / LocalityCrashError /
WatchdogTimeout naming the cause — never a silent hang.
"""

import numpy as np
import pytest

from repro.apps.stencil1d import initial_condition, serial_reference
from repro.apps.stencil1d_dist import DistStencilConfig, run_dist_stencil
from repro.dist import (
    CrashAt,
    DistConfig,
    DistRuntime,
    FaultPlan,
    LinkDegradation,
    LocalityCrashError,
    ParcelLostError,
    RetryParams,
    Straggler,
    WatchdogTimeout,
)
from repro.runtime.work import FixedWork

#: the scenario proven end-to-end: 5% drops + 2% duplicates + every 37th
#: parcel doomed, reliable transport, producer re-execution on exhaustion
FAULTED = DistConfig(
    num_localities=4,
    cores_per_locality=4,
    seed=3,
    faults=FaultPlan(seed=7, drop_rate=0.05, duplicate_rate=0.02, doom_every=37),
    retry=RetryParams(max_retries=3),
    recovery="reexecute",
)
STENCIL = DistStencilConfig(
    total_points=1 << 12,
    partition_points=256,
    time_steps=4,
    validate=True,
    decomposition="cyclic",
)


def fault_free_config(**overrides):
    defaults = dict(num_localities=4, cores_per_locality=4, seed=3)
    defaults.update(overrides)
    return DistConfig(**defaults)


class TestConfigValidation:
    def test_unknown_recovery_mode(self):
        with pytest.raises(ValueError):
            fault_free_config(recovery="checkpoint")

    def test_reexecute_requires_reliable_transport(self):
        with pytest.raises(ValueError):
            fault_free_config(recovery="reexecute")

    def test_straggler_locality_in_range(self):
        with pytest.raises(ValueError):
            fault_free_config(
                faults=FaultPlan(stragglers=(Straggler(4, 2.0),))
            )

    def test_crash_locality_in_range(self):
        with pytest.raises(ValueError):
            fault_free_config(faults=FaultPlan(crashes=(CrashAt(9, 100),)))

    def test_degradation_link_in_range(self):
        # An out-of-range endpoint would silently never match any link.
        for window in (
            LinkDegradation(start_ns=0, end_ns=10, src=9),
            LinkDegradation(start_ns=0, end_ns=10, src=0, dst=9),
        ):
            with pytest.raises(ValueError, match="endpoint 9 outside"):
                fault_free_config(faults=FaultPlan(degradations=(window,)))


class TestFaultedStencil:
    def test_completes_conserves_and_validates(self):
        outcome = run_dist_stencil(FAULTED, STENCIL)
        result = outcome.result
        result.assert_parcels_conserved()
        assert result.parcels_dropped > 0
        assert result.parcels_retransmitted > 0
        assert result.duplicates_discarded > 0
        assert result.retry_backoff_ns > 0
        assert result.parcels_recovered > 0
        assert result.recovery_ns > 0
        expected = serial_reference(
            initial_condition(STENCIL.total_points),
            STENCIL.time_steps,
            STENCIL.heat_coefficient,
        )
        np.testing.assert_allclose(outcome.final_array(), expected)

    def test_seed_exact_reproducibility(self):
        first = run_dist_stencil(FAULTED, STENCIL).result
        second = run_dist_stencil(FAULTED, STENCIL).result
        assert first.execution_time_ns == second.execution_time_ns
        assert first.counters == second.counters

    def test_different_fault_seed_changes_the_schedule(self):
        from dataclasses import replace

        other = replace(FAULTED, faults=replace(FAULTED.faults, seed=8))
        first = run_dist_stencil(FAULTED, STENCIL).result
        second = run_dist_stencil(other, STENCIL).result
        assert (
            first.parcels_dropped,
            first.parcels_retransmitted,
            first.duplicates_discarded,
        ) != (
            second.parcels_dropped,
            second.parcels_retransmitted,
            second.duplicates_discarded,
        )

    def test_faults_cost_virtual_time(self):
        clean = run_dist_stencil(fault_free_config(), STENCIL).result
        faulted = run_dist_stencil(FAULTED, STENCIL).result
        assert faulted.execution_time_ns > clean.execution_time_ns


class TestInactivePlanIsFree:
    def test_none_plan_bit_identical_to_no_plan(self):
        stencil = DistStencilConfig(
            total_points=1 << 14, partition_points=1024, time_steps=3
        )
        plain = run_dist_stencil(fault_free_config(), stencil).result
        explicit = run_dist_stencil(
            fault_free_config(faults=FaultPlan.none()), stencil
        ).result
        assert plain.execution_time_ns == explicit.execution_time_ns
        assert plain.counters == explicit.counters
        assert plain.parcels_dropped == 0
        assert plain.parcels_retransmitted == 0
        assert plain.duplicates_discarded == 0
        plain.assert_parcels_conserved()


class TestLossOutcomes:
    """Each way delivery can ultimately fail raises its typed error."""

    def test_unreliable_drop_starves_the_consumer(self):
        # No retry layer: the doomed halo vanishes and the consumer starves.
        config = fault_free_config(faults=FaultPlan(seed=1, doom_every=1))
        with pytest.raises(ParcelLostError, match="lost on link") as info:
            run_dist_stencil(config, STENCIL)
        assert "starved" in str(info.value)

    def test_retry_budget_exhaustion_without_recovery(self):
        config = fault_free_config(
            faults=FaultPlan(seed=1, doom_every=11),
            retry=RetryParams(max_retries=2),
        )
        with pytest.raises(
            ParcelLostError, match="retry budget exhausted"
        ) as info:
            run_dist_stencil(config, STENCIL)
        # The postmortem names the parcel, the link and the attempt count.
        err = info.value
        assert err.attempts == 3  # initial transmission + 2 retries
        assert 0 <= err.source < 4 and 0 <= err.destination < 4

    def test_crash_raises_instead_of_hanging(self):
        clean = run_dist_stencil(fault_free_config(), STENCIL).result
        config = fault_free_config(
            faults=FaultPlan(
                crashes=(CrashAt(2, clean.execution_time_ns // 3),)
            )
        )
        with pytest.raises(LocalityCrashError, match="locality 2"):
            run_dist_stencil(config, STENCIL)

    def test_crash_after_finish_is_harmless(self):
        clean = run_dist_stencil(fault_free_config(), STENCIL).result
        config = fault_free_config(
            faults=FaultPlan(
                crashes=(CrashAt(2, clean.execution_time_ns * 10),)
            )
        )
        # The crash is booked (it did happen) but every future was already
        # satisfied, so wait() returns normally and the data is intact.
        outcome = run_dist_stencil(config, STENCIL)
        assert outcome.result.crashed_localities == (2,)
        np.testing.assert_allclose(
            outcome.final_array(),
            serial_reference(
                initial_condition(STENCIL.total_points),
                STENCIL.time_steps,
                STENCIL.heat_coefficient,
            ),
        )

    def test_watchdog_names_unacked_parcels(self):
        # Doomed parcel + a deep retry budget: at the deadline the sender is
        # still backing off, so the watchdog fires with a diagnosis instead
        # of the run hanging in retransmission limbo.
        config = fault_free_config(
            faults=FaultPlan(seed=1, doom_every=1),
            retry=RetryParams(max_retries=10),
            watchdog_ns=2_000_000,
        )
        with pytest.raises(WatchdogTimeout) as info:
            run_dist_stencil(config, STENCIL)
        assert "awaiting ack" in str(info.value)
        assert info.value.deadline_ns == 2_000_000


class TestProxyExceptionPaths:
    """Error parcels and dead producers surface through proxy futures."""

    def test_error_parcel_feeds_dataflow_dependency(self):
        dist = DistRuntime(num_localities=2, cores_per_locality=2, seed=0)

        def boom():
            raise ValueError("producer exploded")

        src = dist.async_(boom, locality=0, work=FixedWork(1_000))
        sink = dist.dataflow(
            lambda x: x + 1, [src], locality=1, work=FixedWork(1_000)
        )
        with pytest.raises(ValueError, match="producer exploded"):
            dist.wait([sink])

    def test_error_parcel_still_ships_under_faults(self):
        # The error itself rides a parcel over the lossy wire; the reliable
        # transport must deliver it so the original exception — not a
        # transport artifact — reaches the consumer.
        dist = DistRuntime(
            num_localities=2,
            cores_per_locality=2,
            seed=0,
            faults=FaultPlan(seed=5, drop_rate=0.4),
            retry=RetryParams(max_retries=6),
        )

        def boom():
            raise ValueError("producer exploded")

        src = dist.async_(boom, locality=0, work=FixedWork(1_000))
        sink = dist.dataflow(
            lambda x: x + 1, [src], locality=1, work=FixedWork(1_000)
        )
        with pytest.raises(ValueError, match="producer exploded"):
            dist.wait([sink])

    def test_wait_on_crashed_producer_raises(self):
        dist = DistRuntime(
            num_localities=2,
            cores_per_locality=2,
            seed=0,
            faults=FaultPlan(crashes=(CrashAt(0, 10_000),)),
        )
        src = dist.async_(lambda: 7, locality=0, work=FixedWork(1_000_000))
        sink = dist.dataflow(
            lambda x: x * x, [src], locality=1, work=FixedWork(1_000)
        )
        with pytest.raises(LocalityCrashError, match="locality 0"):
            dist.wait([sink])


class TestTransportBookkeeping:
    def test_parcel_ids_are_per_runtime(self):
        # Two runtimes in one process must draw ids from independent
        # counters, or fault schedules (keyed on parcel id) would depend on
        # how many runtimes ran before — breaking seed-exact repetition.
        for _ in range(2):
            dist = DistRuntime(
                num_localities=2,
                cores_per_locality=1,
                seed=0,
                faults=FaultPlan(seed=1, doom_every=1),
            )
            src = dist.async_(lambda: 1, locality=0, work=FixedWork(1_000))
            dist.dataflow(
                lambda x: x, [src], locality=1, work=FixedWork(1_000)
            )
            dist.run()
            dead = dist.locality(0).parcelport.dead_letters
            assert [p.parcel_id for p in dead] == [1]

    def test_duplicates_are_discarded_exactly_once_delivered(self):
        dist_config = fault_free_config(
            faults=FaultPlan(seed=2, duplicate_rate=0.5),
            retry=RetryParams(),
        )
        result = run_dist_stencil(dist_config, STENCIL).result
        result.assert_parcels_conserved()
        assert result.duplicates_discarded > 0
        # Every logical parcel was delivered exactly once despite the noise.
        assert result.parcels_received == result.parcels_sent
        assert result.parcels_dropped == 0

    def test_straggler_slows_the_run(self):
        clean = run_dist_stencil(fault_free_config(), STENCIL).result
        slowed = run_dist_stencil(
            fault_free_config(
                faults=FaultPlan(stragglers=(Straggler(1, 4.0),))
            ),
            STENCIL,
        ).result
        assert slowed.execution_time_ns > clean.execution_time_ns
        np.testing.assert_allclose(
            serial_reference(
                initial_condition(STENCIL.total_points),
                STENCIL.time_steps,
                STENCIL.heat_coefficient,
            ),
            run_dist_stencil(
                fault_free_config(
                    faults=FaultPlan(stragglers=(Straggler(1, 4.0),))
                ),
                STENCIL,
            ).final_array(),
        )

    def test_degraded_link_window_raises_network_wait(self):
        clean = run_dist_stencil(fault_free_config(), STENCIL).result
        degraded = run_dist_stencil(
            fault_free_config(
                faults=FaultPlan(
                    degradations=(
                        LinkDegradation(
                            0,
                            clean.execution_time_ns * 10,
                            latency_factor=8.0,
                            bandwidth_factor=0.25,
                        ),
                    )
                )
            ),
            STENCIL,
        ).result
        assert degraded.network_wait_ns > clean.network_wait_ns
        assert degraded.execution_time_ns > clean.execution_time_ns
