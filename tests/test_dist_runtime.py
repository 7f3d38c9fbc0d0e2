"""Integration tests for DistRuntime (repro.dist.runtime)."""

import pytest

from repro.apps.stencil1d import StencilConfig, run_stencil
from repro.apps.stencil1d_dist import DistStencilConfig, run_dist_stencil
from repro.dist import DistConfig, DistRuntime, NetworkModel
from repro.runtime.future import Future
from repro.runtime.runtime import RuntimeConfig
from repro.runtime.sim_executor import DeadlockError
from repro.runtime.work import FixedWork


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DistConfig(num_localities=0)
        with pytest.raises(ValueError):
            DistConfig(cores_per_locality=0)
        with pytest.raises(ValueError):
            DistConfig(dist_task_overhead_frac=-0.1)

    def test_single_locality_platform_is_unscaled(self):
        config = DistConfig(num_localities=1, platform="haswell")
        from repro.sim.platforms import get_platform

        assert config.resolve_platform() == get_platform("haswell")

    def test_distributed_overhead_scales_with_log_localities(self):
        from repro.sim.platforms import get_platform

        base = get_platform("haswell").costs.task_overhead_ns
        config = DistConfig(
            num_localities=4, platform="haswell", dist_task_overhead_frac=0.5
        )
        # 1 + 0.5 * log2(4) = 2.0
        assert config.resolve_platform().costs.task_overhead_ns == 2.0 * base


class TestSingleNodeEquivalence:
    def test_one_locality_zero_network_matches_runtime_within_1pct(self):
        stencil = dict(total_points=1 << 16, partition_points=2_048, time_steps=4)
        single = run_stencil(
            RuntimeConfig(platform="haswell", num_cores=8, seed=11),
            StencilConfig(**stencil),
        ).result
        dist = run_dist_stencil(
            DistConfig(
                num_localities=1,
                cores_per_locality=8,
                seed=11,
                network=NetworkModel.zero(),
            ),
            DistStencilConfig(**stencil),
        ).result
        assert dist.parcels_sent == 0
        assert dist.tasks_executed == single.tasks_executed
        rel = abs(dist.execution_time_ns - single.execution_time_ns) / (
            single.execution_time_ns
        )
        assert rel <= 0.01, (
            f"1-locality distributed run diverged {rel:.2%} from the "
            "single-node runtime"
        )


class TestCrossLocalityDataflow:
    def test_value_ships_between_localities(self):
        dist = DistRuntime(num_localities=2, cores_per_locality=2, seed=0)
        src = dist.async_(lambda: 21, locality=0, work=FixedWork(1_000))
        dst = dist.dataflow(
            lambda x: 2 * x, [src], locality=1, work=FixedWork(1_000)
        )
        result = dist.run()
        assert dst.value == 42
        assert result.parcels_sent == 1
        assert result.parcels_received == 1
        # The parcel charged serialization and was in flight a while.
        assert result.serialization_time_ns > 0
        assert result.network_wait_ns > 0

    def test_same_locality_dependency_stays_local(self):
        dist = DistRuntime(num_localities=2, cores_per_locality=2, seed=0)
        src = dist.async_(lambda: 1, locality=1, work=FixedWork(1_000))
        dist.dataflow(lambda x: x, [src], locality=1, work=FixedWork(1_000))
        result = dist.run()
        assert result.parcels_sent == 0

    def test_proxies_are_shared_per_destination(self):
        dist = DistRuntime(num_localities=2, cores_per_locality=2, seed=0)
        src = dist.async_(lambda: 5, locality=0, work=FixedWork(1_000))
        consumers = [
            dist.dataflow(lambda x, i=i: x + i, [src], locality=1,
                          work=FixedWork(1_000))
            for i in range(3)
        ]
        result = dist.run()
        assert [f.value for f in consumers] == [5, 6, 7]
        # Three consumers on one locality share a single parcel.
        assert result.parcels_sent == 1

    def test_distinct_transforms_ship_distinct_parcels(self):
        dist = DistRuntime(num_localities=2, cores_per_locality=2, seed=0)
        src = dist.make_ready_future((1, 2), locality=0)
        first = dist.remote_value(src, 1, transform=lambda v: v[0])
        second = dist.remote_value(src, 1, transform=lambda v: v[1])
        sink = dist.dataflow(
            lambda a, b: (a, b), [first, second], locality=1,
            work=FixedWork(1_000),
        )
        result = dist.run()
        assert sink.value == (1, 2)
        assert result.parcels_sent == 2

    def test_exception_propagates_through_parcel(self):
        dist = DistRuntime(num_localities=2, cores_per_locality=2, seed=0)

        def boom():
            raise RuntimeError("remote failure")

        src = dist.async_(boom, locality=0, work=FixedWork(1_000))
        proxy = dist.remote_value(src, 1)
        dist.run()
        assert proxy.has_exception
        with pytest.raises(RuntimeError, match="remote failure"):
            _ = proxy.value


class TestDormancyRestart:
    def test_idle_locality_wakes_for_late_parcel(self):
        # Locality 1 has nothing runnable until locality 0's value arrives
        # long after its workers have gone dormant.
        dist = DistRuntime(num_localities=2, cores_per_locality=2, seed=0)
        src = dist.async_(lambda: 9, locality=0, work=FixedWork(500_000))
        sink = dist.dataflow(
            lambda x: x * x, [src], locality=1, work=FixedWork(1_000)
        )
        result = dist.run()
        assert sink.value == 81
        assert result.parcels_sent == 1


class TestRunContract:
    def test_single_use(self):
        dist = DistRuntime(num_localities=1, cores_per_locality=1, seed=0)
        dist.async_(lambda: 1, work=FixedWork(100))
        dist.run()
        with pytest.raises(RuntimeError):
            dist.run()

    def test_deadlock_error_names_locality(self):
        dist = DistRuntime(num_localities=2, cores_per_locality=1, seed=0)
        never_ready = Future("never")

        def stuck():
            yield never_ready

        from repro.runtime.task import Task

        dist.locality(1).runtime.spawn(Task(stuck, work=FixedWork(100)))
        with pytest.raises(DeadlockError, match="locality 1"):
            dist.run()

    def test_remote_value_requires_owned_future(self):
        dist = DistRuntime(num_localities=2, cores_per_locality=1, seed=0)
        with pytest.raises(ValueError):
            dist.remote_value(Future("stray"), 1)

    def test_counter_snapshots_per_locality(self):
        dist = DistRuntime(num_localities=3, cores_per_locality=2, seed=0)
        for loc in range(3):
            dist.async_(lambda: loc, locality=loc, work=FixedWork(1_000))
        result = dist.run()
        assert len(result.per_locality) == 3
        # Each locality executed its one task; the distributed registry's
        # mirrored thread counters agree with the per-locality views.
        assert result.tasks_executed == 3
        total = result.counters.get(
            "/threads{locality#1/total}/count/cumulative"
        )
        assert total == 1.0

    def test_app_tasks_completed_without_crash_recovery(self):
        # Regression: the field read 0 unless crash recovery was on.
        dist = DistRuntime(num_localities=2, cores_per_locality=1, seed=0)
        src = dist.async_(lambda: 1, locality=0, work=FixedWork(1_000))
        dist.dataflow(lambda x: x, [src], locality=1, work=FixedWork(1_000))
        result = dist.run()
        assert result.app_tasks_completed == 2
        assert isinstance(result.app_tasks_completed, int)

    def test_idle_decomposition_bounded(self):
        result = run_dist_stencil(
            DistConfig(num_localities=2, cores_per_locality=4, seed=0),
            DistStencilConfig(
                total_points=1 << 16, partition_points=4_096, time_steps=3
            ),
        ).result
        assert 0.0 <= result.idle_rate <= 1.0
        assert 0.0 <= result.overhead_idle_rate <= 1.0
        assert 0.0 <= result.network_wait_rate <= 1.0
        assert result.network_wait_ns > 0
