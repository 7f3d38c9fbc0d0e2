"""Crash-recovery tests: heartbeat detection, checkpoint/restart, lineage
re-execution, and the disabled-recovery legacy behavior.

The workload is the figC ring of dependency chains — every locality's step
consumes its own and its right neighbour's previous step — so a crash
always kills work the survivors still need.  Every surviving run must
finish with values bit-identical to the crash-free serial reference.
"""

import pytest

from repro.dist import (
    CrashAt,
    DistConfig,
    DistRuntime,
    FaultPlan,
    LinkDegradation,
    LocalityCrashError,
    ParcelLostError,
    RecoveryConfig,
    RetryParams,
    Straggler,
    UnrecoverableCrashError,
    WatchdogTimeout,
)
from repro.recovery.config import CHECKPOINT_BASE_NS
from repro.runtime.work import FixedWork

N = 4
STEPS = 8
GRAIN = 120_000
RECOVERY = RecoveryConfig(checkpoint_interval_ns=200_000)


def base_config(**overrides):
    defaults = dict(
        num_localities=N, cores_per_locality=2, seed=7, retry=RetryParams()
    )
    defaults.update(overrides)
    return DistConfig(**defaults)


def build_ring(runtime: DistRuntime):
    prev = [
        runtime.make_ready_future(float(i), locality=i, name=f"root{i}")
        for i in range(N)
    ]
    for t in range(STEPS):
        prev = [
            runtime.dataflow(
                (lambda a, b, t=t, i=i: a * 0.5 + b * 0.25 + t + i * 0.125),
                [prev[i], prev[(i + 1) % N]],
                locality=i,
                work=FixedWork(GRAIN),
                name=f"s{t}l{i}",
            )
            for i in range(N)
        ]
    return prev


def run_ring(config: DistConfig):
    runtime = DistRuntime(config)
    finals = build_ring(runtime)
    result = runtime.wait(finals)
    return result, [f.value for f in finals]


def ring_reference():
    vals = [float(i) for i in range(N)]
    for t in range(STEPS):
        vals = [
            vals[i] * 0.5 + vals[(i + 1) % N] * 0.25 + t + i * 0.125
            for i in range(N)
        ]
    return vals


@pytest.fixture(scope="module")
def clean():
    result, values = run_ring(base_config())
    assert values == ring_reference()
    return result


def crash_config(crash_ns, locality=N - 1, recovery=RECOVERY, **overrides):
    return base_config(
        faults=FaultPlan(seed=7, crashes=(CrashAt(locality, crash_ns),)),
        crash_recovery=recovery,
        **overrides,
    )


class TestConfigValidation:
    @pytest.mark.parametrize(
        "field, bad",
        [
            ("suspicion_after", 0.5),
            ("checkpoint_interval_ns", 0),
            ("max_crashes", 0),
        ],
    )
    def test_rejects_bad_knob(self, field, bad):
        with pytest.raises(ValueError, match=field):
            RecoveryConfig(**{field: bad})

    def test_recovery_needs_multiple_localities(self):
        with pytest.raises(ValueError, match="at least 2 localities"):
            DistConfig(num_localities=1, crash_recovery=RECOVERY)

    def test_default_is_disabled(self):
        assert base_config().crash_recovery is None


class TestCrashSurvival:
    def test_completes_with_reference_values(self, clean):
        result, values = run_ring(
            crash_config(clean.execution_time_ns // 2)
        )
        assert values == ring_reference()
        assert result.crashes_detected == 1
        assert result.crashed_localities == (N - 1,)

    def test_conservation_and_decomposition(self, clean):
        result, _ = run_ring(crash_config(clean.execution_time_ns // 2))
        result.assert_parcels_conserved()
        assert result.tasks_lost > 0
        assert result.tasks_reexecuted == result.tasks_lost
        assert result.tasks_restored <= result.tasks_checkpointed
        assert (
            result.detection_ns + result.restore_ns + result.reexecution_ns
            == result.recovery_total_ns
        )
        assert 0 < result.recovery_total_ns < result.execution_time_ns
        # The dead link stopped burning retransmission budget.
        assert result.parcels_failed_fast > 0

    def test_app_task_count_matches_crash_free(self, clean):
        enabled = base_config(crash_recovery=RECOVERY)
        crash_free, _ = run_ring(enabled)
        crashed, _ = run_ring(crash_config(clean.execution_time_ns // 2))
        assert crash_free.crashes_detected == 0
        assert (
            crashed.app_tasks_completed == crash_free.app_tasks_completed
        )

    def test_recovery_counters_exported(self, clean):
        result, _ = run_ring(crash_config(clean.execution_time_ns // 2))
        assert result.heartbeats_sent > 0
        assert result.checkpoints_taken > 0
        snapshot = result.counters
        hb = sum(
            snapshot.get(
                f"/recovery{{locality#{i}/total}}/count/heartbeats-sent"
            )
            for i in range(N)
        )
        assert hb == result.heartbeats_sent
        reexec = sum(
            snapshot.get(
                f"/recovery{{locality#{i}/total}}/count/reexecuted"
            )
            for i in range(N)
        )
        assert reexec == result.tasks_reexecuted

    def test_seed_exact_reproducibility(self, clean):
        config = crash_config(clean.execution_time_ns // 2)
        first, v1 = run_ring(config)
        second, v2 = run_ring(config)
        assert v1 == v2
        assert first.execution_time_ns == second.execution_time_ns
        assert first.counters == second.counters

    def test_crash_of_locality_zero(self, clean):
        result, values = run_ring(
            crash_config(clean.execution_time_ns // 2, locality=0)
        )
        assert values == ring_reference()
        assert result.crashed_localities == (0,)
        result.assert_parcels_conserved()

    def test_crash_during_checkpoint_write(self, clean):
        # Die exactly in the middle of the first checkpoint write: entries
        # chosen but not yet replicated are NOT restorable — they must be
        # re-executed, and the answer must still be exact.
        crash_ns = RECOVERY.checkpoint_interval_ns + CHECKPOINT_BASE_NS // 2
        result, values = run_ring(crash_config(crash_ns))
        assert values == ring_reference()
        assert result.tasks_reexecuted == result.tasks_lost
        result.assert_parcels_conserved()

    def test_early_crash_restores_only_roots(self):
        # Crash before the first checkpoint tick: nothing but the (free)
        # root placements is durable, so everything completed is lost.
        result, values = run_ring(crash_config(50_000))
        assert values == ring_reference()
        assert result.tasks_restored <= 1  # at most the locality's root
        result.assert_parcels_conserved()


class TestCrashBudget:
    def test_second_crash_exhausts_default_budget(self, clean):
        config = base_config(
            faults=FaultPlan(
                seed=7,
                crashes=(
                    CrashAt(1, clean.execution_time_ns // 3),
                    CrashAt(3, 2 * clean.execution_time_ns // 3),
                ),
            ),
            crash_recovery=RECOVERY,
        )
        with pytest.raises(
            UnrecoverableCrashError, match="budget exhausted"
        ) as info:
            run_ring(config)
        assert info.value.localities == (1, 3)

    def test_two_crashes_survive_with_budget_two(self, clean):
        config = base_config(
            faults=FaultPlan(
                seed=7,
                crashes=(
                    CrashAt(1, clean.execution_time_ns // 3),
                    CrashAt(3, 2 * clean.execution_time_ns // 3),
                ),
            ),
            crash_recovery=RecoveryConfig(
                checkpoint_interval_ns=200_000, max_crashes=2
            ),
        )
        result, values = run_ring(config)
        assert values == ring_reference()
        assert result.crashes_detected == 2
        assert result.tasks_reexecuted == result.tasks_lost
        result.assert_parcels_conserved()


class TestDetectorRobustness:
    """Slow is not dead: degraded links and stragglers must not trip the
    failure detector."""

    def test_straggler_is_not_declared_dead(self):
        result, values = run_ring(
            base_config(
                faults=FaultPlan(seed=7, stragglers=(Straggler(2, 4.0),)),
                crash_recovery=RECOVERY,
            )
        )
        assert result.crashes_detected == 0
        assert values == ring_reference()

    def test_degraded_link_is_not_declared_dead(self):
        result, values = run_ring(
            base_config(
                faults=FaultPlan(
                    seed=7,
                    degradations=(
                        LinkDegradation(
                            0,
                            1 << 40,
                            latency_factor=8.0,
                            bandwidth_factor=0.25,
                        ),
                    ),
                ),
                crash_recovery=RECOVERY,
            )
        )
        assert result.crashes_detected == 0
        assert values == ring_reference()

    def test_straggler_beside_a_real_crash(self, clean):
        # The detector must single out the crashed locality even while a
        # straggler is legitimately slow.
        config = base_config(
            faults=FaultPlan(
                seed=7,
                stragglers=(Straggler(1, 3.0),),
                crashes=(CrashAt(3, clean.execution_time_ns // 2),),
            ),
            crash_recovery=RECOVERY,
        )
        result, values = run_ring(config)
        assert result.crashes_detected == 1
        assert result.crashed_localities == (3,)
        assert values == ring_reference()


class TestDiagnosis:
    def test_watchdog_names_the_recovery_in_progress(self, clean):
        crash_ns = clean.execution_time_ns // 2
        config = crash_config(
            crash_ns, watchdog_ns=crash_ns + 500_000
        )
        with pytest.raises(WatchdogTimeout) as info:
            run_ring(config)
        message = str(info.value)
        assert f"recovery of locality {N - 1} in progress" in message
        assert "replacement task(s) still pending" in message
        assert "detector" in message

    def test_disabled_crash_keeps_the_legacy_terminal_path(self, clean):
        config = base_config(
            faults=FaultPlan(
                seed=7, crashes=(CrashAt(3, clean.execution_time_ns // 2),)
            )
        )
        with pytest.raises(
            (LocalityCrashError, ParcelLostError),
            match="no recovery possible",
        ):
            run_ring(config)

    def test_disabled_run_exports_no_recovery_counters(self, clean):
        # The /recovery{locality#N/total} family must not exist (the
        # pre-existing /parcels .../time/recovery counter is unrelated).
        assert not any(
            name.startswith("/recovery{") for name in clean.counters.values
        )
        assert clean.heartbeats_sent == 0
        assert clean.checkpoints_taken == 0
        assert clean.recovery_total_ns == 0


class TestAgasRehoming:
    def test_declared_locality_owns_no_addresses(self, clean):
        runtime = DistRuntime(crash_config(clean.execution_time_ns // 2))
        finals = build_ring(runtime)
        runtime.wait(finals)
        assert runtime.agas.homed_on(N - 1) == []

    def test_rehome_unknown_gid_raises(self):
        runtime = DistRuntime(base_config())
        with pytest.raises(KeyError):
            runtime.agas.rehome(99_999_999, 0)

    def test_rehome_moves_the_address(self):
        runtime = DistRuntime(base_config())
        gid = runtime.register_gid(2, name="x")
        assert gid.gid in runtime.agas.homed_on(2)
        runtime.agas.rehome(gid.gid, 0)
        assert gid.gid in runtime.agas.homed_on(0)
        assert gid.gid not in runtime.agas.homed_on(2)
