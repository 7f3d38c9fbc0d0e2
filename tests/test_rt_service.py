"""End-to-end tests for the RT service layer (repro.rt.service).

Two fixture sets: a small lightly-contended set (fast; exercises the
counter surface, conservation, and determinism) and a figE-shaped
saturated set where a LOW critical-section holder is starved behind
steady NORMAL spinners — the configuration where priority inheritance
actually fires, so the requeue-on-boost path is covered end to end.
"""

import pytest

from repro.rt.model import PeriodicTaskSpec, SporadicTaskSpec, TaskSet
from repro.rt.service import (
    RtServiceConfig,
    RtTaskStats,
    default_inversion_threshold_ns,
    run_rt_service,
)


def small_set():
    return TaskSet(
        seed=1,
        tasks=(
            SporadicTaskSpec(
                name="ctrl", wcet_ns=8_000, relative_deadline_ns=12_000,
                min_separation_ns=50_000, resource="bus",
                critical_section_ns=2_000,
            ),
            PeriodicTaskSpec(
                name="spin", wcet_ns=30_000, relative_deadline_ns=120_000,
                period_ns=80_000, exec_variation=0.2,
            ),
            PeriodicTaskSpec(
                name="log", wcet_ns=16_000, relative_deadline_ns=160_000,
                period_ns=160_000, phase_ns=1_000, resource="bus",
                critical_section_ns=8_000,
            ),
        ),
    ).with_grain(2_000)


def contended_set():
    """figE's shape: LOW holder with a long critical section, two
    saturating NORMAL spinners, and a HIGH sporadic waiter on the same
    resource."""
    return TaskSet(
        seed=3,
        tasks=(
            SporadicTaskSpec(
                name="ctrl", wcet_ns=12_000, relative_deadline_ns=48_000,
                min_separation_ns=100_000, resource="bus",
                critical_section_ns=4_000,
            ),
            PeriodicTaskSpec(
                name="spin-a", wcet_ns=104_000, relative_deadline_ns=640_000,
                period_ns=160_000, exec_variation=0.15,
            ),
            PeriodicTaskSpec(
                name="spin-b", wcet_ns=104_000, relative_deadline_ns=640_000,
                period_ns=160_000, exec_variation=0.15,
            ),
            PeriodicTaskSpec(
                name="logger", wcet_ns=40_000, relative_deadline_ns=800_000,
                period_ns=320_000, phase_ns=4_000, resource="bus",
                critical_section_ns=24_000,
            ),
        ),
    ).with_grain(8_000)


def small_config(**overrides):
    base = dict(num_cores=2, window_ns=200_000)
    base.update(overrides)
    return RtServiceConfig(**base)


# -- conservation and totals ------------------------------------------------------


@pytest.mark.parametrize("protocol", ["none", "inherit", "ceiling"])
def test_every_release_is_accounted_under_every_protocol(protocol):
    out = run_rt_service(small_set(), small_config(protocol=protocol))
    assert out.conserved()
    for s in out.stats.values():
        assert s.released == s.on_time + s.missed == s.completed
    assert out.released() == 7
    assert out.missed() == 1
    assert out.miss_rate() == pytest.approx(1 / 7)
    assert len(out.missed_jobs()) == 1


@pytest.mark.parametrize("scheduler", [None, "rm", "rt-edf", "qos"])
def test_every_scheduler_axis_conserves(scheduler):
    out = run_rt_service(small_set(), small_config(scheduler=scheduler))
    # the open-loop release schedule does not depend on the scheduler
    assert out.released() == 7
    assert out.conserved()


# -- determinism -------------------------------------------------------------------


def test_rerun_is_bit_identical():
    first = run_rt_service(small_set(), small_config())
    second = run_rt_service(small_set(), small_config())
    assert first.missed_jobs() == second.missed_jobs()
    assert first.result.execution_time_ns == second.result.execution_time_ns
    assert first.result.counters.values == second.result.counters.values
    for index in first.stats:
        assert first.stats[index].lateness_ns == second.stats[index].lateness_ns


def test_contended_rerun_is_bit_identical():
    cfg = RtServiceConfig(num_cores=2, window_ns=800_000, protocol="inherit")
    first = run_rt_service(contended_set(), cfg)
    second = run_rt_service(contended_set(), cfg)
    assert first.missed_jobs() == second.missed_jobs()
    assert first.resources == second.resources


# -- the counter surface -----------------------------------------------------------


def test_counters_mirror_the_programmatic_stats():
    out = run_rt_service(small_set(), small_config(protocol="ceiling"))
    values = out.result.counters.values
    for index, s in out.stats.items():
        prefix = f"/rt{{task#{index}/total}}"
        assert values[f"{prefix}/count/released"] == float(s.released)
        assert values[f"{prefix}/count/on-time"] == float(s.on_time)
        assert values[f"{prefix}/count/missed"] == float(s.missed)
        assert values[f"{prefix}/time/max-lateness@gauge"] == float(
            s.max_lateness_ns()
        )
    agg = "/rt{locality#0/total}"
    res = out.resources
    assert values[f"{agg}/count/blocked"] == float(res.blocked)
    assert values[f"{agg}/count/inversions"] == float(res.inversions)
    assert values[f"{agg}/count/inheritance-boosts"] == float(
        res.inheritance_boosts
    )
    assert values[f"{agg}/time/blocked"] == float(res.blocked_ns)
    assert values[f"{agg}/time/max-blocked@gauge"] == float(res.max_blocked_ns)


# -- resource protocols through the service ---------------------------------------


def test_ceiling_boosts_on_acquire_even_in_the_light_set():
    none = run_rt_service(small_set(), small_config(protocol="none"))
    ceiling = run_rt_service(small_set(), small_config(protocol="ceiling"))
    assert none.resources.inheritance_boosts == 0
    assert ceiling.resources.inheritance_boosts > 0
    # boosting changes who runs when, never how much was released
    assert none.released() == ceiling.released()


def test_inheritance_fires_under_saturation_and_requeues_the_holder():
    def run(protocol):
        return run_rt_service(
            contended_set(),
            RtServiceConfig(
                num_cores=2, window_ns=800_000, protocol=protocol,
                inversion_threshold_ns=48_000,
            ),
        )

    none, inherit = run("none"), run("inherit")
    assert none.resources.inheritance_boosts == 0
    # a HIGH waiter behind the starved LOW holder triggers the boost, and
    # the boost re-queues the holder's staged chunk (requeue_on_boost);
    # the released/blocked totals stay protocol-independent
    assert inherit.resources.inheritance_boosts > 0
    assert inherit.resources.blocked == none.resources.blocked
    assert inherit.conserved() and none.conserved()
    assert inherit.released() == none.released()


# -- config axes -------------------------------------------------------------------


def test_overhead_factor_stretches_the_window():
    base = run_rt_service(small_set(), small_config())
    heavy = run_rt_service(small_set(), small_config(overhead_factor=16.0))
    assert heavy.result.execution_time_ns > base.result.execution_time_ns
    assert heavy.conserved()


def test_stats_for_looks_up_by_name():
    out = run_rt_service(small_set(), small_config())
    assert out.stats_for("ctrl") is out.stats[0]
    assert out.stats_for("log") is out.stats[2]
    with pytest.raises(KeyError):
        out.stats_for("nonesuch")


def test_config_validation():
    with pytest.raises(ValueError):
        RtServiceConfig(num_cores=0)
    with pytest.raises(ValueError):
        RtServiceConfig(window_ns=0)
    with pytest.raises(ValueError):
        RtServiceConfig(protocol="magic")
    with pytest.raises(ValueError):
        RtServiceConfig(overhead_factor=0.0)
    with pytest.raises(ValueError):
        RtServiceConfig(inversion_threshold_ns=-1)


def test_default_inversion_threshold_derives_from_the_set():
    ts = small_set()
    assert default_inversion_threshold_ns(ts) == 3 * 8_000 + 30_000


# -- RtTaskStats unit behavior -----------------------------------------------------


def test_task_stats_ledger():
    s = RtTaskStats()
    s.released = 3
    s.record_completion(0, -5_000)   # early
    s.record_completion(1, 0)        # exactly on time
    s.record_completion(2, 10_000)   # late
    assert (s.on_time, s.missed, s.completed) == (2, 1, 3)
    assert s.missed_jobs == [2]
    assert s.miss_rate() == pytest.approx(1 / 3)
    assert s.max_lateness_ns() == 10_000
    # tardiness clamps earliness at zero before taking the quantile
    assert s.tardiness_p(0.5) == 0.0
    assert s.tardiness_p(1.0) == 10_000.0


def test_empty_stats_are_all_zero():
    s = RtTaskStats()
    assert s.miss_rate() == 0.0
    assert s.tardiness_p(0.99) == 0.0
    assert s.max_lateness_ns() == 0
