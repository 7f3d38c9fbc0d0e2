"""Property tests for the RT task-set model (repro.rt.model).

The release generators make *structural* promises, not statistical ones:
sporadic releases are never closer than the minimum separation, periodic
releases with zero jitter are exact, every draw is a pure function of the
seed, and grain splitting preserves total demand to the nanosecond.
Hypothesis walks those promises over the parameter space.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rt.model import (
    PeriodicTaskSpec,
    SporadicTaskSpec,
    TaskSet,
    split_exact,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


# -- split_exact ----------------------------------------------------------------


@given(
    total=st.integers(min_value=1, max_value=500_000),
    grain=st.integers(min_value=1, max_value=50_000),
)
@settings(max_examples=200, deadline=None)
def test_split_exact_preserves_total_and_respects_grain(total, grain):
    chunks = split_exact(total, grain)
    assert sum(chunks) == total
    assert all(1 <= c <= grain for c in chunks)
    # near-equal: chunk lengths differ by at most one nanosecond
    assert max(chunks) - min(chunks) <= 1


def test_split_exact_degenerate_forms():
    assert split_exact(0, 100) == ()
    assert split_exact(500, None) == (500,)
    assert split_exact(500, 500) == (500,)
    assert split_exact(500, 1_000) == (500,)


# -- periodic releases ----------------------------------------------------------


@given(
    seed=seeds,
    period=st.integers(min_value=100, max_value=50_000),
    phase=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=100, deadline=None)
def test_periodic_releases_are_exact_without_jitter(seed, period, phase):
    spec = PeriodicTaskSpec(
        name="p", wcet_ns=50, relative_deadline_ns=period,
        period_ns=period, phase_ns=phase,
    )
    window = 20 * period
    releases = spec.release_times(seed, 0, window)
    assert releases == [
        phase + k * period for k in range(len(releases))
    ]
    assert all(t < window for t in releases)
    # the next release would have fallen outside the window
    assert phase + len(releases) * period >= window


@given(
    seed=seeds,
    period=st.integers(min_value=100, max_value=50_000),
    jitter_frac=st.floats(min_value=0.0, max_value=0.9),
)
@settings(max_examples=100, deadline=None)
def test_periodic_jittered_releases_stay_ordered(seed, period, jitter_frac):
    spec = PeriodicTaskSpec(
        name="p", wcet_ns=50, relative_deadline_ns=period,
        period_ns=period, release_jitter_ns=int(period * jitter_frac),
    )
    releases = spec.release_times(seed, 0, 30 * period)
    assert releases == sorted(set(releases))  # strictly increasing
    for k, t in enumerate(releases):
        assert k * period <= t <= k * period + spec.release_jitter_ns


# -- sporadic releases ----------------------------------------------------------


@given(
    seed=seeds,
    min_sep=st.integers(min_value=100, max_value=50_000),
    task_index=st.integers(min_value=0, max_value=7),
)
@settings(max_examples=100, deadline=None)
def test_sporadic_min_separation_always_respected(seed, min_sep, task_index):
    spec = SporadicTaskSpec(
        name="s", wcet_ns=50, relative_deadline_ns=min_sep,
        min_separation_ns=min_sep,
    )
    releases = spec.release_times(seed, task_index, 40 * min_sep)
    assert releases[0] == 0
    for a, b in zip(releases, releases[1:]):
        assert b - a >= min_sep


@given(seed=seeds, min_sep=st.integers(min_value=100, max_value=50_000))
@settings(max_examples=60, deadline=None)
def test_sporadic_zero_extra_gap_degenerates_to_periodic(seed, min_sep):
    spec = SporadicTaskSpec(
        name="s", wcet_ns=50, relative_deadline_ns=min_sep,
        min_separation_ns=min_sep, mean_extra_gap_ns=0.0,
    )
    releases = spec.release_times(seed, 0, 10 * min_sep)
    assert releases == [k * min_sep for k in range(10)]


# -- seed determinism -----------------------------------------------------------


@given(seed=seeds)
@settings(max_examples=60, deadline=None)
def test_same_seed_means_identical_schedules_and_demands(seed):
    spec = SporadicTaskSpec(
        name="s", wcet_ns=10_000, relative_deadline_ns=40_000,
        min_separation_ns=20_000, exec_variation=0.3,
    )
    window = 400_000
    assert spec.release_times(seed, 2, window) == spec.release_times(
        seed, 2, window
    )
    for job in range(8):
        assert spec.execution_ns(seed, 2, job) == spec.execution_ns(
            seed, 2, job
        )
        assert spec.job_chunks(seed, 2, job) == spec.job_chunks(seed, 2, job)


@given(seed=seeds, var=st.floats(min_value=0.0, max_value=0.99))
@settings(max_examples=100, deadline=None)
def test_execution_demand_within_variation_band(seed, var):
    spec = PeriodicTaskSpec(
        name="p", wcet_ns=10_000, relative_deadline_ns=40_000,
        period_ns=40_000, exec_variation=var,
    )
    for job in range(6):
        demand = spec.execution_ns(seed, 0, job)
        assert 1 <= demand <= spec.wcet_ns
        assert demand >= int(spec.wcet_ns * (1.0 - var)) - 1


# -- the grain axis --------------------------------------------------------------


@given(
    seed=seeds,
    grain=st.integers(min_value=500, max_value=60_000),
    cs=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=150, deadline=None)
def test_with_grain_preserves_job_demand_exactly(seed, grain, cs):
    spec = SporadicTaskSpec(
        name="s", wcet_ns=40_000, relative_deadline_ns=100_000,
        min_separation_ns=100_000, exec_variation=0.25,
        resource="bus" if cs else None, critical_section_ns=cs,
    )
    for job in range(5):
        demand = spec.execution_ns(seed, 0, job)
        whole_cs, whole_rest = spec.job_chunks(seed, 0, job)
        split = spec.with_grain(grain)
        cs_chunks, rest_chunks = split.job_chunks(seed, 0, job)
        # splitting never changes the demand or the cs/rest partition
        assert sum(cs_chunks) + sum(rest_chunks) == demand
        assert sum(cs_chunks) == sum(whole_cs)
        assert sum(rest_chunks) == sum(whole_rest)
        assert all(c <= grain for c in cs_chunks + rest_chunks)


def test_with_grain_maps_over_the_whole_set():
    ts = TaskSet(
        tasks=(
            PeriodicTaskSpec(
                name="a", wcet_ns=9_000, relative_deadline_ns=30_000,
                period_ns=30_000,
            ),
            SporadicTaskSpec(
                name="b", wcet_ns=5_000, relative_deadline_ns=50_000,
                min_separation_ns=50_000,
            ),
        ),
        seed=7,
    )
    fine = ts.with_grain(2_000)
    assert all(t.grain_ns == 2_000 for t in fine.tasks)
    assert ts.utilization() == pytest.approx(fine.utilization())


# -- TaskSet arithmetic ---------------------------------------------------------


def test_utilization_is_wcet_over_interarrival():
    ts = TaskSet(
        tasks=(
            PeriodicTaskSpec(
                name="a", wcet_ns=10_000, relative_deadline_ns=40_000,
                period_ns=40_000,
            ),
            SporadicTaskSpec(
                name="b", wcet_ns=30_000, relative_deadline_ns=60_000,
                min_separation_ns=60_000,
            ),
        )
    )
    assert ts.utilization() == pytest.approx(10_000 / 40_000 + 30_000 / 60_000)


def test_resources_and_longest_critical_section():
    ts = TaskSet(
        tasks=(
            PeriodicTaskSpec(
                name="a", wcet_ns=9_000, relative_deadline_ns=30_000,
                period_ns=30_000,
            ),
            SporadicTaskSpec(
                name="b", wcet_ns=5_000, relative_deadline_ns=50_000,
                min_separation_ns=50_000, resource="bus",
                critical_section_ns=2_000,
            ),
        ),
    )
    assert ts.resources() == ("bus",)
    assert ts.max_critical_section_ns() == 2_000


def test_model_validation_rejects_malformed_specs():
    with pytest.raises(ValueError):
        PeriodicTaskSpec(
            name="p", wcet_ns=100, relative_deadline_ns=400,
            period_ns=400, release_jitter_ns=400,  # jitter >= period
        )
    with pytest.raises(ValueError):
        SporadicTaskSpec(
            name="s", wcet_ns=100, relative_deadline_ns=400,
            min_separation_ns=400, critical_section_ns=50,  # no resource
        )
    with pytest.raises(ValueError):
        SporadicTaskSpec(
            name="s", wcet_ns=100, relative_deadline_ns=400,
            min_separation_ns=400, resource="bus",  # zero-length cs
        )
    with pytest.raises(ValueError):
        SporadicTaskSpec(
            name="s", wcet_ns=100, relative_deadline_ns=400,
            min_separation_ns=400, resource="bus",
            critical_section_ns=200,  # cs > wcet
        )
    with pytest.raises(ValueError):
        TaskSet(tasks=())
    with pytest.raises(ValueError):
        TaskSet(
            tasks=(
                PeriodicTaskSpec(
                    name="dup", wcet_ns=1, relative_deadline_ns=1,
                    period_ns=1,
                ),
                SporadicTaskSpec(
                    name="dup", wcet_ns=1, relative_deadline_ns=1,
                    min_separation_ns=1,
                ),
            )
        )
