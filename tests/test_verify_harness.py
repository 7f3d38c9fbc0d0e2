"""The differential harness: parity on clean specs, detection of planted bugs.

The acceptance story lives here: a synthetic semantic discrepancy planted
via the ``mutate`` hook is caught by the backend-divergence invariant,
shrunk to a <= 4-task reproducer, and replays deterministically.
"""

import dataclasses

import pytest

from repro.schedulers import SCHEDULERS
from repro.verify.harness import (
    StructuralResult,
    expected_result,
    flip_fingerprint,
    run_sim,
    verify_spec,
)
from repro.verify.shrink import shrink, spec_size
from repro.verify.spec import WorkloadSpec, generate_spec

#: small fixed specs covering the interesting axes (fast: ~ms each)
CLEAN_SPECS = [
    WorkloadSpec(seed=1, patterns=("stencil_1d",), width=4, steps=3),
    WorkloadSpec(
        seed=2, patterns=("fft", "tree"), width=4, steps=3,
        use_priorities=True, scheduler="priority-local-lifo",
    ),
    WorkloadSpec(
        seed=3, patterns=("random_nearest",), width=4, steps=2,
        kernel="imbalanced", num_cores=4,
    ),
    WorkloadSpec(
        seed=4, patterns=("spread",), width=4, steps=2,
        num_localities=2, placement="cyclic",
        drop_rate=0.05, duplicate_rate=0.05,
    ),
]


@pytest.mark.parametrize("spec", CLEAN_SPECS, ids=lambda s: f"seed{s.seed}")
def test_clean_specs_pass_every_invariant(spec):
    report = verify_spec(spec)
    assert report.ok, [f.format() for f in report.findings]
    # the ladder ran every leg: sim, rerun, thread, dist@1 (+ dist@N)
    expected_backends = {"sim", "sim-rerun", "thread", "dist@1"}
    if spec.num_localities > 1:
        expected_backends.add(f"dist@{spec.num_localities}")
    assert expected_backends <= set(report.results)


def test_model_fingerprint_matches_the_sim_backend():
    spec = WorkloadSpec(seed=9, patterns=("stencil_1d_periodic",), width=4, steps=3)
    structural, _ = run_sim(spec)
    model = expected_result(spec)
    assert structural.fingerprint == model.fingerprint
    assert model.total_tasks == spec.total_tasks == structural.total_tasks


def test_dist_at_one_locality_is_bit_identical_to_runtime():
    """The DistRuntime@1 == Runtime equivalence the harness leans on:
    fingerprint, execution time, and every counter must match exactly."""
    from repro.verify.harness import run_dist

    spec = WorkloadSpec(seed=11, patterns=("serial_chain",), width=4, steps=4)
    sim, sim_run = run_sim(spec)
    dist, dist_run = run_dist(spec, 1)
    assert dist.fingerprint == sim.fingerprint
    assert dist_run.execution_time_ns == sim_run.execution_time_ns
    assert dict(dist_run.per_locality[0].values) == dict(sim_run.counters.values)


def test_planted_sim_corruption_trips_the_model_check():
    spec = WorkloadSpec(seed=5, patterns=("trivial",), width=2, steps=2)
    report = verify_spec(spec, mutate=flip_fingerprint("sim"))
    assert "PF403" in {f.rule_id for f in report.findings}


def test_planted_thread_divergence_is_caught_shrunk_and_replayable():
    """The acceptance criterion end to end."""
    spec = generate_spec(0)
    mutate = flip_fingerprint("thread")

    # 1. caught: the planted divergence surfaces as backend-divergence
    report = verify_spec(spec, mutate=mutate)
    assert not report.ok
    assert {f.rule_id for f in report.findings} == {"PF407"}

    # 2. shrunk: greedy descent reaches a <= 4-task reproducer
    result = shrink(spec, lambda s: not verify_spec(s, mutate=mutate).ok)
    assert result.spec.total_tasks <= 4
    assert spec_size(result.spec) < spec_size(spec)

    # 3. replays deterministically: same findings, word for word, twice
    first = verify_spec(result.spec, mutate=mutate)
    second = verify_spec(result.spec, mutate=mutate)
    assert [f.format() for f in first.findings] == [
        f.format() for f in second.findings
    ]
    assert first.findings  # still violating after the shrink


def test_mutate_hook_sees_every_backend():
    seen = []

    def spy(backend: str, result: StructuralResult) -> StructuralResult:
        seen.append(backend)
        return result

    spec = WorkloadSpec(seed=6, patterns=("trivial",), width=2, steps=1)
    assert verify_spec(spec, mutate=spy).ok
    assert seen == ["sim", "sim-rerun", "thread", "dist@1"]


def test_fuzz_corpus_head_is_clean():
    """The first few corpus seeds run the full ladder with zero findings —
    the in-tests mirror of ``make fuzz`` (which runs seeds 0:50)."""
    for seed in range(6):
        report = verify_spec(generate_spec(seed))
        assert report.ok, (seed, [f.format() for f in report.findings])


@pytest.mark.parametrize("scheduler", list(SCHEDULERS))
def test_corpus_head_is_clean_under_every_policy(scheduler):
    """The corpus draws four of the registered policies; these reruns of
    its first specs put every policy, ``static``, ``numa-blind`` and
    ``rt-edf`` included, through the ladder and PF411's reference leg."""
    for seed in range(4):
        spec = dataclasses.replace(
            generate_spec(seed), scheduler=scheduler, use_qos=False
        )
        report = verify_spec(spec)
        assert report.ok, (seed, [f.format() for f in report.findings])


def test_qos_spec_runs_the_full_ladder_clean():
    """A ``use_qos`` spec (per-task classes + qos bucket scheduler) holds
    every parity invariant: sim/rerun/thread/dist@1 agree bit-for-bit."""
    spec = WorkloadSpec(
        seed=11, patterns=("stencil_1d",), width=4, steps=3,
        scheduler="qos", use_qos=True, num_qos_classes=3,
    )
    report = verify_spec(spec)
    assert report.ok, [f.format() for f in report.findings]
    assert set(report.results) == {"sim", "sim-rerun", "thread", "dist@1"}


def test_qos_class_draws_are_seeded_and_cover_the_palette():
    from repro.verify.harness import _task_qos, qos_classes_for

    spec = WorkloadSpec(seed=3, use_qos=True, num_qos_classes=3)
    classes = qos_classes_for(spec)
    assert [c.name for c in classes] == ["batch", "standard", "interactive"]
    drawn = {
        _task_qos(spec, classes, 0, step, i).name
        for step in range(8)
        for i in range(8)
    }
    assert drawn == {"batch", "standard", "interactive"}
    assert _task_qos(spec, classes, 0, 1, 2) is _task_qos(spec, classes, 0, 1, 2)
    two = qos_classes_for(WorkloadSpec(seed=3, use_qos=True))
    assert [c.name for c in two] == ["standard", "interactive"]


def test_shrinking_turns_qos_off():
    from repro.verify.shrink import shrink_candidates

    spec = WorkloadSpec(width=2, steps=1, scheduler="qos", use_qos=True)
    assert any(not c.use_qos for c in shrink_candidates(spec))


def test_planted_idle_miscount_is_one_fastpath_finding(monkeypatch):
    """An idle charge one probe too high moves no timing and no other
    leg's verdict (every leg runs the same fast path); only the sim run
    in reference mode sees it."""
    from repro.schedulers.priority_local import PriorityLocalScheduler

    declared = PriorityLocalScheduler._empty_search_probes
    monkeypatch.setattr(
        PriorityLocalScheduler,
        "_empty_search_probes",
        lambda self: declared(self) + 1,
    )
    spec = WorkloadSpec(seed=1, patterns=("stencil_1d",), width=4, steps=3)
    report = verify_spec(spec)
    assert [f.rule_id for f in report.findings] == ["PF411"]
    assert "charged" in report.findings[0].message
