"""Greedy spec shrinking: from "seed 1234 diverges" to a 1-task reproducer.

When the differential harness finds a violation, the failing spec is
usually far bigger than the bug: a three-pattern, faulted, prioritized,
two-locality grid where the divergence actually reproduces on a single
``trivial`` task.  :func:`shrink` minimizes it the way property-testing
shrinkers do, but over the workload-spec lattice instead of a bytestream:

- each candidate in :func:`shrink_candidates` is one *structurally
  simpler* spec — drop pattern phases, halve the grid, drop the fault
  plan, the crash-with-recovery leg, the real-time leg, or the
  tail-tolerance leg, collapse to one locality, turn priorities or
  per-task QoS classes off, coarsen the grain;
- every candidate **strictly reduces** ``spec.size()`` (candidates that
  would not are never yielded), so greedy descent provably terminates:
  size is a positive integer and each accepted step decreases it;
- greedy descent re-checks the violation predicate at each step and keeps
  the first simpler spec that still violates, restarting from it.

The result is the smallest spec this transformation set can reach that
still exhibits the failure — serialized as JSON by the CLI so
``python -m repro.verify replay`` reproduces it anywhere.  The hypothesis
property tests (tests/test_verify_shrink.py) pin monotonicity,
termination, and violation preservation over the generator's whole corpus.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterator

from repro.verify.spec import COARSE_GRAIN_NS, WorkloadSpec


def spec_size(spec: WorkloadSpec) -> int:
    """The strictly-decreasing metric greedy descent walks down."""
    return spec.size()


def _try(spec: WorkloadSpec, **changes) -> WorkloadSpec | None:
    """``replace`` that returns None when validation rejects the combo."""
    try:
        return replace(spec, **changes)
    except ValueError:
        return None


def shrink_candidates(spec: WorkloadSpec) -> Iterator[WorkloadSpec]:
    """Structurally simpler variants of ``spec``, most aggressive first.

    Every yielded candidate is valid and has ``size()`` strictly below
    ``spec.size()`` — the invariant the termination proof rests on.
    """
    candidates: list[WorkloadSpec | None] = []
    if len(spec.patterns) > 1:
        # keep only the first phase, then try dropping each phase alone
        candidates.append(_try(spec, patterns=spec.patterns[:1]))
        for k in range(len(spec.patterns)):
            kept = spec.patterns[:k] + spec.patterns[k + 1 :]
            candidates.append(_try(spec, patterns=kept))
    if spec.steps > 1:
        candidates.append(_try(spec, steps=max(1, spec.steps // 2)))
    if spec.width > 1:
        # halving a power-of-two width keeps fft admissible; localities
        # may not outnumber columns, so clamp them together
        clamped = min(spec.num_localities, spec.width // 2)
        candidates.append(
            _try(
                spec,
                width=spec.width // 2,
                num_localities=clamped,
                use_recovery=spec.use_recovery and clamped > 1,
                use_tail=spec.use_tail and clamped > 1,
            )
        )
    if spec.num_localities > 1:
        # recovery and tail tolerance both need a survivor, so collapsing
        # to one locality drops those legs with it
        candidates.append(
            _try(spec, num_localities=1, use_recovery=False, use_tail=False)
        )
    if spec.use_recovery:
        candidates.append(_try(spec, use_recovery=False))
    if spec.use_rt:
        candidates.append(_try(spec, use_rt=False))
    if spec.use_tail:
        candidates.append(_try(spec, use_tail=False))
    if spec.faults_active:
        candidates.append(_try(spec, drop_rate=0.0, duplicate_rate=0.0))
    if spec.use_priorities:
        candidates.append(_try(spec, use_priorities=False))
    if spec.use_qos:
        # the scheduler stays "qos"; only the per-task class draws go
        candidates.append(_try(spec, use_qos=False))
    if spec.grain_ns < COARSE_GRAIN_NS:
        candidates.append(_try(spec, grain_ns=COARSE_GRAIN_NS))

    base = spec_size(spec)
    seen: set[tuple] = set()
    for candidate in candidates:
        if candidate is None or spec_size(candidate) >= base:
            continue
        key = tuple(sorted(candidate.to_dict().items(), key=lambda kv: kv[0]))
        key = tuple((k, tuple(v) if isinstance(v, list) else v) for k, v in key)
        if key in seen:
            continue
        seen.add(key)
        yield candidate


@dataclass(frozen=True)
class ShrinkResult:
    """Outcome of one greedy descent."""

    #: the smallest still-violating spec reached
    spec: WorkloadSpec
    #: every accepted intermediate, in order (original first)
    trail: tuple[WorkloadSpec, ...]

    @property
    def steps(self) -> int:
        return len(self.trail) - 1


def shrink(
    spec: WorkloadSpec,
    violates: Callable[[WorkloadSpec], bool],
    *,
    max_checks: int = 10_000,
) -> ShrinkResult:
    """Greedily minimize ``spec`` while ``violates`` keeps holding.

    ``violates(spec)`` must be True on entry (the caller just observed the
    failure); the returned spec is the last one it held for.  ``max_checks``
    bounds predicate evaluations as a safety valve — the size metric
    already guarantees termination long before any sane bound.
    """
    trail = [spec]
    checks = 0
    improved = True
    while improved and checks < max_checks:
        improved = False
        for candidate in shrink_candidates(spec):
            checks += 1
            if violates(candidate):
                spec = candidate
                trail.append(candidate)
                improved = True
                break
            if checks >= max_checks:
                break
    return ShrinkResult(spec=spec, trail=tuple(trail))
