"""Differential parity fuzzing and the shared invariant engine.

The safety net under every refactor of the three runtimes: seeded
:class:`WorkloadSpec` workloads (:mod:`repro.verify.spec`) run on the
simulated :class:`~repro.runtime.runtime.Runtime`, the OS-thread
:class:`~repro.runtime.thread_executor.ThreadRuntime`, and
:class:`~repro.dist.DistRuntime` (one locality of which must agree with
``Runtime`` *bit-exactly*); the harness (:mod:`repro.verify.harness`)
diffs structural fingerprints and checks the named conservation laws of
:mod:`repro.verify.invariants` (``PF4xx`` findings through the
:mod:`repro.analysis` catalogue); failures shrink
(:mod:`repro.verify.shrink`) to minimal JSON reproducers replayable with
``python -m repro.verify replay``.  Design notes: docs/verify.md.
"""

from repro.verify.harness import (
    StructuralResult,
    VerifyReport,
    build_verify_graph,
    expected_result,
    flip_fingerprint,
    run_dist,
    run_dist_crash,
    run_sim,
    run_threads,
    verify_spec,
)
from repro.verify.invariants import (
    ADMISSION_CONSERVED,
    ANALYSIS_CLEAN,
    BACKENDS_AGREE,
    DEPENDENCY_ORDER_CONSERVED,
    INVARIANTS,
    Invariant,
    PARCELS_CONSERVED,
    RECOVERY_CONSERVED,
    RERUN_IDENTICAL,
    SPILL_CONSERVED,
    TASKS_CONSERVED,
)
from repro.verify.shrink import ShrinkResult, shrink, shrink_candidates, spec_size
from repro.verify.spec import WorkloadSpec, generate_spec

__all__ = [
    "WorkloadSpec",
    "generate_spec",
    "StructuralResult",
    "VerifyReport",
    "build_verify_graph",
    "expected_result",
    "flip_fingerprint",
    "run_dist",
    "run_dist_crash",
    "run_sim",
    "run_threads",
    "verify_spec",
    "Invariant",
    "INVARIANTS",
    "PARCELS_CONSERVED",
    "TASKS_CONSERVED",
    "DEPENDENCY_ORDER_CONSERVED",
    "ADMISSION_CONSERVED",
    "SPILL_CONSERVED",
    "ANALYSIS_CLEAN",
    "RERUN_IDENTICAL",
    "BACKENDS_AGREE",
    "RECOVERY_CONSERVED",
    "ShrinkResult",
    "shrink",
    "shrink_candidates",
    "spec_size",
]
