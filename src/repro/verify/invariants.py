"""Named, reusable invariants — the ``PF4xx`` catalogue made executable.

Before this module the repo's conservation laws lived as ad-hoc asserts
scattered across their discovery sites: ``assert_parcels_conserved`` in
:mod:`repro.dist.runtime` (called by figD/figR/figO), hand-rolled
``offered == completed + shed`` arithmetic in figO, the task-count check
in the Task Bench driver, bit-identical-rerun comparisons in the overload
experiment.  Each :class:`Invariant` here names one of those laws once,
and everything — the differential harness, the experiments, the tests —
checks it through the same object, reporting :class:`Finding` records
under the ``PF4xx`` rule IDs of the shared :mod:`repro.analysis`
catalogue.

Three spellings of the same check:

- ``check(...)``  -> ``list[Finding]`` — for harnesses that aggregate;
- ``holds(...)``  -> ``bool``          — for counting violations (figO);
- ``require(...)``                     — raises ``AssertionError`` with the
  *identical* message legacy call sites raised (figD/figR; the regression
  test in tests/test_verify_invariants.py pins the parcel text verbatim).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.analysis.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (dist imports us)
    from repro.dist.runtime import DistRunResult
    from repro.rt.service import RtServiceOutcome
    from repro.runtime.runtime import RunResult


@dataclass(frozen=True)
class Invariant:
    """One named structural law, reported under a ``PF4xx`` rule ID."""

    rule_id: str
    name: str
    description: str
    #: returns the violation message, or None when the law holds
    violation: Callable[..., str | None]

    def check(self, *args: Any, **kwargs: Any) -> list[Finding]:
        """Findings (empty when the invariant holds)."""
        message = self.violation(*args, **kwargs)
        if message is None:
            return []
        return [Finding(self.rule_id, message, file="<invariant>")]

    def holds(self, *args: Any, **kwargs: Any) -> bool:
        return self.violation(*args, **kwargs) is None

    def require(self, *args: Any, **kwargs: Any) -> None:
        """Raise ``AssertionError`` (legacy assert-style call sites)."""
        message = self.violation(*args, **kwargs)
        if message is not None:
            raise AssertionError(message)


# -- PF401: every wire copy meets exactly one fate ------------------------------


def _parcels_violation(result: "DistRunResult") -> str | None:
    on_wire = result.parcels_sent + result.parcels_retransmitted
    off_wire = (
        result.parcels_received
        + result.parcels_dropped
        + result.duplicates_discarded
    )
    if on_wire == off_wire:
        return None
    # Wording is stable API: figD/figR asserted exactly this text before the
    # check moved here, and the regression test pins it.
    return (
        f"parcel conservation violated: {result.parcels_sent} sent + "
        f"{result.parcels_retransmitted} retransmitted != "
        f"{result.parcels_received} received + "
        f"{result.parcels_dropped} dropped + "
        f"{result.duplicates_discarded} duplicates discarded"
    )


PARCELS_CONSERVED = Invariant(
    "PF401",
    "parcels-conserved",
    "sent + retransmitted == received + dropped + duplicates-discarded",
    _parcels_violation,
)


# -- PF402: every spawned task completes, and only spec'd tasks run -------------


def _tasks_violation(expected: int, unready: int, executed: int) -> str | None:
    if unready:
        return (
            f"task conservation violated: {unready} of {expected} futures "
            "never became ready"
        )
    if executed != expected:
        return (
            f"task conservation violated: runtime executed {executed} "
            f"tasks, spec describes {expected}"
        )
    return None


TASKS_CONSERVED = Invariant(
    "PF402",
    "tasks-conserved",
    "every task the spec describes runs to completion, and nothing else",
    _tasks_violation,
)


# -- PF403: dependency wiring matches the spec ----------------------------------


def _order_violation(
    expected_fingerprint: int, actual_fingerprint: int, backend: str = "run"
) -> str | None:
    if expected_fingerprint == actual_fingerprint:
        return None
    return (
        f"dependency-order conservation violated on {backend}: structural "
        f"fingerprint {actual_fingerprint:#018x} != model "
        f"{expected_fingerprint:#018x} (a task observed parent values the "
        "spec graph does not produce)"
    )


DEPENDENCY_ORDER_CONSERVED = Invariant(
    "PF403",
    "dependency-order-conserved",
    "every task observed exactly the parent values the spec graph wires in",
    _order_violation,
)


# -- PF404: admission/spill counter identities ----------------------------------


def _admission_violation(offered: int, completed: int, shed: int) -> str | None:
    if offered == completed + shed:
        return None
    return (
        f"admission conservation violated: {offered} offered != "
        f"{completed} completed + {shed} shed"
    )


ADMISSION_CONSERVED = Invariant(
    "PF404",
    "admission-conserved",
    "offered == completed + shed (no task vanishes at the admission gate)",
    _admission_violation,
)


def _spill_violation(result: "RunResult") -> str | None:
    if result.tasks_readmitted == result.tasks_spilled:
        return None
    return (
        f"spill conservation violated: {result.tasks_readmitted:g} "
        f"readmitted != {result.tasks_spilled:g} spilled (the spill queue "
        "leaked or duplicated tasks)"
    )


SPILL_CONSERVED = Invariant(
    "PF404",
    "spill-conserved",
    "readmitted == spilled (the spill queue drains exactly once)",
    _spill_violation,
)


# -- PF408: crash recovery conserves the lost work ------------------------------


def _recovery_violation(result: "DistRunResult") -> str | None:
    if result.crashes_detected == 0:
        if result.tasks_lost or result.tasks_reexecuted:
            return (
                "recovery conservation violated: "
                f"{result.tasks_lost} tasks lost and "
                f"{result.tasks_reexecuted} re-executed with no crash "
                "declared"
            )
        return None
    if result.tasks_reexecuted != result.tasks_lost:
        return (
            "recovery conservation violated: "
            f"{result.tasks_lost} task(s) lost to the crash but "
            f"{result.tasks_reexecuted} re-executed (lost work must be "
            "re-executed exactly once)"
        )
    if result.tasks_restored > result.tasks_checkpointed:
        return (
            "recovery conservation violated: "
            f"{result.tasks_restored} task(s) restored exceeds the "
            f"{result.tasks_checkpointed} ever made durable (a restore "
            "must come from a checkpoint)"
        )
    decomposed = (
        result.detection_ns + result.restore_ns + result.reexecution_ns
    )
    if decomposed != result.recovery_total_ns:
        return (
            "recovery conservation violated: time-to-recover "
            f"{result.recovery_total_ns} ns != detection "
            f"{result.detection_ns} + restore {result.restore_ns} + "
            f"re-execution {result.reexecution_ns} ns"
        )
    return None


RECOVERY_CONSERVED = Invariant(
    "PF408",
    "recovery-conserved",
    "lost tasks are re-executed exactly once, restores come from durable "
    "checkpoints, and time-to-recover decomposes exactly",
    _recovery_violation,
)


# -- PF409: the deadline ledger balances and replays ----------------------------


def _rt_violation(
    first: "RtServiceOutcome", second: "RtServiceOutcome"
) -> str | None:
    for index, s in first.stats.items():
        if s.released != s.on_time + s.missed:
            return (
                "rt conservation violated: task "
                f"{first.taskset.tasks[index].name!r} released {s.released} "
                f"jobs != {s.on_time} on time + {s.missed} missed"
            )
    res = first.resources
    if res.blocked == 0 and (res.blocked_ns or res.max_blocked_ns):
        return (
            "rt conservation violated: no acquire ever blocked yet "
            f"{res.blocked_ns} ns of blocked time was recorded (blocked "
            "time without contention)"
        )
    if first.released() != second.released():
        return (
            "rt conservation violated: rerun released "
            f"{second.released()} jobs, first run {first.released()} — "
            "the open-loop release schedule is seed-deterministic"
        )
    if first.missed_jobs() != second.missed_jobs():
        return (
            "rt conservation violated: rerun missed "
            f"{second.missed_jobs()} but first run missed "
            f"{first.missed_jobs()} — the miss set must replay "
            "bit-identically"
        )
    return None


RT_CONSERVED = Invariant(
    "PF409",
    "rt-conserved",
    "released == on-time + missed per RT task, blocked time only under "
    "contention, and the miss set replays bit-identically",
    _rt_violation,
)


# -- PF410: speculation and hedging keep first-wins exact -----------------------


def _speculation_violation(result: "DistRunResult") -> str | None:
    resolved = result.speculation_wins + result.speculations_cancelled
    if resolved != result.tasks_speculated:
        return (
            "speculation conservation violated: "
            f"{result.tasks_speculated} task(s) speculated != "
            f"{result.speculation_wins} clone wins + "
            f"{result.speculations_cancelled} called off (a speculation "
            "must resolve exactly once)"
        )
    if result.originals_cancelled > result.speculation_wins:
        return (
            "speculation conservation violated: "
            f"{result.originals_cancelled} original(s) cancelled exceeds "
            f"{result.speculation_wins} clone win(s) (an original is only "
            "cancelled by the clone that beat it)"
        )
    if result.hedges_sent != result.hedges_won + result.hedges_lost:
        return (
            "speculation conservation violated: "
            f"{result.hedges_sent} hedge(s) sent != "
            f"{result.hedges_won} won + {result.hedges_lost} deduplicated "
            "(every hedge copy on the wire meets exactly one fate)"
        )
    if result.hedges_armed != result.hedges_sent + result.hedges_cancelled:
        return (
            "speculation conservation violated: "
            f"{result.hedges_armed} hedge timer(s) armed != "
            f"{result.hedges_sent} fired + {result.hedges_cancelled} "
            "cancelled (a hedge timer either fires or is cancelled)"
        )
    if (
        result.speculation_budget
        and result.tasks_speculated > result.speculation_budget
    ):
        return (
            "speculation conservation violated: "
            f"{result.tasks_speculated} task(s) speculated exceeds the "
            f"work-amplification budget of {result.speculation_budget} "
            "(MAX_SPECULATION_FRAC of completed work)"
        )
    if result.tasks_speculated == 0 and result.originals_cancelled:
        return (
            "speculation conservation violated: "
            f"{result.originals_cancelled} original(s) cancelled with no "
            "speculation launched"
        )
    return None


SPECULATION_CONSERVED = Invariant(
    "PF410",
    "speculation-conserved",
    "every speculation resolves exactly once (win or called off), originals "
    "fall only to winning clones, hedge copies are fully accounted, and "
    "work amplification stays within the configured budget",
    _speculation_violation,
)


# -- PF405: the dynamic checker stays clean -------------------------------------


def _clean_violation(error: str | None, backend: str = "run") -> str | None:
    if error is None:
        return None
    return f"check=True run on {backend} reported: {error}"


ANALYSIS_CLEAN = Invariant(
    "PF405",
    "analysis-clean",
    "a check=True run raises no dynamic-checker findings",
    _clean_violation,
)


# -- PF406: bit-identical rerun -------------------------------------------------


#: counters a PF406 finding names before it says "(+N more)"
_DIFFS_SHOWN = 3


def _counter_diff(a: Mapping[str, float], b: Mapping[str, float]) -> str:
    keys = sorted(set(a) | set(b))
    diffs = [k for k in keys if a.get(k) != b.get(k)]
    shown = ", ".join(
        f"{k}: {a.get(k)} != {b.get(k)}" for k in diffs[:_DIFFS_SHOWN]
    )
    hidden = len(diffs) - _DIFFS_SHOWN
    return shown + (f" (+{hidden} more)" if hidden > 0 else "")


def _runs_differ(first: "RunResult", second: "RunResult") -> str | None:
    """Where two runs differ: execution time first, then counters."""
    if first.execution_time_ns != second.execution_time_ns:
        return (
            f"execution time {first.execution_time_ns} ns != "
            f"{second.execution_time_ns} ns"
        )
    if dict(first.counters.values) != dict(second.counters.values):
        return "counters differ — " + _counter_diff(
            first.counters.values, second.counters.values
        )
    return None


def _rerun_violation(first: "RunResult", second: "RunResult") -> str | None:
    diff = _runs_differ(first, second)
    return None if diff is None else f"rerun determinism violated: {diff}"


RERUN_IDENTICAL = Invariant(
    "PF406",
    "rerun-identical",
    "the same seed replays to bit-identical time and counters",
    _rerun_violation,
)


# -- PF411: fast paths change no number ------------------------------------------


def _fastpath_violation(
    fast: "RunResult", reference: "RunResult | AssertionError"
) -> str | None:
    """``reference`` is the same run built inside
    :func:`repro.fastpath.reference`, or the error it raised there."""
    if isinstance(reference, AssertionError):
        return f"fast path not exact: the reference run raised: {reference}"
    diff = _runs_differ(fast, reference)
    return None if diff is None else f"fast path not exact: {diff}"


FASTPATH_EXACT = Invariant(
    "PF411",
    "fastpath-exact",
    "a run with the fast paths gives the time and counters of the same run "
    "in reference mode",
    _fastpath_violation,
)


# -- PF407: backends agree structurally -----------------------------------------


def _divergence_violation(reference: Any, other: Any) -> str | None:
    """Both arguments are :class:`repro.verify.harness.StructuralResult`."""
    if reference.total_tasks != other.total_tasks:
        return (
            f"backend divergence: {other.backend} built "
            f"{other.total_tasks} tasks, {reference.backend} built "
            f"{reference.total_tasks}"
        )
    if reference.unready != other.unready:
        return (
            f"backend divergence: {other.unready} unready futures on "
            f"{other.backend} vs {reference.unready} on {reference.backend}"
        )
    if reference.fingerprint != other.fingerprint:
        return (
            f"backend divergence: {other.backend} fingerprint "
            f"{other.fingerprint:#018x} != {reference.backend} fingerprint "
            f"{reference.fingerprint:#018x}"
        )
    return None


BACKENDS_AGREE = Invariant(
    "PF407",
    "backends-agree",
    "sim, thread, and dist backends produce the same structural result",
    _divergence_violation,
)


#: the catalogue, by invariant name (CLI ``list-invariants`` prints this)
INVARIANTS: dict[str, Invariant] = {
    inv.name: inv
    for inv in (
        PARCELS_CONSERVED,
        TASKS_CONSERVED,
        DEPENDENCY_ORDER_CONSERVED,
        ADMISSION_CONSERVED,
        SPILL_CONSERVED,
        ANALYSIS_CLEAN,
        RERUN_IDENTICAL,
        BACKENDS_AGREE,
        RECOVERY_CONSERVED,
        RT_CONSERVED,
        SPECULATION_CONSERVED,
        FASTPATH_EXACT,
    )
}

__all__ = [
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
    "RT_CONSERVED",
    "SPECULATION_CONSERVED",
    "FASTPATH_EXACT",
]
