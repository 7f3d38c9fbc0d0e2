"""Findings: the common currency of every analysis layer.

Static lint rules (``TG1xx``), graph analyses (``GA2xx``), the dynamic
checkers (``DC3xx``), and the parity-fuzzing invariants (``PF4xx``,
:mod:`repro.verify.invariants`) all report :class:`Finding` records so the
CLI, tests, and CI treat them uniformly.  A finding pins a rule ID, a
severity, a human-readable message, and — when it came from source — a
``file:line:col`` anchor.

Rule IDs are stable API: docs/analysis.md documents each one, inline
suppressions name them (``# noqa: TG101``), and the golden-findings tests
assert on them.  Add new rules by extending :data:`RULES`; never renumber.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.IntEnum):
    """Ordered so findings can be filtered with a threshold."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name.lower()


@dataclass(frozen=True)
class Rule:
    """Static description of one analysis rule."""

    rule_id: str
    name: str
    severity: Severity
    summary: str


#: Every rule any layer can emit.  See docs/analysis.md for rationale.
RULES: dict[str, Rule] = {
    r.rule_id: r
    for r in [
        # -- static lint (AST) ------------------------------------------------
        Rule(
            "TG100", "syntax-error", Severity.ERROR,
            "file could not be parsed; nothing else was checked",
        ),
        Rule(
            "TG101", "blocking-get-in-task", Severity.ERROR,
            "task body blocks on a future (.value/.get()/wait()); suspension "
            "must go through a generator yield or a dataflow dependency",
        ),
        Rule(
            "TG102", "lost-future", Severity.WARNING,
            "future is created but never composed or consumed — a dropped "
            "dependency-graph edge",
        ),
        Rule(
            "TG103", "unsynchronized-capture", Severity.WARNING,
            "task closure mutates enclosing mutable state without holding a "
            "lock (data race under the thread executor)",
        ),
        Rule(
            "TG104", "per-element-spawn", Severity.WARNING,
            "independent task spawned per element of a nested loop — the "
            "fine-grained overhead wall; chunk the work instead",
        ),
        Rule(
            "TG105", "unfulfilled-future", Severity.ERROR,
            "manually constructed Future() is never given a value or "
            "exception — anything waiting on it deadlocks",
        ),
        Rule(
            "TG106", "nondeterministic-source", Severity.WARNING,
            "task body reads a nondeterministic source (global random, "
            "wall/monotonic clock, datetime.now()) — breaks bit-identical "
            "replay; use the seeded SplitMix64 streams or inject an RNG",
        ),
        Rule(
            "TG107", "adhoc-lock-in-task", Severity.WARNING,
            "task body takes a shared Lock/RLock the scheduler cannot see "
            "— unbounded priority inversion; declare the resource with a "
            "critical section (repro.rt) so a protocol bounds the blocking",
        ),
        Rule(
            "TG108", "swallowed-fault", Severity.WARNING,
            "task body catches bare Exception (or everything) without "
            "re-raising — the typed fault hierarchy (ParcelLostError, "
            "TaskShedError, FencedEpochError, ...) is swallowed and the "
            "failure never reaches the consumer or the recovery layer",
        ),
        # -- graph analysis ---------------------------------------------------
        Rule(
            "GA201", "dependency-cycle", Severity.ERROR,
            "dependency graph contains a cycle; the runtime cannot order it "
            "and the program deadlocks",
        ),
        Rule(
            "GA202", "orphan-future", Severity.WARNING,
            "node contributes to no requested output (unreachable work)",
        ),
        # -- dynamic checkers -------------------------------------------------
        Rule(
            "DC301", "leaked-future", Severity.ERROR,
            "future was still pending when the runtime finished — its task "
            "never ran or its dependencies never completed",
        ),
        Rule(
            "DC302", "runtime-dependency-cycle", Severity.ERROR,
            "futures registered at runtime form a dependency cycle",
        ),
        Rule(
            "DC303", "data-race", Severity.ERROR,
            "monitored state was accessed by multiple threads with no common "
            "lock held (lockset analysis)",
        ),
        # -- parity-fuzzing invariants (repro.verify) -------------------------
        Rule(
            "PF401", "parcel-conservation", Severity.ERROR,
            "wire copies not conserved: sent + retransmitted != received + "
            "dropped + duplicates-discarded",
        ),
        Rule(
            "PF402", "task-conservation", Severity.ERROR,
            "task count not conserved: a spec'd task never completed, or "
            "the runtime executed tasks the spec does not describe",
        ),
        Rule(
            "PF403", "dependency-order-conservation", Severity.ERROR,
            "structural fingerprint differs from the spec's model — a task "
            "observed parent values the dependency graph does not produce",
        ),
        Rule(
            "PF404", "counter-identity", Severity.ERROR,
            "a counter identity is violated (offered != completed + shed, "
            "or readmitted != spilled)",
        ),
        Rule(
            "PF405", "unclean-run", Severity.ERROR,
            "a check=True run of a well-formed workload raised dynamic-"
            "checker findings",
        ),
        Rule(
            "PF406", "nondeterministic-rerun", Severity.ERROR,
            "the same seed did not replay bit-identically (execution time "
            "or counters differ between reruns)",
        ),
        Rule(
            "PF407", "backend-divergence", Severity.ERROR,
            "sim/thread/dist backends disagree on the structural result of "
            "the same workload spec",
        ),
        Rule(
            "PF408", "recovery-conservation", Severity.ERROR,
            "crash recovery did not conserve the lost work: re-executions "
            "!= losses, restores exceed durable checkpoints, or time-to-"
            "recover does not decompose into detection + restore + "
            "re-execution",
        ),
        Rule(
            "PF409", "rt-conservation", Severity.ERROR,
            "the deadline ledger does not balance: released != on-time + "
            "missed for some RT task, blocked time recorded without any "
            "contended acquire, or the miss set differs between reruns",
        ),
        Rule(
            "PF410", "speculation-conservation", Severity.ERROR,
            "the first-wins ledger does not balance: speculations != wins + "
            "called-off, originals cancelled without a winning clone, hedge "
            "copies unaccounted, or work amplification exceeds the "
            "speculation budget",
        ),
        Rule(
            "PF411", "fastpath-exact", Severity.ERROR,
            "a fast path changed a number: the run's execution time or "
            "counters differ from the same run in reference mode, or the "
            "reference run caught a fast path's invariant failing",
        ),
    ]
}


@dataclass(frozen=True)
class Finding:
    """One reported problem, anchored to source or to a runtime object."""

    rule_id: str
    message: str
    file: str = "<runtime>"
    line: int = 0
    col: int = 0
    #: severity resolved from RULES at construction unless overridden
    severity: Severity = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.severity is None:
            object.__setattr__(
                self, "severity", RULES[self.rule_id].severity
            )

    def format(self) -> str:
        """``file:line:col: RULE severity: message`` (line 0 = no anchor)."""
        anchor = f"{self.file}:{self.line}:{self.col}" if self.line else self.file
        return f"{anchor}: {self.rule_id} {self.severity}: {self.message}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule_id,
            "name": RULES[self.rule_id].name if self.rule_id in RULES else "",
            "severity": str(self.severity),
            "message": self.message,
            "file": self.file,
            "line": self.line,
            "col": self.col,
        }


def sort_findings(findings: list[Finding]) -> list[Finding]:
    """Stable report order: by file, line, column, then rule ID."""
    return sorted(
        findings, key=lambda f: (f.file, f.line, f.col, f.rule_id)
    )
