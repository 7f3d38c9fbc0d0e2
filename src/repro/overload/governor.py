"""OverloadGovernor: graceful degradation instead of collapse.

The paper's Sec. VI names the control loop this module closes: the
idle-rate (Eq. 1) and pending-queue metrics (Figs. 9/10) are cheap,
timestamp-free signals, and grain size is the knob.  The governor
watches those signals between epochs (tuner idiom,
:mod:`repro.core.tuner`) and acts so that goodput *plateaus* at the
machine's capacity when offered load keeps rising, rather than
collapsing under task-management overhead: :meth:`OverloadGovernor.observe`
inspects a finished epoch's :class:`~repro.runtime.runtime.RunResult` and
coarsens the grain when management overhead rivals useful work, or
refines it when the machine starves at coarse grain.  Every action is
recorded in :attr:`OverloadGovernor.actions`.

The in-run counterpart — throttling the active workers from interval
counter deltas — is :class:`repro.core.policy.ThrottlingPolicy` under a
:class:`~repro.core.policy.PolicyEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.runtime import RunResult

__all__ = ["GovernorSignals", "GovernorAction", "OverloadGovernor"]

#: coarsen when per-task management time exceeds this fraction of per-task
#: execution time (t_o / t_d)
OVERHEAD_HIGH = 0.5
#: refine when idle-rate exceeds this with empty queues (starvation)
IDLE_HIGH = 0.4
#: per-worker staged+pending depth considered backlogged
DEPTH_HIGH = 32.0
#: multiplicative grain step for coarsen/refine
GRAIN_STEP = 2.0
#: the grain range the governor moves within
MIN_GRAIN_NS = 1_000
MAX_GRAIN_NS = 4_000_000


@dataclass(frozen=True)
class GovernorSignals:
    """One epoch's worth of overload signals, all dimensionless."""

    idle_rate: float  #: Eq. 1
    overhead_ratio: float  #: t_o / t_d
    depth_per_worker: float  #: peak staged+pending depth per worker
    pending_miss_rate: float  #: misses / accesses (Figs. 9/10 signal)
    shed_fraction: float  #: shed / offered (0 when admission off)
    #: shed / arrived among the *highest-rank* QoS tenants (0 without a
    #: QoS layer).  Class-aware shedding drops low-QoS work first, so any
    #: nonzero value here means overload has eaten through every buffer
    #: the class ladder provides — the strongest signal the governor sees.
    high_qos_shed_fraction: float = 0.0

    @classmethod
    def from_run(cls, result: "RunResult") -> "GovernorSignals":
        """Derive the signals from a finished run's counters."""
        counters = result.counters
        t_d = result.task_duration_ns
        t_o = result.task_overhead_ns
        accesses = result.pending_accesses
        offered = counters.get("/overload/count/offered")
        peak = counters.get("/overload/count/peak-queue-depth@gauge")
        high_arrived = counters.get("/qos/count/high-arrived")
        return cls(
            idle_rate=result.idle_rate,
            overhead_ratio=(t_o / t_d) if t_d > 0 else 0.0,
            depth_per_worker=peak / max(1, result.num_cores),
            pending_miss_rate=(
                result.pending_misses / accesses if accesses > 0 else 0.0
            ),
            shed_fraction=(
                counters.get("/overload/count/shed") / offered
                if offered > 0
                else 0.0
            ),
            high_qos_shed_fraction=(
                counters.get("/qos/count/high-shed") / high_arrived
                if high_arrived > 0
                else 0.0
            ),
        )


@dataclass(frozen=True)
class GovernorAction:
    """Log entry of one governor decision."""

    kind: str  #: "coarsen" | "refine" | "hold"
    reason: str
    grain_ns: int  #: grain in force after the action


class OverloadGovernor:
    """Watches an epoch's overload signals; coarsens or refines the grain."""

    def __init__(self, *, grain_ns: int):
        if not MIN_GRAIN_NS <= grain_ns <= MAX_GRAIN_NS:
            raise ValueError(
                f"initial grain {grain_ns} outside "
                f"[{MIN_GRAIN_NS}, {MAX_GRAIN_NS}]"
            )
        self.grain_ns = grain_ns
        self.actions: list[GovernorAction] = []

    def observe(self, signals: GovernorSignals) -> GovernorAction:
        """Digest one epoch's signals; returns (and records) the action."""
        overloaded = (
            signals.shed_fraction > 0.0
            or signals.depth_per_worker >= DEPTH_HIGH
        )
        if signals.high_qos_shed_fraction > 0.0:
            # Shedding highest-rank work means the class ladder's buffers
            # are exhausted: coarsen unconditionally (if headroom remains)
            # — larger grains cut per-task management cost, which is the
            # only capacity the governor can recover for premium traffic.
            new_grain = min(int(self.grain_ns * GRAIN_STEP), MAX_GRAIN_NS)
            if new_grain > self.grain_ns:
                self.grain_ns = new_grain
                return self._record(
                    "coarsen",
                    f"high-QoS shed fraction "
                    f"{signals.high_qos_shed_fraction:.2%} > 0",
                )
        if signals.overhead_ratio > OVERHEAD_HIGH and (
            overloaded or signals.idle_rate > IDLE_HIGH
        ):
            # Management overhead rivals useful work while queues are
            # deep: fewer, larger tasks absorb the same offered work for
            # less per-task cost.
            new_grain = min(int(self.grain_ns * GRAIN_STEP), MAX_GRAIN_NS)
            if new_grain > self.grain_ns:
                self.grain_ns = new_grain
                return self._record(
                    "coarsen",
                    f"overhead ratio {signals.overhead_ratio:.2f} "
                    f"> {OVERHEAD_HIGH}",
                )
        elif (
            signals.idle_rate > IDLE_HIGH
            and not overloaded
            and signals.pending_miss_rate > 0.5
        ):
            # Workers mostly find empty queues and the machine idles:
            # the grain is too coarse to feed every core.
            new_grain = max(int(self.grain_ns / GRAIN_STEP), MIN_GRAIN_NS)
            if new_grain < self.grain_ns:
                self.grain_ns = new_grain
                return self._record(
                    "refine",
                    f"idle-rate {signals.idle_rate:.2f} with "
                    f"{signals.pending_miss_rate:.0%} queue misses",
                )
        return self._record("hold", "signals within bounds")

    def _record(self, kind: str, reason: str) -> GovernorAction:
        action = GovernorAction(kind=kind, reason=reason, grain_ns=self.grain_ns)
        self.actions.append(action)
        return action
