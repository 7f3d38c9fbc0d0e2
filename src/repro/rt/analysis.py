"""Response-time analysis: the schedulability oracle for `repro.rt`.

figE *measures* deadline misses by running task sets on the simulated
runtime; this module *predicts* them with the classical fixed-priority
response-time recurrence (Joseph & Pandya / Audsley):

    R_i = C_i + B_i + sum over j in hp(i) of ceil((R_i + J_j) / T_j) * C_j

iterated to a fixpoint, where ``C_j`` is the per-job demand, ``T_j`` the
minimum interarrival, ``J_j`` the release jitter, and ``B_i`` the
blocking term the resource protocol decides.  Task ``i`` is schedulable
when the fixpoint satisfies ``R_i <= D_i``.

The interesting part is making the textbook arithmetic *honest about
this runtime*.  The service layer (:mod:`repro.rt.service`) runs each
job as a chain of grain-split subtasks, and every subtask pays the full
task-management overhead — so the oracle's ``C_i`` is not the WCET but

    C_i = WCET * (1 + margin) + n_chunks * chunk_overhead [+ lock cost]

with ``chunk_overhead`` taken from the platform's calibrated
``task_overhead_ns`` (times the figE overhead factor) plus the timing
counters, and ``margin`` covering the cost model's bounded seeded jitter
(run-level and per-task, both within a few percent).  The fine-grain
wall therefore appears *inside the analysis*: shrinking the grain grows
``n_chunks`` until the inflated utilization exceeds the machine and
nothing is schedulable — the paper's overhead wall, derived rather than
simulated.  Preemption only happens at chunk boundaries, so ``B_i``
always includes one lower-priority chunk in flight (deferred-preemption
blocking — the analysis face of the coarse-grain wall: a monolithic
lower-priority job blocks an urgent task for its whole length).

Blocking per protocol (see :mod:`repro.rt.resources`):

``none``
    A lower-priority holder can be starved indefinitely by middle
    traffic while the urgent task waits, so the bound is *infinite*:
    any task that can block on a lower-priority holder is reported
    unschedulable.  That pessimism is the point — it is exactly the
    unbounded priority inversion figE observes.

``inherit``
    One maximal boosted critical section per resource that a
    lower-priority task shares with priority >= i (push-through
    blocking included), plus the chunk overheads the holder pays while
    boosted.

``ceiling``
    A single maximal such critical section — under the immediate
    ceiling a job is blocked at most once, before it starts.

Scope, stated precisely: the recurrence is a **sufficient** test for
the rate-monotonic / ``priority-local`` configuration on **one core**
(``RtServiceConfig(scheduler="rm", num_cores=1)``) — RTA-schedulable
means the measured run misses nothing, which
``tests/test_rt_analysis.py`` cross-checks against real
:func:`repro.rt.service.run_rt_service` miss sets.  It is **necessary**
only through the overload check: raw utilization above the core count
is reported ``infeasible`` and must miss in any configuration.
Everything else — multicore, EDF — is honestly ``unknown``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.rt.model import RtTaskSpec, TaskSet, split_exact
from repro.rt.resources import PROTOCOLS
from repro.rt.scheduler import rate_monotonic_priorities
from repro.runtime.task import Priority
from repro.sim.costmodel import LOCK_OVERHEAD_NS
from repro.sim.platforms import get_platform

__all__ = [
    "INFEASIBLE",
    "SCHEDULABLE",
    "UNKNOWN",
    "RtaResult",
    "TaskRta",
    "response_time",
    "rta",
]

#: every task's response-time fixpoint is at or under its deadline
SCHEDULABLE = "schedulable"
#: a *necessary* condition fails (raw utilization > cores): misses certain
INFEASIBLE = "infeasible"
#: the sufficient test failed or does not apply — no prediction either way
UNKNOWN = "unknown"

#: iteration cap for the recurrence; the fixpoint either lands or blows
#: through the deadline long before this on any sane task set
_MAX_ITERATIONS = 4096


def response_time(
    demand_ns: float,
    blocking_ns: float,
    deadline_ns: int,
    interferers: Sequence[tuple[float, int, int]],
    *,
    max_iterations: int = _MAX_ITERATIONS,
) -> float:
    """Solve ``R = C + B + sum ceil((R + J_j)/T_j) * C_j`` by iteration.

    ``interferers`` are ``(demand_ns, min_interarrival_ns, jitter_ns)``
    triples for every task of equal or higher priority.  Returns the
    fixpoint, or ``inf`` as soon as the iterate exceeds ``deadline_ns``
    (the recurrence is monotone, so overshooting once is final) or the
    blocking term is already unbounded.
    """
    if math.isinf(blocking_ns):
        return math.inf
    r = demand_ns + blocking_ns
    for _ in range(max_iterations):
        if r > deadline_ns:
            return math.inf
        total = (
            demand_ns
            + blocking_ns
            + sum(
                math.ceil((r + jitter) / period) * demand
                for demand, period, jitter in interferers
            )
        )
        if total == r:
            return r
        r = total
    return math.inf


@dataclass(frozen=True)
class TaskRta:
    """One task's share of the analysis."""

    name: str
    priority: Priority
    #: subtask chain length at the analyzed grain (WCET job)
    chunks: int
    #: overhead-inflated per-job demand bound (ns)
    demand_ns: float
    #: protocol blocking plus one lower-priority chunk in flight (ns)
    blocking_ns: float
    #: worst-case response fixpoint; ``inf`` = not schedulable / unknown
    response_ns: float
    deadline_ns: int

    @property
    def schedulable(self) -> bool:
        return self.response_ns <= self.deadline_ns


@dataclass(frozen=True)
class RtaResult:
    """The oracle's verdict plus every task's arithmetic."""

    verdict: str
    tasks: tuple[TaskRta, ...]
    #: raw WCET utilization of the set (no overhead)
    utilization: float
    #: utilization once per-chunk management overhead is priced in
    inflated_utilization: float
    num_cores: int
    protocol: str

    @property
    def schedulable(self) -> bool:
        return self.verdict == SCHEDULABLE

    def task(self, name: str) -> TaskRta:
        for entry in self.tasks:
            if entry.name == name:
                return entry
        raise KeyError(f"no RT task named {name!r} in the analysis")


def _chunk_lengths(spec: RtTaskSpec) -> tuple[int, ...]:
    """The WCET job's subtask lengths at the spec's grain.

    Drawn demand never exceeds the WCET and ``split_exact`` chunk counts
    are monotone in the total, so the WCET chain bounds every real job.
    """
    cs = spec.critical_section_ns
    return split_exact(cs, spec.grain_ns) + split_exact(
        spec.wcet_ns - cs, spec.grain_ns
    )


def rta(
    taskset: TaskSet,
    *,
    num_cores: int = 1,
    protocol: str = "inherit",
    platform: str = "haswell",
    overhead_factor: float = 1.0,
    margin: float = 0.05,
) -> RtaResult:
    """Analyze ``taskset`` for the given deployment; see the module doc.

    ``margin`` is the fractional allowance for the cost model's bounded
    seeded jitter (run-level and per-task are each within 2%); it
    inflates both compute demand and per-chunk overhead, keeping the
    sufficient test sufficient.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(
            f"unknown resource protocol {protocol!r}; expected one of "
            f"{PROTOCOLS}"
        )
    if num_cores < 1:
        raise ValueError(f"num_cores must be >= 1, got {num_cores}")
    if overhead_factor <= 0:
        raise ValueError(
            f"overhead_factor must be positive, got {overhead_factor}"
        )
    if margin < 0:
        raise ValueError(f"margin must be >= 0, got {margin}")

    costs = get_platform(platform).costs
    chunk_overhead = (
        costs.task_overhead_ns * overhead_factor * (1.0 + margin)
        + costs.timer_overhead_ns
    )
    priorities = rate_monotonic_priorities(taskset)

    chunks = {t.name: _chunk_lengths(t) for t in taskset.tasks}
    demand: dict[str, float] = {}
    for t in taskset.tasks:
        demand[t.name] = (
            t.wcet_ns * (1.0 + margin)
            + len(chunks[t.name]) * chunk_overhead
            + (LOCK_OVERHEAD_NS if t.resource is not None else 0.0)
        )

    utilization = taskset.utilization()
    inflated_utilization = sum(
        demand[t.name] / t.min_interarrival_ns for t in taskset.tasks
    )

    def cs_cost(spec: RtTaskSpec) -> float:
        """A holder's boosted critical section, chunk overheads included.

        The extra chunk covers the re-queued husk (``requeue_on_boost``)
        or, equivalently, one critical-section subtask already in flight
        when the waiter arrives.
        """
        n_cs = len(split_exact(spec.critical_section_ns, spec.grain_ns))
        return spec.critical_section_ns * (1.0 + margin) + (
            n_cs + 1
        ) * chunk_overhead

    def blocking(spec: RtTaskSpec) -> float:
        mine = priorities[spec.name]
        lower = [t for t in taskset.tasks if priorities[t.name] < mine]
        # Deferred preemption: cooperative tasks yield only at chunk
        # boundaries, so one lower-priority chunk is always in flight at
        # the critical instant.
        npb = max(
            (
                max(chunks[t.name], default=0) * (1.0 + margin)
                + chunk_overhead
                for t in lower
            ),
            default=0.0,
        )
        # A resource qualifies when a lower-priority task holds it and a
        # task at priority >= mine uses it (push-through blocking: the
        # holder can be boosted past me even if I never touch the bus).
        per_resource: list[float] = []
        for resource in taskset.resources():
            holders = [t for t in lower if t.resource == resource]
            if not holders:
                continue
            reachable = any(
                t.resource == resource and priorities[t.name] >= mine
                for t in taskset.tasks
            )
            if not reachable:
                continue
            if protocol == "none":
                # The holder keeps its LOW priority and middle traffic
                # starves it under the waiter: unbounded inversion.
                return math.inf
            per_resource.append(max(cs_cost(t) for t in holders))
        if not per_resource:
            return npb
        if protocol == "ceiling":
            return npb + max(per_resource)
        return npb + sum(per_resource)

    def analyze(spec: RtTaskSpec) -> TaskRta:
        mine = priorities[spec.name]
        interferers = [
            (demand[t.name], t.min_interarrival_ns, t.release_jitter_ns)
            for t in taskset.tasks
            if t is not spec and priorities[t.name] >= mine
        ]
        b = blocking(spec)
        response = response_time(
            demand[spec.name], b, spec.relative_deadline_ns, interferers
        )
        return TaskRta(
            name=spec.name,
            priority=mine,
            chunks=len(chunks[spec.name]),
            demand_ns=demand[spec.name],
            blocking_ns=b,
            response_ns=response,
            deadline_ns=spec.relative_deadline_ns,
        )

    if utilization > num_cores:
        # Necessary condition: long-run demand exceeds the machine, so a
        # growing backlog (and misses) is certain in every configuration.
        entries = tuple(
            TaskRta(
                name=t.name,
                priority=priorities[t.name],
                chunks=len(chunks[t.name]),
                demand_ns=demand[t.name],
                blocking_ns=0.0,
                response_ns=math.inf,
                deadline_ns=t.relative_deadline_ns,
            )
            for t in taskset.tasks
        )
        return RtaResult(
            verdict=INFEASIBLE,
            tasks=entries,
            utilization=utilization,
            inflated_utilization=inflated_utilization,
            num_cores=num_cores,
            protocol=protocol,
        )

    entries = tuple(analyze(t) for t in taskset.tasks)
    if num_cores != 1:
        # The uniprocessor recurrence proves nothing about a multicore
        # deployment (Dhall's effect cuts both ways) — report the
        # arithmetic but claim nothing.
        verdict = UNKNOWN
    else:
        verdict = (
            SCHEDULABLE if all(e.schedulable for e in entries) else UNKNOWN
        )
    return RtaResult(
        verdict=verdict,
        tasks=entries,
        utilization=utilization,
        inflated_utilization=inflated_utilization,
        num_cores=num_cores,
        protocol=protocol,
    )
