"""Execution tracing: an OTF2/APEX-lite event record for simulated runs.

The paper's methodology aggregates counters; debugging *why* a grain size
misbehaves needs the underlying schedule.  The tracer records, in virtual
time:

- per task-phase: worker, task id/name, dispatch time, management time,
  execution interval, provenance;
- per steal: thief, same-domain or not, staged or pending;
- per spawn: the child task and the task it was spawned from.

Tracing is opt-in (``RuntimeConfig(trace=True)``): the trace is a
:class:`repro.layer.Layer` on the executor whose hooks append one record
per event, so traced runs remain cheap and untraced ones run no hook.
:mod:`repro.core.timeline` consumes traces for utilization profiles, wave
analysis, and an ASCII Gantt rendering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.layer import Layer
from repro.schedulers.base import WorkSource

#: WorkSource -> provenance label recorded in traces
_SOURCE_LABELS = {
    WorkSource.LOCAL_PENDING: "local",
    WorkSource.LOCAL_STAGED: "local",
    WorkSource.NUMA_STAGED: "numa",
    WorkSource.NUMA_PENDING: "numa",
    WorkSource.REMOTE_STAGED: "remote",
    WorkSource.REMOTE_PENDING: "remote",
    WorkSource.HIGH_PRIORITY: "high-priority",
    WorkSource.LOW_PRIORITY: "low-priority",
}


@dataclass(frozen=True, slots=True)
class PhaseRecord:
    """One executed task phase."""

    task_id: int
    task_name: str
    worker: int
    phase: int
    #: when the worker picked the task up (before management costs)
    dispatch_ns: int
    #: management time paid before execution began
    mgmt_ns: int
    #: execution interval [start_ns, end_ns)
    start_ns: int
    end_ns: int
    #: provenance: "local", "numa", "remote", "high-priority", "low-priority"
    source: str

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass(frozen=True, slots=True)
class StealRecord:
    """One successful steal."""

    thief: int
    time_ns: int
    same_domain: bool
    staged: bool


@dataclass(frozen=True, slots=True)
class SpawnRecord:
    """One task creation, with parentage.

    ``parent_task_id`` is the task in whose execution context the spawn
    happened (dataflow continuations, nested asyncs), or ``None`` for
    top-level spawns from the driver.  The parentage edges are what
    :func:`repro.analysis.graph.graph_from_trace` reconstructs the task
    graph from.
    """

    parent_task_id: int | None
    child_task_id: int
    child_name: str
    time_ns: int


@dataclass
class ExecutionTrace(Layer):
    """Accumulates the event record of one simulated run."""

    phases: list[PhaseRecord] = field(default_factory=list)
    steals: list[StealRecord] = field(default_factory=list)
    spawns: list[SpawnRecord] = field(default_factory=list)
    num_workers: int = 0
    finish_ns: int = 0

    # -- recording (the executor's layer hooks) -------------------------------------

    def on_stage(self, executor, task, parent) -> None:
        self.spawns.append(SpawnRecord(
            parent_task_id=parent.task_id if parent is not None else None,
            child_task_id=task.task_id, child_name=task.name,
            time_ns=executor.sim.now))

    def on_steal(self, executor, thief, source) -> None:
        self.steals.append(StealRecord(
            thief=thief, time_ns=executor.sim.now,
            same_domain=source.same_domain, staged=source.was_staged))

    def on_phase(self, executor, task, worker, dispatch_ns, mgmt_ns,
                 source) -> None:
        self.phases.append(PhaseRecord(
            task_id=task.task_id, task_name=task.name, worker=worker,
            phase=task.phases, dispatch_ns=dispatch_ns, mgmt_ns=mgmt_ns,
            start_ns=dispatch_ns + mgmt_ns, end_ns=executor.sim.now,
            source=_SOURCE_LABELS[source]))

    def on_finish(self, executor) -> None:
        self.finish_ns = executor.finish_ns

    # -- queries ----------------------------------------------------------------------

    def phases_of_worker(self, worker: int) -> Iterator[PhaseRecord]:
        return (p for p in self.phases if p.worker == worker)

    def validate(self) -> list[str]:
        """Internal-consistency check; returns violations (empty = clean).

        Invariants: phase intervals are well-formed, a worker never runs two
        phases at once, and management precedes execution.
        """
        problems: list[str] = []
        by_worker: dict[int, list[PhaseRecord]] = {}
        for p in self.phases:
            if p.end_ns < p.start_ns:
                problems.append(f"task {p.task_id}: negative duration")
            if p.start_ns < p.dispatch_ns:
                problems.append(f"task {p.task_id}: runs before dispatch")
            if p.start_ns - p.dispatch_ns != p.mgmt_ns:
                problems.append(
                    f"task {p.task_id}: mgmt gap {p.start_ns - p.dispatch_ns} "
                    f"!= recorded {p.mgmt_ns}"
                )
            by_worker.setdefault(p.worker, []).append(p)
        for worker, phases in by_worker.items():
            phases.sort(key=lambda p: p.dispatch_ns)
            for a, b in zip(phases, phases[1:]):
                if b.dispatch_ns < a.end_ns:
                    problems.append(
                        f"worker {worker}: phases overlap "
                        f"({a.task_id} ends {a.end_ns}, {b.task_id} dispatched "
                        f"{b.dispatch_ns})"
                    )
        return problems
