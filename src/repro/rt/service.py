"""Open-loop job release, deadline tracking, and the RT counter surface.

:func:`run_rt_service` is the top of the RT stack, shaped after
:func:`repro.qos.service.run_qos_service`: every job release in the
window is scheduled on the simulator *before* the run (open loop — the
environment does not wait for the system), and each released
:class:`Job` then executes as a *chain* of subtasks whose lengths come
from :meth:`repro.rt.model.RtTaskSpec.job_chunks`.  Chaining, not
batching, is the point: only one subtask of a job is in flight at a
time, so the scheduler gets a preemption opportunity at every chunk
boundary — the grain axis *is* the preemption granularity, which is the
paper's task-size trade-off wearing a deadline costume.

Jobs whose task names a shared resource acquire it (through the
:class:`~repro.rt.resources.ResourceManager`) before their leading
critical-section chunks and release it after the last one; a blocked
job's chain simply does not start until the grant arrives, and the
grant happens inside the holder's release — all on the simulated clock,
so blocked time is exact.

Accounting is exposed twice, like the QoS layer: programmatically as
:class:`RtServiceOutcome` (per-task :class:`RtTaskStats` with exact
lateness samples and nearest-rank tardiness percentiles, plus the
:class:`~repro.rt.resources.ResourceStats`), and through the counter
registry as ``/rt{task#N}/...`` per-task counters plus the ``/rt/...``
resource-protocol aggregates.  Conservation holds by construction and
is asserted by figE and the PF409 fuzzer invariant::

    released == completed on time + missed
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.collector import paused
from repro.counters.registry import CounterRegistry
from repro.rt.model import TaskSet
from repro.rt.resources import PROTOCOLS, ResourceManager, ResourceStats
from repro.rt.scheduler import EdfScheduler, RtTag, rate_monotonic_priorities
from repro.runtime.future import Future
from repro.runtime.runtime import Runtime, RuntimeConfig, RunResult
from repro.runtime.task import Priority, Task, TaskState
from repro.runtime.work import FixedWork, NoWork
from repro.schedulers.base import SchedulingPolicy
from repro.sim.platforms import get_platform
from repro.util.stats import quantile

__all__ = [
    "Job",
    "RtServiceConfig",
    "RtServiceOutcome",
    "RtTaskStats",
    "run_rt_service",
]


def _unit() -> int:
    """The body of one subtask (pure bookkeeping; cost is in the chunk)."""
    return 1


class Job:
    """One release of one RT task: a chunk chain with a deadline.

    Carries exactly the surface the :class:`ResourceManager` duck-types
    (``job_id`` / ``base_priority`` / ``effective_priority``) plus the
    chain cursor the service advances.  ``effective_priority`` is what
    each *next* subtask spawns at — a priority boost therefore takes
    effect at the following preemption point, never retroactively,
    which is precisely the bounded-blocking granularity the protocols
    promise.
    """

    __slots__ = (
        "job_id",
        "task_index",
        "name",
        "release_ns",
        "deadline_ns",
        "base_priority",
        "effective_priority",
        "chunks",
        "cs_len",
        "cursor",
        "holds",
        "generation",
        "pending_task",
    )

    def __init__(
        self,
        *,
        job_id: int,
        task_index: int,
        name: str,
        release_ns: int,
        deadline_ns: int,
        priority: Priority,
        cs_chunks: tuple[int, ...],
        rest_chunks: tuple[int, ...],
    ) -> None:
        self.job_id = job_id
        self.task_index = task_index
        self.name = name
        self.release_ns = release_ns
        self.deadline_ns = deadline_ns
        self.base_priority = priority
        self.effective_priority = priority
        self.chunks: tuple[int, ...] = cs_chunks + rest_chunks
        self.cs_len = len(cs_chunks)
        self.cursor = 0
        self.holds = False
        #: bumped on every re-queue; stale chunk completions check it
        self.generation = 0
        #: the chunk currently queued or running, for re-queue on boost
        self.pending_task: "Task | None" = None


@dataclass
class RtTaskStats:
    """Deadline accounting for one task of the set.

    ``lateness_ns`` keeps one exact sample per completed job
    (completion minus absolute deadline; negative = early), so the
    tardiness percentiles are nearest-rank over real observations, the
    same convention as the QoS latency quantiles.
    """

    released: int = 0
    on_time: int = 0
    missed: int = 0
    lateness_ns: list[int] = field(default_factory=list)
    #: job ids that missed, in completion order (rerun-identity checks)
    missed_jobs: list[int] = field(default_factory=list)

    def record_completion(self, job_id: int, lateness_ns: int) -> None:
        self.lateness_ns.append(lateness_ns)
        if lateness_ns <= 0:
            self.on_time += 1
        else:
            self.missed += 1
            self.missed_jobs.append(job_id)

    @property
    def completed(self) -> int:
        return self.on_time + self.missed

    def miss_rate(self) -> float:
        """Fraction of released jobs that missed their deadline."""
        return self.missed / self.released if self.released else 0.0

    def tardiness_p(self, q: float) -> float:
        """Nearest-rank tardiness quantile (lateness clamped at zero)."""
        if not self.lateness_ns:
            return 0.0
        return float(quantile([max(0, x) for x in self.lateness_ns], q))

    def max_lateness_ns(self) -> int:
        return max(self.lateness_ns, default=0)


@dataclass(frozen=True)
class RtServiceConfig:
    """One RT deployment: machine, scheduler, protocol, window.

    ``scheduler=None`` runs job-level EDF (:class:`EdfScheduler`);
    ``scheduler="rm"`` maps rate-monotonic priorities onto the stock
    ``priority-local`` policy (the configuration where priority
    inversion is observable); any other policy or registry name runs
    the same traffic unmodified — the figE scheduler axis.

    ``overhead_factor`` scales the platform's per-task management cost
    (``task_overhead_ns``), the figE overhead-regime axis.

    ``inversion_threshold_ns=None`` derives a bound from the task set:
    a holder that keeps making progress (because a protocol boosts it)
    releases within a few critical sections' worth of time, while a
    starved holder cannot — see :mod:`repro.rt.resources`.
    """

    platform: str = "haswell"
    num_cores: int = 2
    seed: int = 0
    window_ns: int = 400_000
    protocol: str = "inherit"
    scheduler: SchedulingPolicy | str | None = None
    overhead_factor: float = 1.0
    inversion_threshold_ns: int | None = None

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ValueError(f"num_cores must be >= 1, got {self.num_cores}")
        if self.window_ns <= 0:
            raise ValueError(f"window_ns must be positive, got {self.window_ns}")
        if self.protocol not in PROTOCOLS:
            raise ValueError(
                f"unknown resource protocol {self.protocol!r}; expected one "
                f"of {PROTOCOLS}"
            )
        if self.overhead_factor <= 0:
            raise ValueError(
                f"overhead_factor must be positive, got {self.overhead_factor}"
            )
        if (
            self.inversion_threshold_ns is not None
            and self.inversion_threshold_ns < 0
        ):
            raise ValueError(
                f"inversion_threshold_ns must be >= 0, got "
                f"{self.inversion_threshold_ns}"
            )


@dataclass(frozen=True)
class RtServiceOutcome:
    """A finished RT window plus per-task and resource accounting."""

    result: RunResult
    taskset: TaskSet
    stats: dict[int, RtTaskStats]
    resources: ResourceStats

    def stats_for(self, task_name: str) -> RtTaskStats:
        for index, task in enumerate(self.taskset.tasks):
            if task.name == task_name:
                return self.stats[index]
        raise KeyError(f"no RT task named {task_name!r}")

    def released(self) -> int:
        return sum(s.released for s in self.stats.values())

    def missed(self) -> int:
        return sum(s.missed for s in self.stats.values())

    def miss_rate(self) -> float:
        total = self.released()
        return self.missed() / total if total else 0.0

    def conserved(self) -> bool:
        """Per-task conservation: every release finished, on time or late."""
        return all(
            s.released == s.on_time + s.missed for s in self.stats.values()
        )

    def missed_jobs(self) -> tuple[tuple[int, int], ...]:
        """Sorted ``(task_index, job_id)`` misses — the rerun-identity set."""
        out = [
            (index, job_id)
            for index, s in self.stats.items()
            for job_id in s.missed_jobs
        ]
        return tuple(sorted(out))


def default_inversion_threshold_ns(taskset: TaskSet) -> int:
    """Blocking bound a *boosted* holder always meets.

    Inheritance bounds a wait by the holder's remaining critical section
    plus one subtask in flight plus per-chunk management overhead; three
    maximal critical sections plus a generous fixed overhead allowance
    covers that on every platform regime figE sweeps, while a LOW holder
    starved behind steady NORMAL traffic overshoots it by an order of
    magnitude.
    """
    return 3 * taskset.max_critical_section_ns() + 30_000


def register_rt_counters(
    registry: CounterRegistry,
    taskset: TaskSet,
    stats: dict[int, RtTaskStats],
    resources: ResourceStats,
) -> None:
    """Expose per-task ``/rt{task#N}/...`` and aggregate ``/rt/...`` counters."""
    for index, task in enumerate(taskset.tasks):
        s = stats[index]
        prefix = f"/rt{{task#{index}}}"
        registry.derived(
            f"{prefix}/count/released",
            lambda s=s: float(s.released),
            f"jobs released by RT task {task.name!r}",
        )
        registry.derived(
            f"{prefix}/count/on-time",
            lambda s=s: float(s.on_time),
            f"jobs of {task.name!r} completed by their deadline",
        )
        registry.derived(
            f"{prefix}/count/missed",
            lambda s=s: float(s.missed),
            f"jobs of {task.name!r} that missed their deadline",
        )
        registry.derived(
            f"{prefix}/time/tardiness-p99@gauge",
            lambda s=s: s.tardiness_p(0.99),
            f"p99 tardiness of {task.name!r} (ns, nearest-rank)",
        )
        registry.derived(
            f"{prefix}/time/max-lateness@gauge",
            lambda s=s: float(s.max_lateness_ns()),
            f"maximum lateness of {task.name!r} (ns; negative = early)",
        )
    registry.derived(
        "/rt/count/inversions",
        lambda r=resources: float(r.inversions),
        "resource waits longer than the inversion threshold",
    )
    registry.derived(
        "/rt/count/inheritance-boosts",
        lambda r=resources: float(r.inheritance_boosts),
        "priority boosts applied by the inherit/ceiling protocols",
    )
    registry.derived(
        "/rt/count/blocked",
        lambda r=resources: float(r.blocked),
        "acquire attempts that found the resource held",
    )
    registry.derived(
        "/rt/time/blocked",
        lambda r=resources: float(r.blocked_ns),
        "total virtual time jobs spent blocked on held resources",
    )
    registry.derived(
        "/rt/time/max-blocked@gauge",
        lambda r=resources: float(r.max_blocked_ns),
        "longest single blocked wait (ns)",
    )


def _resolve_policy(
    cfg: RtServiceConfig, taskset: TaskSet
) -> SchedulingPolicy | str:
    if cfg.scheduler is None:
        return EdfScheduler()
    if cfg.scheduler == "rm":
        # RM is a priority assignment, not a queue structure: jobs spawn
        # at rate-monotonic priorities (see run_rt_service) and the stock
        # priority scheduler does the rest.
        return "priority-local"
    return cfg.scheduler


def _scaled_platform(cfg: RtServiceConfig):
    spec = get_platform(cfg.platform)
    if cfg.overhead_factor == 1.0:
        return spec
    costs = dataclasses.replace(
        spec.costs,
        task_overhead_ns=spec.costs.task_overhead_ns * cfg.overhead_factor,
    )
    return dataclasses.replace(spec, costs=costs)


@paused()
def run_rt_service(
    taskset: TaskSet,
    config: RtServiceConfig | None = None,
) -> RtServiceOutcome:
    """Run one RT window; returns per-task deadline outcomes.

    Release schedules depend only on ``(taskset.seed, task index)`` and
    the runtime underneath is the deterministic simulator, so the whole
    outcome — miss sets, lateness samples, blocked times — is
    bit-reproducible for a given ``(taskset, config)``.
    """
    cfg = config if config is not None else RtServiceConfig()
    priorities = rate_monotonic_priorities(taskset)
    ceilings: dict[str, Priority] = {}
    for task in taskset.tasks:
        if task.resource is not None:
            ceiling = ceilings.get(task.resource, Priority.LOW)
            ceilings[task.resource] = max(ceiling, priorities[task.name])
    threshold = (
        default_inversion_threshold_ns(taskset)
        if cfg.inversion_threshold_ns is None
        else cfg.inversion_threshold_ns
    )
    manager = ResourceManager(
        taskset.resources(),
        protocol=cfg.protocol,
        inversion_threshold_ns=threshold,
        ceilings=ceilings,
    )

    rt = Runtime(
        RuntimeConfig(
            platform=_scaled_platform(cfg),
            num_cores=cfg.num_cores,
            scheduler=_resolve_policy(cfg, taskset),
            seed=cfg.seed,
        )
    )
    lock_cost = rt.cost_model.lock_cost_ns()
    stats = {i: RtTaskStats() for i in range(len(taskset.tasks))}
    register_rt_counters(rt.registry, taskset, stats, manager.stats)

    def spawn_chunk(job: Job) -> None:
        # Spawned by hand (the body of Runtime.async_) so the service keeps
        # the Task handle: re-queue on boost needs to reach into the queue.
        spec = taskset.tasks[job.task_index]
        index = job.cursor
        work_ns = job.chunks[index]
        if job.holds and index == 0:
            # The acquiring subtask pays the lock fast path.
            work_ns += lock_cost
        future = Future(f"rt:{spec.name}#{job.job_id}.{index}")

        def body() -> None:
            future.set_value(_unit())

        task = Task(
            body,
            work=FixedWork(work_ns),
            name=future.name,
            priority=job.effective_priority,
            qos=RtTag(
                absolute_deadline_ns=job.deadline_ns,
                bucket_key=spec.name,
                job_id=job.job_id,
            ),
        )
        task.failure_hook = future.set_exception
        if rt.checker is not None:
            rt.checker.register_future(future)
        job.pending_task = task
        generation = job.generation
        rt.spawn(task)

        def settle(f: Future) -> None:
            if job.generation != generation:
                return  # a re-queued (tombstoned) chunk; the respawn owns
                # the chain now
            job.pending_task = None
            finish_chunk(job)

        future.on_ready(settle)

    def requeue_on_boost(job: Job) -> None:
        # Priority inheritance/ceiling raised `job`; if its current chunk
        # is still *waiting* at the stale priority, pull it (zero its work
        # — the popped husk costs only management time, like an aborted
        # HPX-thread) and respawn the same chunk at the boosted priority.
        # A running or finished chunk needs nothing: the next spawn reads
        # effective_priority anyway.
        task = job.pending_task
        if task is None or task.state not in (
            TaskState.STAGED,
            TaskState.PENDING,
        ):
            return
        task.work = NoWork()
        job.generation += 1
        spawn_chunk(job)

    manager.on_boost = requeue_on_boost

    def finish_chunk(job: Job) -> None:
        spec = taskset.tasks[job.task_index]
        job.cursor += 1
        now = rt.simulator.now
        if job.holds and job.cursor >= job.cs_len:
            job.holds = False
            assert spec.resource is not None
            winner = manager.release(job, spec.resource, now)
            if winner is not None:
                # The grant resumes the waiter's chain from its front.
                winner.holds = True
                spawn_chunk(winner)
        if job.cursor < len(job.chunks):
            spawn_chunk(job)
        else:
            stats[job.task_index].record_completion(
                job.job_id, now - job.deadline_ns
            )

    def release(job: Job) -> None:
        spec = taskset.tasks[job.task_index]
        stats[job.task_index].released += 1
        if spec.resource is not None and job.cs_len > 0:
            if not manager.acquire(job, spec.resource, rt.simulator.now):
                # Parked: the chain starts when the holder's release
                # grants the resource (finish_chunk above).
                return
            job.holds = True
        spawn_chunk(job)

    for task_index, spec in enumerate(taskset.tasks):
        releases = spec.release_times(taskset.seed, task_index, cfg.window_ns)
        for job_id, at_ns in enumerate(releases):
            cs_chunks, rest_chunks = spec.job_chunks(
                taskset.seed, task_index, job_id
            )
            job = Job(
                job_id=job_id,
                task_index=task_index,
                name=spec.name,
                release_ns=at_ns,
                deadline_ns=at_ns + spec.relative_deadline_ns,
                priority=priorities[spec.name],
                cs_chunks=cs_chunks,
                rest_chunks=rest_chunks,
            )
            rt.simulator.schedule_at(
                at_ns, (lambda j: lambda: release(j))(job)
            )

    result = rt.run()
    return RtServiceOutcome(
        result=result, taskset=taskset, stats=stats, resources=manager.stats
    )
