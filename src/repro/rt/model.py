"""Real-time task-set model: periodic/sporadic specs with deadlines.

The paper's workloads care about *throughput*: how long until the whole
grid is done.  A real-time workload asks a per-job question instead — did
job ``k`` of task ``i`` finish by its deadline? — which turns the paper's
grain trade-off into a *timeliness* trade-off (the tiny-tasks paper,
arXiv 2202.11464): splitting a job finer creates more preemption points
(cooperative tasks only yield the core at subtask boundaries), so urgent
work waits less, but every subtask pays the full task-management overhead.

Two release models cover the classical taxonomy:

:class:`PeriodicTaskSpec`
    Job ``k`` releases at ``phase + k * period`` plus optional seeded
    release jitter — with zero jitter, releases are *exact*, which the
    hypothesis property tests pin.

:class:`SporadicTaskSpec`
    Consecutive releases are separated by at least ``min_separation_ns``
    plus a seeded exponential extra gap — the min-separation contract is
    an invariant of the generator, not a statistical tendency.

Both carry a WCET with seeded execution-time variation (actual demand is
drawn in ``[(1 - exec_variation) * wcet, wcet]``), a relative deadline, an
optional shared resource with a critical-section length, and a
``with_grain()`` splitter that decomposes one job into a chain of
subtasks none longer than the grain — total demand is preserved exactly,
so the grain axis applies to RT jobs exactly as it does to Task Bench.

Every draw is a pure function of ``(seed, role, task index, job index)``
through the SplitMix64 streams of :mod:`repro.faults.plan` (fresh role
tags 0xA0–0xA2), so a scenario replays the same anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.faults.plan import stream_u64, stream_unit

__all__ = [
    "PeriodicTaskSpec",
    "SporadicTaskSpec",
    "RtTaskSpec",
    "TaskSet",
    "split_exact",
]

#: role tags for the RT decision streams; see repro.faults.plan for the
#: taken ones (0x11/0x22/0x33 faults, 0x44 breaker, 0x55 heartbeat,
#: 0x7B-0x7E taskbench/verify, 0x80-0x84 harness, 0x90-0x92 qos arrivals)
_ROLE_RELEASE = 0xA0
_ROLE_GAP = 0xA1
_ROLE_EXEC = 0xA2

#: hard cap on releases from one generator call — a mis-scaled period
#: should fail loudly, not allocate without bound
_MAX_RELEASES = 1_000_000


def split_exact(total_ns: int, grain_ns: int | None) -> tuple[int, ...]:
    """Split ``total_ns`` into near-equal chunks none longer than the grain.

    The sum of the chunks equals ``total_ns`` *exactly* (the property test
    pins this): the remainder of the integer division is spread one
    nanosecond at a time over the leading chunks.  ``grain_ns=None`` (or a
    grain at least as large as the total) keeps the job whole.
    """
    if total_ns <= 0:
        return ()
    if grain_ns is None or grain_ns >= total_ns:
        return (total_ns,)
    n = math.ceil(total_ns / grain_ns)
    base, rem = divmod(total_ns, n)
    return tuple(base + 1 if k < rem else base for k in range(n))


@dataclass(frozen=True)
class RtTaskSpec:
    """Fields shared by both release models.

    ``critical_section_ns`` is the leading portion of each job's demand
    executed while holding ``resource``; it is split by the grain like the
    rest of the job (the lock is held *across* the preemption points — the
    ingredient priority inversion needs to be observable at all).
    """

    name: str
    wcet_ns: int
    relative_deadline_ns: int
    release_jitter_ns: int = 0
    #: actual demand of job k is drawn in [(1 - exec_variation) * wcet, wcet]
    exec_variation: float = 0.0
    #: shared resource this task's critical section needs, or None
    resource: str | None = None
    critical_section_ns: int = 0
    #: subtask ceiling; None runs each job as one task (see with_grain)
    grain_ns: int | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("an RT task needs a non-empty name")
        if self.wcet_ns < 1:
            raise ValueError(f"wcet_ns must be >= 1, got {self.wcet_ns}")
        if self.relative_deadline_ns < 1:
            raise ValueError(
                f"relative_deadline_ns must be >= 1, got "
                f"{self.relative_deadline_ns}"
            )
        if self.release_jitter_ns < 0:
            raise ValueError(
                f"release_jitter_ns must be >= 0, got {self.release_jitter_ns}"
            )
        if not 0.0 <= self.exec_variation < 1.0:
            raise ValueError(
                f"exec_variation must be in [0, 1), got {self.exec_variation}"
            )
        if self.critical_section_ns < 0:
            raise ValueError(
                f"critical_section_ns must be >= 0, got "
                f"{self.critical_section_ns}"
            )
        if self.critical_section_ns > self.wcet_ns:
            raise ValueError(
                f"critical section ({self.critical_section_ns} ns) cannot "
                f"exceed the WCET ({self.wcet_ns} ns)"
            )
        if self.critical_section_ns > 0 and self.resource is None:
            raise ValueError(
                "a critical section needs a resource to hold "
                f"(task {self.name!r})"
            )
        if self.resource is not None and self.critical_section_ns == 0:
            raise ValueError(
                f"task {self.name!r} names resource {self.resource!r} but "
                "has a zero-length critical section"
            )
        if self.grain_ns is not None and self.grain_ns < 1:
            raise ValueError(f"grain_ns must be >= 1, got {self.grain_ns}")

    # -- the grain axis --------------------------------------------------------

    def with_grain(self, grain_ns: int | None) -> "RtTaskSpec":
        """The same task decomposed into subtasks no longer than the grain."""
        return replace(self, grain_ns=grain_ns)

    def execution_ns(self, seed: int, task_index: int, job_index: int) -> int:
        """Seeded actual demand of job ``job_index`` (<= WCET, >= 1)."""
        if self.exec_variation == 0.0:
            return self.wcet_ns
        u = stream_unit(seed, _ROLE_EXEC, task_index, job_index)
        return max(1, int(self.wcet_ns * (1.0 - self.exec_variation * u)))

    def job_chunks(
        self, seed: int, task_index: int, job_index: int
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """One job's subtask chain: ``(critical chunks, remainder chunks)``.

        The critical-section region comes first (the job acquires its
        resource at release and holds it across the region's preemption
        points); both regions are grain-split and together sum exactly to
        the job's drawn demand.
        """
        demand = self.execution_ns(seed, task_index, job_index)
        cs = min(
            demand,
            int(
                round(
                    demand * self.critical_section_ns / self.wcet_ns
                )
            )
            if self.critical_section_ns
            else 0,
        )
        return split_exact(cs, self.grain_ns), split_exact(
            demand - cs, self.grain_ns
        )

    # -- schedulability arithmetic ---------------------------------------------

    @property
    def min_interarrival_ns(self) -> int:
        raise NotImplementedError

    @property
    def utilization(self) -> float:
        """Long-run demand fraction: WCET over the minimum interarrival."""
        return self.wcet_ns / self.min_interarrival_ns

    def release_times(
        self, seed: int, task_index: int, window_ns: int
    ) -> list[int]:
        """Strictly increasing release offsets in ``[0, window_ns)``."""
        raise NotImplementedError


@dataclass(frozen=True)
class PeriodicTaskSpec(RtTaskSpec):
    """Job ``k`` releases at ``phase + k * period (+ jitter)``."""

    period_ns: int = 1
    phase_ns: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.period_ns < 1:
            raise ValueError(f"period_ns must be >= 1, got {self.period_ns}")
        if self.phase_ns < 0:
            raise ValueError(f"phase_ns must be >= 0, got {self.phase_ns}")
        if self.release_jitter_ns >= self.period_ns:
            raise ValueError(
                f"release jitter ({self.release_jitter_ns} ns) must stay "
                f"below the period ({self.period_ns} ns) or releases could "
                "reorder"
            )

    @property
    def min_interarrival_ns(self) -> int:
        return self.period_ns

    def release_times(
        self, seed: int, task_index: int, window_ns: int
    ) -> list[int]:
        if window_ns <= 0:
            raise ValueError(f"window_ns must be positive, got {window_ns}")
        out: list[int] = []
        k = 0
        while k <= _MAX_RELEASES:
            t = self.phase_ns + k * self.period_ns
            if self.release_jitter_ns:
                t += stream_u64(seed, _ROLE_RELEASE, task_index, k) % (
                    self.release_jitter_ns + 1
                )
            if t >= window_ns:
                break
            out.append(t)
            k += 1
        return out


@dataclass(frozen=True)
class SporadicTaskSpec(RtTaskSpec):
    """Releases separated by >= ``min_separation_ns`` plus a seeded gap.

    The extra gap is exponential with mean ``mean_extra_gap_ns`` (defaults
    to the minimum separation), drawn from a SplitMix64 stream — so the
    *contract* (never closer than the minimum separation) is structural
    while the schedule stays irregular and bit-reproducible.
    """

    min_separation_ns: int = 1
    mean_extra_gap_ns: float | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.min_separation_ns < 1:
            raise ValueError(
                f"min_separation_ns must be >= 1, got {self.min_separation_ns}"
            )
        if self.mean_extra_gap_ns is not None and self.mean_extra_gap_ns < 0:
            raise ValueError(
                f"mean_extra_gap_ns must be >= 0, got {self.mean_extra_gap_ns}"
            )

    @property
    def min_interarrival_ns(self) -> int:
        return self.min_separation_ns

    def release_times(
        self, seed: int, task_index: int, window_ns: int
    ) -> list[int]:
        if window_ns <= 0:
            raise ValueError(f"window_ns must be positive, got {window_ns}")
        mean_extra = (
            float(self.min_separation_ns)
            if self.mean_extra_gap_ns is None
            else self.mean_extra_gap_ns
        )
        out: list[int] = []
        t = 0
        k = 0
        while t < window_ns and k <= _MAX_RELEASES:
            out.append(t)
            extra = 0
            if mean_extra > 0.0:
                u = stream_unit(seed, _ROLE_GAP, task_index, k)
                extra = int(-mean_extra * math.log(1.0 - u))
            t += self.min_separation_ns + extra
            k += 1
        return out


@dataclass(frozen=True)
class TaskSet:
    """An ordered set of RT tasks released together over one window.

    ``seed`` feeds every release/execution draw; task indices are list
    positions, so the same set replays the same schedule anywhere.
    """

    tasks: tuple[RtTaskSpec, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ValueError("a TaskSet needs at least one task")
        names = [t.name for t in self.tasks]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate RT task names: {names}")

    def utilization(self) -> float:
        """Total long-run demand fraction (of one core) of the set."""
        return sum(t.utilization for t in self.tasks)

    def with_grain(self, grain_ns: int | None) -> "TaskSet":
        """Every task decomposed at the same grain — the figE x axis."""
        return replace(
            self, tasks=tuple(t.with_grain(grain_ns) for t in self.tasks)
        )

    def resources(self) -> tuple[str, ...]:
        """The distinct resource names the set's critical sections use."""
        seen: dict[str, None] = {}
        for t in self.tasks:
            if t.resource is not None:
                seen.setdefault(t.resource, None)
        return tuple(seen)

    def max_critical_section_ns(self) -> int:
        return max(
            (t.critical_section_ns for t in self.tasks), default=0
        )
