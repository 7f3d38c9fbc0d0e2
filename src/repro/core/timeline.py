"""Timeline analysis of execution traces.

Turns an :class:`repro.sim.trace.ExecutionTrace` into the schedule-level
views a granularity study needs:

- :func:`worker_utilization` — exec / management / idle split per worker,
  the microscopic counterpart of the idle-rate counter;
- :func:`concurrency_profile` — how many workers execute simultaneously,
  sampled over the run (starvation shows up as a long low tail);
- :func:`wave_count` — dependency "waves" of the stencil schedule: maxima
  of concurrency separated by troughs;
- :func:`critical_path_ns` — length of the longest chain of causally
  ordered phases, a lower bound on any schedule of the same tasks;
- :func:`render_gantt` — ASCII Gantt chart (workers × time) for eyeballing
  schedules in a terminal.

All functions are pure and operate on the trace alone, so they work on
traces from any executor configuration.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro.sim.trace import ExecutionTrace


@dataclass(frozen=True)
class WorkerUtilization:
    """Time split of one worker over the traced run."""

    worker: int
    exec_ns: int
    mgmt_ns: int
    idle_ns: int
    total_ns: int

    @property
    def exec_fraction(self) -> float:
        return self.exec_ns / self.total_ns if self.total_ns else 0.0


def worker_utilization(trace: ExecutionTrace) -> list[WorkerUtilization]:
    """Per-worker exec/management/idle accounting over [0, finish]."""
    total = trace.finish_ns
    out = []
    for w in range(trace.num_workers):
        exec_ns = 0
        mgmt_ns = 0
        for p in trace.phases_of_worker(w):
            exec_ns += p.duration_ns
            mgmt_ns += p.mgmt_ns
        idle_ns = max(0, total - exec_ns - mgmt_ns)
        out.append(
            WorkerUtilization(
                worker=w,
                exec_ns=exec_ns,
                mgmt_ns=mgmt_ns,
                idle_ns=idle_ns,
                total_ns=total,
            )
        )
    return out


def concurrency_profile(
    trace: ExecutionTrace, samples: int = 200
) -> list[tuple[int, int]]:
    """(time_ns, executing workers) sampled at ``samples`` uniform points.

    Uses an event-sweep over phase boundaries, then samples the step
    function — O(phases log phases + samples).
    """
    if not trace.phases or trace.finish_ns == 0:
        return [(0, 0)]
    events: list[tuple[int, int]] = []
    for p in trace.phases:
        events.append((p.start_ns, +1))
        events.append((p.end_ns, -1))
    events.sort()
    points: list[tuple[int, int]] = []
    level = 0
    for t, delta in events:
        level += delta
        points.append((t, level))

    out = []
    step = max(1, trace.finish_ns // samples)
    idx = 0
    current = 0
    for t in range(0, trace.finish_ns + 1, step):
        while idx < len(points) and points[idx][0] <= t:
            current = points[idx][1]
            idx += 1
        out.append((t, current))
    return out


def average_concurrency(trace: ExecutionTrace) -> float:
    """Time-averaged number of executing workers (Σ exec / makespan)."""
    if trace.finish_ns == 0:
        return 0.0
    return sum(p.duration_ns for p in trace.phases) / trace.finish_ns


def wave_count(trace: ExecutionTrace, threshold_fraction: float = 0.5) -> int:
    """Number of concurrency "waves": rising crossings of
    ``threshold_fraction x num_workers`` in the concurrency profile.

    A perfectly pipelined stencil shows one long wave; a coarse-grained
    schedule with barriers between steps shows one wave per step.
    """
    profile = concurrency_profile(trace, samples=max(200, len(trace.phases)))
    threshold = threshold_fraction * trace.num_workers
    waves = 0
    above = False
    for _, level in profile:
        if not above and level >= threshold:
            waves += 1
            above = True
        elif above and level < threshold:
            above = False
    return waves


def critical_path_ns(trace: ExecutionTrace) -> int:
    """Longest chain of causally ordered phases (by time), in ns.

    Phase B causally follows phase A when B was *dispatched* at or after A
    ended (so B's management interval cannot overlap A); the heaviest such
    chain — management plus execution — bounds the makespan from below.
    Computed with a sweep over phases sorted by end time — O(n log n).
    """
    if not trace.phases:
        return 0
    phases = sorted(trace.phases, key=lambda p: p.end_ns)
    # Sweep in end-time order, keeping for every prefix the heaviest chain
    # achievable by any phase ending at or before that point.
    max_chain = 0
    ends: list[int] = []
    prefix_best: list[int] = []
    for p in phases:
        # heaviest chain among phases that end before this one was dispatched
        i = bisect.bisect_right(ends, p.dispatch_ns) - 1
        inherited = prefix_best[i] if i >= 0 else 0
        chain = inherited + (p.end_ns - p.dispatch_ns)
        max_chain = max(max_chain, chain)
        ends.append(p.end_ns)
        prefix_best.append(max(chain, prefix_best[-1] if prefix_best else 0))
    return max_chain


def render_gantt(
    trace: ExecutionTrace, width: int = 100, max_workers: int = 16
) -> str:
    """ASCII Gantt: one row per worker, '#' executing, '.' managing/idle."""
    if trace.finish_ns == 0:
        return "(empty trace)"
    scale = trace.finish_ns / width
    lines = [
        f"gantt: {trace.finish_ns / 1e6:.3f} ms across "
        f"{trace.num_workers} workers ('#'=exec, '-'=mgmt, '.'=idle)"
    ]
    for w in range(min(trace.num_workers, max_workers)):
        row = ["."] * width
        for p in trace.phases_of_worker(w):
            m0 = min(width - 1, int(p.dispatch_ns / scale))
            c0 = min(width - 1, int(p.start_ns / scale))
            c1 = min(width, max(c0 + 1, int(p.end_ns / scale)))
            for col in range(m0, c0):
                if row[col] == ".":
                    row[col] = "-"
            for col in range(c0, c1):
                row[col] = "#"
        lines.append(f"w{w:<3d}|" + "".join(row))
    if trace.num_workers > max_workers:
        lines.append(f"... ({trace.num_workers - max_workers} more workers)")
    return "\n".join(lines)
