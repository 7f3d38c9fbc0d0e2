"""APEX-style policy engine: periodic counter samples drive actuation.

The paper's future-work section (Sec. VI) names two integration targets:
Porterfield's throttling scheduler [19] and "an initial implementation of
the policy engine from the APEX prototype" [21], to be driven by the
paper's metrics.  This module supplies both halves for the simulated
runtime:

- :class:`PolicyEngine` — samples the counter registry at a fixed virtual
  interval during a run and feeds each :class:`Policy` the interval deltas;
- :class:`ThrottlingPolicy` — adapts the number of *active* workers: when
  the interval shows overhead-dominated execution (fine-grained tasks whose
  management cost rivals their duration), concurrency is reduced, which in
  turn reduces queue/allocator contention; when the machine is cleanly
  busy, workers are released again.

Throttling is complementary to grain adaptation (:mod:`repro.core.tuner`):
the tuner changes the *application's* decomposition between runs, the
throttler changes the *runtime's* resources within a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from repro.counters.interval import IntervalSample
from repro.runtime.runtime import Runtime, RunResult

#: a throttling step counts as an improvement (or a regression) once the
#: interval task rate moves by more than this fraction
TOLERANCE = 0.05


@dataclass
class PolicyContext:
    """What a policy may observe and actuate."""

    runtime: Runtime
    now_ns: int = 0

    @property
    def num_workers(self) -> int:
        return self.runtime.machine.num_cores

    @property
    def active_worker_limit(self) -> int:
        return self.runtime.executor.active_worker_limit

    def set_active_worker_limit(self, limit: int) -> None:
        self.runtime.executor.set_active_worker_limit(limit)


class Policy(Protocol):
    """One adaptation rule; called once per sampling interval."""

    def on_sample(self, sample: IntervalSample, ctx: PolicyContext) -> None:
        ...  # pragma: no cover - protocol


@dataclass
class ThrottleDecision:
    """Log entry of one throttling step."""

    time_ns: int
    throughput: float
    old_limit: int
    new_limit: int
    reason: str


@dataclass
class ThrottlingPolicy:
    """Adaptive concurrency throttling: hill-climb on task throughput.

    The objective is the interval *task completion rate* — the quantity
    throttling actually improves when scheduler contention is superlinear in
    active workers (the fine-grained regime).  Each interval:

    - measure ``rate = tasks completed / interval``;
    - if the last adjustment improved the rate by at least ``TOLERANCE``,
      keep moving in the same direction;
    - if it made things worse, revert direction (and remember the rate under
      the old limit as the new baseline);
    - while no adjustment is in flight, probe downward once the per-task
      overhead signal (available − exec, per task, vs exec per task) says
      management dominates; probe upward when the active workers are
      saturated with useful work.

    The controller holds once probes in both directions have failed
    (``settled``), avoiding oscillation around the optimum.
    """

    min_workers: int = 1
    decisions: list[ThrottleDecision] = field(default_factory=list)
    _last_rate: float | None = field(default=None, repr=False)
    _direction: int = field(default=0, repr=False)
    _failed_directions: set = field(default_factory=set, repr=False)

    def _move(self, ctx: PolicyContext, direction: int, rate: float, reason: str) -> None:
        limit = ctx.active_worker_limit
        if direction > 0:
            new_limit = min(ctx.num_workers, limit + max(1, limit // 3))
        else:
            new_limit = max(self.min_workers, int(limit * 0.6))
        if new_limit == limit:
            self._direction = 0
            return
        ctx.set_active_worker_limit(new_limit)
        self.decisions.append(
            ThrottleDecision(
                time_ns=ctx.now_ns,
                throughput=rate,
                old_limit=limit,
                new_limit=new_limit,
                reason=reason,
            )
        )
        self._direction = direction

    def on_sample(self, sample: IntervalSample, ctx: PolicyContext) -> None:
        tasks = sample.get("/threads/count/cumulative")
        if sample.length_ns <= 0:
            return
        rate = tasks / sample.length_ns
        limit = ctx.active_worker_limit

        if self._direction != 0 and self._last_rate is not None:
            if rate > self._last_rate * (1.0 + TOLERANCE):
                # Improvement: keep climbing the same way.
                self._move(ctx, self._direction, rate, "improved, continue")
            elif rate < self._last_rate * (1.0 - TOLERANCE):
                # Regression: undo and mark the direction as explored.
                self._failed_directions.add(self._direction)
                undo = -self._direction
                self._move(ctx, undo, rate, "regressed, revert")
                self._direction = 0
            else:
                # Flat: stop probing this way.
                self._failed_directions.add(self._direction)
                self._direction = 0
            self._last_rate = rate
            return

        self._last_rate = rate
        if tasks <= 0:
            return
        exec_ns = sample.get("/threads/time/cumulative")
        available = limit * sample.length_ns
        overhead_per_task = (available - exec_ns) / tasks
        exec_per_task = exec_ns / tasks if tasks else 0.0
        if (
            -1 not in self._failed_directions
            and limit > self.min_workers
            and exec_per_task > 0
            and overhead_per_task > exec_per_task
            # Starvation guard: with few tasks per active worker in the
            # interval, the "overhead" is idle waiting for dependencies —
            # shrinking the pool cannot help and usually hurts.
            and tasks >= 2 * limit
        ):
            self._move(ctx, -1, rate, "overhead-dominated, probe down")
        elif (
            +1 not in self._failed_directions
            and limit < ctx.num_workers
            and available > 0
            and exec_ns / available > 0.85
        ):
            self._move(ctx, +1, rate, "saturated, probe up")


class PolicyEngine:
    """Runs policies on periodic counter samples during one runtime run.

    Usage::

        rt = Runtime(platform="haswell", num_cores=28)
        ... submit work ...
        engine = PolicyEngine(rt, interval_ns=100_000)
        engine.add_policy(ThrottlingPolicy())
        result = engine.run()
    """

    def __init__(self, runtime: Runtime, interval_ns: int) -> None:
        if interval_ns <= 0:
            raise ValueError("interval_ns must be positive")
        self.runtime = runtime
        self.interval_ns = interval_ns
        self.policies: list[Policy] = []
        self.samples_taken = 0

    def add_policy(self, policy: Policy) -> "PolicyEngine":
        self.policies.append(policy)
        return self

    def run(self) -> RunResult:
        """Drive the runtime to completion with policy ticks installed."""
        rt = self.runtime
        ctx = PolicyContext(runtime=rt)
        rt.sampler.start(0)

        def tick() -> None:
            now = rt.simulator.now
            sample = rt.sampler.sample(now)
            self.samples_taken += 1
            ctx.now_ns = now
            for policy in self.policies:
                policy.on_sample(sample, ctx)
            if rt.executor.outstanding_tasks > 0:
                rt.simulator.schedule(self.interval_ns, tick)

        rt.simulator.schedule(self.interval_ns, tick)
        return rt.run()
