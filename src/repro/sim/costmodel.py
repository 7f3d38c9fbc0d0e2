"""Cost model: where virtual time comes from.

The paper attributes the shape of every measured curve to four mechanisms;
each has one term here, so the reproduced shapes *emerge* from the same
causes rather than being curve-fit:

1. **Task-management cost** (fine-grain wall, Fig. 3/4/7) — every HPX-thread
   pays creation, staged→pending conversion and context-switch costs.  With
   millions of tiny tasks these dominate: idle-rate approaches 90 %
   (Sec. IV-A).  Queue contention grows the cost slightly with core count.
2. **Memory-bandwidth contention → wait time** (mid-grain region, Fig. 6/7/8)
   — the stencil streams ~24 bytes/point, so running on many cores saturates
   the node's bandwidth and inflates each task's duration.  The paper
   measures this inflation as *wait time* (Eq. 5); here it appears because
   :meth:`CostModel.compute_ns` scales the memory-bound fraction of a task by
   the oversubscription ratio of the bandwidth.
3. **Cache capacity** — a partition's working set moves from L1 through L2
   and shared LLC to DRAM as it grows, bending the per-point time; this is
   why the single-core curve is not flat in partition size.
4. **Starvation** (coarse-grain wall, Fig. 3/4/9) — too few tasks to feed the
   cores; workers spin polling empty queues.  The polling cost itself is
   here; the *idleness* emerges from the scheduler simulation.

Negative wait time: with very coarse grain the paper observes t_d < t_d1 and
credits caching/housekeeping effects on the single-core reference run
(Sec. II-A).  We model the real component of that: when every core is busy
(the 1-core case by definition), runtime housekeeping (timers, the main
driver thread, OS ticks) interferes with task execution, inflating long tasks
by ``SOLO_INTERFERENCE_FRAC``; with idle cores present the interference lands
there instead.

All randomness is a seeded multiplicative jitter so that repeated runs have
realistic COVs (the paper reports <10 % for most configurations) while the
whole experiment stays reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.sim.platforms import CostParams, PlatformSpec

# The constants every platform shares; what the platforms calibrate is in
# repro.sim.platforms.CostParams.

#: fraction of ``task_overhead_ns`` paid at hpx::async time (creation/staging)
CREATE_FRAC = 0.35
#: fraction paid when a staged thread is converted to pending
CONVERT_FRAC = 0.35
#: fraction paid as the context switch into the running task
SWITCH_FRAC = 0.30
#: cost of taking a shared-resource lock (the critical-section entry of the
#: RT scenario pack, repro.rt); an uncontended atomic plus the bookkeeping
#: HPX spends on a mutex fast path
LOCK_OVERHEAD_NS = 60.0
#: exponent of the convex contention growth of the management cost
#: (``CostParams.contention_coef`` is its coefficient)
CONTENTION_EXP = 2.0
#: bytes of memory traffic per grid point: three streamed 8 B arrays plus
#: the read-for-ownership on the written line and imperfect prefetch
BYTES_PER_POINT = 38.0
#: fraction of compute time that is memory-stalled (subject to inflation)
MEM_BOUND_FRAC = 0.80
#: relative slowdown of data in shared LLC instead of private L2
LLC_PENALTY = 0.08
#: relative slowdown of streaming from DRAM instead of cache
DRAM_PENALTY = 0.18
#: relative speedup of data resident in L1
L1_BONUS = 0.08
#: runtime-housekeeping interference on task durations when no idle core
#: exists to absorb it (the source of negative wait time, Sec. II-A/IV-C)
SOLO_INTERFERENCE_FRAC = 0.06
#: multiplicative jitter half-width applied per task (seeded RNG)
JITTER_FRAC = 0.02
#: run-level jitter of the management-cost budget: base half-width ...
RUN_JITTER_BASE = 0.02
#: ... plus a quadratic-in-cores term (OS/allocator noise grows with
#: concurrency; reproduces the paper's COV structure: "less than 10%
#: (most less than 3%) for experiments using less than 16 cores",
#: "up to 21%" at >16 cores and partitions under 32,000 (Sec. IV)
RUN_JITTER_PER_CORE2 = 1.6e-4
#: cap on the run-level jitter half-width
RUN_JITTER_CAP = 0.20


@dataclass(frozen=True)
class TaskCosts:
    """Per-task management costs in virtual nanoseconds (pre-jitter)."""

    create_ns: int
    convert_ns: int
    switch_ns: int

    @property
    def total_ns(self) -> int:
        return self.create_ns + self.convert_ns + self.switch_ns


class CostModel:
    """Maps (work descriptor, machine state) to virtual durations.

    One instance per simulated run; owns a private seeded RNG so concurrent
    runs never share state.
    """

    def __init__(
        self,
        platform: PlatformSpec,
        num_cores: int,
        *,
        seed: int = 0,
        timer_counters_enabled: bool = True,
    ) -> None:
        self.platform = platform
        self.params: CostParams = platform.costs
        self.num_cores = num_cores
        self.timer_counters_enabled = timer_counters_enabled
        self._rng = random.Random(seed ^ 0x5EED_C0DE)
        p = self.params
        # Fixed split of the per-task management budget.
        self._base_costs = TaskCosts(
            create_ns=int(p.task_overhead_ns * CREATE_FRAC),
            convert_ns=int(p.task_overhead_ns * CONVERT_FRAC),
            switch_ns=int(p.task_overhead_ns * SWITCH_FRAC),
        )
        # Bandwidth demand of one core running the stencil flat out, in
        # bytes per nanosecond (== GB/s).
        self._per_core_demand = BYTES_PER_POINT / p.per_point_ns
        # Run-level perturbation of the management budget: one draw per run
        # (per seed), with a half-width that grows with core count.  This is
        # the systemic OS/allocator noise behind the paper's COV structure;
        # per-task jitter alone would average away over thousands of tasks.
        half_width = min(
            RUN_JITTER_CAP,
            RUN_JITTER_BASE + RUN_JITTER_PER_CORE2 * (num_cores - 1) ** 2,
        )
        self._run_overhead_factor = 1.0 + self._rng.uniform(
            -half_width, half_width
        )

    # -- management costs ---------------------------------------------------

    def task_costs(self, active_cores: int) -> TaskCosts:
        """Management costs with queue-contention scaling.

        ``active_cores`` is the number of workers currently competing for the
        scheduler's shared structures; contention grows the cost convexly
        (quadratically, ``CONTENTION_EXP``), per mechanism 1 above —
        negligible on a few cores, an order of magnitude on a full Haswell
        node, which is what the paper's 90 % fine-grain idle-rates imply.
        """
        p = self.params
        scale = 1.0 + p.contention_coef * max(0, active_cores - 1) ** CONTENTION_EXP
        scale *= self._run_overhead_factor
        if self.timer_counters_enabled:
            timer = p.timer_overhead_ns
        else:
            timer = 0.0
        base = self._base_costs
        return TaskCosts(
            create_ns=int(base.create_ns * scale),
            convert_ns=int(base.convert_ns * scale),
            switch_ns=int(base.switch_ns * scale + timer),
        )

    def poll_cost_ns(self) -> int:
        """Cost of one queue inspection (hit or miss)."""
        return int(self.params.poll_cost_ns)

    def lock_cost_ns(self) -> int:
        """Cost of one shared-resource acquisition (repro.rt critical
        sections); charged to the acquiring subtask so lock traffic moves
        the simulated clock, not just the counters."""
        return int(LOCK_OVERHEAD_NS)

    def steal_cost_ns(self, *, same_domain: bool) -> int:
        """Extra cost of acquiring work from another worker's queues."""
        if same_domain:
            return int(self.params.steal_cost_ns)
        return int(self.params.numa_steal_cost_ns)

    def idle_backoff_ns(self, consecutive_misses: int) -> int:
        """Exponential backoff for a worker that found no work anywhere.

        HPX spins; simulating every spin iteration would swamp the event
        queue, so the model coalesces spins into a backoff that doubles from
        1 us to a 64 us cap.  The queue-access counters are charged for the
        coalesced polls so Fig. 9/10's access counts stay faithful.
        """
        exp = min(consecutive_misses, 6)
        return 1_000 << exp

    # -- compute durations ----------------------------------------------------

    def cache_factor(self, points: int) -> float:
        """Relative per-point cost for a partition of ``points`` points.

        The stencil touches three arrays (read-previous, read-neighbours,
        write-next), so the per-task working set is ``3 * 8 * points`` bytes.
        """
        working_set = 3 * 8 * points
        if working_set <= self.platform.l1_bytes:
            return 1.0 - L1_BONUS
        if working_set <= self.platform.l2_bytes:
            return 1.0
        llc = self.platform.shared_l3_bytes
        if llc is not None and working_set <= llc:
            return 1.0 + LLC_PENALTY
        return 1.0 + DRAM_PENALTY

    def bandwidth_inflation(self, effective_cores: float) -> float:
        """Duration multiplier from bandwidth oversubscription (mechanism 2).

        1.0 while the demanding cores' combined traffic fits in the node's
        sustained bandwidth; beyond that, the memory-bound fraction of the
        task is stretched by the oversubscription ratio.

        ``effective_cores`` may be fractional: a core that spends most of
        its time in task management issues correspondingly less memory
        traffic, so fine-grained (overhead-bound) populations do not
        saturate the memory system — consistent with the paper's fine-grain
        region, where task durations stay near their single-core values
        while idle-rate explodes.
        """
        demand = self._per_core_demand * max(1.0, effective_cores)
        ratio = demand / self.params.mem_bandwidth_bytes_per_ns
        if ratio <= 1.0:
            return 1.0
        return 1.0 + MEM_BOUND_FRAC * (ratio - 1.0)

    def compute_ns(
        self,
        points: int,
        *,
        active_cores: int,
        idle_cores: int,
        mgmt_ns: int = 0,
        jitter: bool = True,
    ) -> int:
        """Virtual duration of the stencil kernel over ``points`` points.

        ``active_cores`` — workers concurrently executing tasks (including
        this one); drives bandwidth contention.
        ``idle_cores`` — workers with nothing to do; when zero, runtime
        housekeeping interferes with the task (negative-wait mechanism).
        ``mgmt_ns`` — management time paid around this task; sets the duty
        cycle with which active cores actually demand bandwidth.
        """
        base = points * self.params.per_point_ns * self.cache_factor(points)
        duty = base / (base + mgmt_ns) if mgmt_ns > 0 else 1.0
        effective = 1.0 + (max(1, active_cores) - 1) * duty
        base *= self.bandwidth_inflation(effective)
        if idle_cores == 0:
            base *= 1.0 + SOLO_INTERFERENCE_FRAC
        if jitter:
            base *= 1.0 + self._rng.uniform(-JITTER_FRAC, JITTER_FRAC)
        return max(1, int(base))

    def uniform_work_ns(self, nominal_ns: int, *, jitter: bool = True) -> int:
        """Duration for a fixed-size (non-stencil) work item.

        Used by the micro-benchmarks and the graph application, which specify
        task sizes directly in nanoseconds rather than in grid points.
        """
        base = float(nominal_ns)
        if jitter:
            base *= 1.0 + self._rng.uniform(-JITTER_FRAC, JITTER_FRAC)
        return max(1, int(base))
