"""DistRunResult: a distributed run's outcome, read from its counters.

The result stores what only the run itself knows: the makespan, the two
counter snapshots, the platform and shape, the spawned-task count and the
crashed localities.  Every other field is a read-only ``int`` folded from
the snapshots, so each number has one producer — the counter kept by the
parcelport, AGAS cache, executor or opt-in layer.  A layer that is off
registers no counters, so its fields read 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.counters.registry import CounterSnapshot


def _sum(family: str, path: str) -> property:
    """A field: ``/<family>{locality#*/total}/<path>`` over all localities."""
    pattern = f"/{family}{{locality#*/total}}/{path}"
    return property(lambda self: int(self.counters.total(pattern)))


@dataclass(frozen=True)
class DistRunResult:
    """Outcome of one completed distributed run.

    ``counters`` is the distributed registry's snapshot (parcels, AGAS,
    mirrored per-locality thread counters, each enabled layer's family);
    ``per_locality`` holds each locality's own registry snapshot.
    """

    execution_time_ns: int
    counters: CounterSnapshot
    per_locality: tuple[CounterSnapshot, ...]
    platform_name: str
    num_localities: int
    cores_per_locality: int
    tasks_executed: int
    crashed_localities: tuple[int, ...] = ()

    parcels_sent = _sum("parcels", "count/sent")
    parcels_received = _sum("parcels", "count/received")
    serialization_time_ns = _sum("parcels", "time/serialization")
    #: ready-to-delivered time of the parcels each locality received
    network_wait_ns = _sum("parcels", "time/network-wait")
    agas_cache_hits = _sum("agas", "count/cache-hits")
    agas_cache_misses = _sum("agas", "count/cache-misses")
    #: sum over localities of per-worker task execution time
    total_exec_ns = _sum("threads", "time/cumulative")
    #: sum over localities of per-worker management time
    total_mgmt_ns = _sum("threads", "time/cumulative-overhead")
    # -- resilience (all zero on a fault-free reliable run) -------------------
    parcels_dropped = _sum("parcels", "count/dropped")
    parcels_retransmitted = _sum("parcels", "count/retransmitted")
    duplicates_discarded = _sum("parcels", "count/duplicates-discarded")
    retry_backoff_ns = _sum("parcels", "time/retry-backoff")
    parcels_recovered = _sum("parcels", "count/recovered")
    recovery_ns = _sum("parcels", "time/recovery")
    #: dead letters evicted from the bounded rings
    dead_letters_dropped = _sum("parcels", "count/dead-letters-dropped")
    # -- overload (all zero with overload control off) ------------------------
    #: cumulative simulated time sends spent parked on credits
    credits_exhausted_ns = _sum("overload", "time/credits-exhausted")
    breaker_transitions = _sum("overload", "count/breaker-transitions")

    @property
    def tasks_shed(self) -> int:
        """Tasks rejected by admission control, summed over localities."""
        return int(
            sum(snap.get("/overload/count/shed") for snap in self.per_locality)
        )

    _credit_waits = _sum("overload", "count/credit-waits")
    _breaker_deferred = _sum("overload", "count/breaker-deferred")
    #: sends that ever parked behind a credit or breaker gate
    sends_deferred = property(
        lambda self: self._credit_waits + self._breaker_deferred
    )

    @property
    def max_unacked_in_flight(self) -> int:
        """Peak distinct unacked parcels on any (source, destination) link."""
        peaks = self.counters.per_locality(
            "/parcels{locality#*/total}/count/unacked-high-water@gauge"
        )
        return int(max(peaks.values(), default=0))

    # -- crash recovery (all zero with crash_recovery=None) -------------------
    #: localities declared dead by the heartbeat failure detector
    crashes_detected = _sum("recovery", "count/declared")
    heartbeats_sent = _sum("recovery", "count/heartbeats-sent")
    checkpoints_taken = _sum("recovery", "count/checkpoints")
    #: task results made durable on a survivor replica
    tasks_checkpointed = _sum("recovery", "count/checkpointed")
    tasks_restored = _sum("recovery", "count/restored")
    tasks_reexecuted = _sum("recovery", "count/reexecuted")
    #: tasks a declared crash lost (not durable at declaration time); every
    #: lost task is re-executed, so a completed run has lost == reexecuted
    tasks_lost = _sum("recovery", "count/lost")
    #: sends to a declared-dead locality abandoned instead of retried
    parcels_failed_fast = _sum("recovery", "count/failed-fast")
    detection_ns = _sum("recovery", "time/detection")
    restore_ns = _sum("recovery", "time/restore")
    reexecution_ns = _sum("recovery", "time/reexecution")
    #: crash-to-recovered time from the crash records' own timestamps, so
    #: PF408's detection + restore + reexecution == total is a real check
    recovery_total_ns = _sum("recovery", "time/total")

    _tasks_completed = _sum("threads", "count/cumulative")
    _internal_completions = _sum("recovery", "count/internal-completions")
    #: application tasks that ran to completion, recovery bookkeeping
    #: (checkpoint writes, redundant re-executions) subtracted out; on a
    #: recovered run this equals the crash-free run's task count
    app_tasks_completed = property(
        lambda self: self._tasks_completed - self._internal_completions
    )

    # -- tail tolerance (all zero with tail=None) -----------------------------
    #: localities the gray detector flags degraded at the end of the run
    localities_degraded = _sum("tail", "count/degraded@gauge")
    degraded_events = _sum("tail", "count/degraded-events")
    hedges_armed = _sum("tail", "count/hedges-armed")
    hedges_sent = _sum("tail", "count/hedges-sent")
    hedges_won = _sum("tail", "count/hedges-won")
    hedges_lost = _sum("tail", "count/hedges-lost")
    hedges_cancelled = _sum("tail", "count/hedges-cancelled")
    tasks_speculated = _sum("tail", "count/speculations")
    speculation_wins = _sum("tail", "count/speculation-wins")
    speculations_cancelled = _sum("tail", "count/speculations-cancelled")
    originals_cancelled = _sum("tail", "count/originals-cancelled")
    #: MAX_SPECULATION_FRAC of the tasks completed by the end of the run
    speculation_budget = _sum("tail", "count/speculation-budget@gauge")
    fenced_rejections = _sum("tail", "count/fenced-rejections")

    def assert_parcels_conserved(self) -> None:
        """Every wire copy must meet exactly one fate.

        ``sent + retransmitted`` counts copies put on the wire;
        ``received + dropped + duplicates-discarded`` counts copies taken
        off it.  The check itself lives in the shared invariant catalogue
        (:data:`repro.verify.invariants.PARCELS_CONSERVED`, rule PF401);
        this method stays as the assert-style spelling with the identical
        failure message.
        """
        # Imported lazily: repro.verify lowers workloads through this module.
        from repro.verify.invariants import PARCELS_CONSERVED

        PARCELS_CONSERVED.require(self)

    @property
    def execution_time_s(self) -> float:
        return self.execution_time_ns / 1e9

    @property
    def total_cores(self) -> int:
        return self.num_localities * self.cores_per_locality

    # -- the idle-rate decomposition figD plots ----------------------------

    @property
    def _budget_ns(self) -> float:
        return float(self.total_cores * self.execution_time_ns)

    @property
    def idle_rate(self) -> float:
        """System-wide Eq. 1: share of the core-time budget not computing."""
        budget = self._budget_ns
        if budget <= 0:
            return 0.0
        return (budget - self.total_exec_ns) / budget

    @property
    def overhead_idle_rate(self) -> float:
        """The idle-rate share attributable to task management."""
        budget = self._budget_ns
        return self.total_mgmt_ns / budget if budget > 0 else 0.0

    @property
    def network_wait_rate(self) -> float:
        """The idle-rate share attributable to parcels in flight.

        Normalizes the cumulative ready-to-delivered time of all received
        parcels by the core-time budget: the fraction of the machine's
        capacity spent with a consumer-side value still on the wire.  The
        remainder of the idle-rate beyond overhead and network wait is
        starvation (plus scheduler polling), as on a single node.
        """
        budget = self._budget_ns
        return self.network_wait_ns / budget if budget > 0 else 0.0
