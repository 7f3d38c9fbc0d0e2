"""Configuration of the crash-recovery layer (detector + checkpoints).

One frozen dataclass holds the knobs of :mod:`repro.recovery` that a run
varies: the heartbeat failure detector's suspicion threshold, the
checkpoint cadence, and the crash budget.  Passed as
``DistConfig(crash_recovery=RecoveryConfig(...))``; ``None`` (the default)
leaves the distributed runtime bit-identical to the pre-recovery code —
no heartbeats, no checkpoints, no lineage bookkeeping.

``checkpoint_interval_ns`` is figC's experimental axis: it trades
checkpoint overhead against lost work — the grain-size-dependent
trade-off the experiment sweeps.  The heartbeat cadence, its jitter and
message size, and the checkpoint cost model no run varies; they are the
module constants below, which the tail layer's gray detector reads too.
"""

from __future__ import annotations

from dataclasses import dataclass

#: nominal heartbeat emission period per locality (stragglers emit
#: proportionally slower, and monitors adapt their thresholds to that)
HEARTBEAT_INTERVAL_NS = 50_000
#: upper bound of the seeded per-emission jitter (decorrelates rounds)
HEARTBEAT_JITTER_NS = 2_000
#: payload bytes of one heartbeat message on the modelled network
HEARTBEAT_BYTES = 16
#: fixed cost of one checkpoint tick (quiescing + metadata write), charged
#: as a visible task on the checkpointing locality's workers
CHECKPOINT_BASE_NS = 20_000
#: serialized bytes per checkpointed task result
CHECKPOINT_ENTRY_BYTES = 64


@dataclass(frozen=True)
class RecoveryConfig:
    """Tuning of heartbeat failure detection and checkpoint/restart."""

    #: a peer is suspected once its silence exceeds
    #: ``suspicion_after * max observed gap + HEARTBEAT_INTERVAL_NS``;
    #: the per-link max-gap adaptation is what keeps a ``Straggler``-slowed
    #: or degradation-delayed link from being declared dead
    suspicion_after: float = 4.0
    #: checkpoint cadence per locality; each tick persists the task results
    #: completed since the last durable checkpoint to a survivor replica
    checkpoint_interval_ns: int = 400_000
    #: locality deaths the run survives; one more raises
    #: :class:`repro.faults.errors.UnrecoverableCrashError`
    max_crashes: int = 1

    def __post_init__(self) -> None:
        if self.suspicion_after < 1.0:
            raise ValueError("suspicion_after must be >= 1")
        if self.checkpoint_interval_ns <= 0:
            raise ValueError("checkpoint_interval_ns must be positive")
        if self.max_crashes < 1:
            raise ValueError("max_crashes must be >= 1")
