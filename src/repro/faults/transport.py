"""Reliable-transport parameters: ack / timeout / retransmit with backoff.

HPX's TCP and MPI parcelports sit on reliable byte streams; a runtime that
models *lossy* transport needs the reliability protocol those streams hide.
The model here is the classic positive-ack scheme:

- every delivered parcel is acknowledged with a tiny control message over
  the reverse link (acks themselves are never dropped — they stand in for
  the whole control channel, and losing them would only produce the
  spurious-duplicate behaviour :class:`repro.faults.plan.FaultPlan` can
  already inject directly via ``duplicate_rate``);
- the sender arms a retransmit timer per transmission; on expiry it resends
  with exponential backoff plus seeded jitter (decorrelating retry storms,
  as real transports do) and books the elapsed wait into
  ``/parcels{locality#N/total}/time/retry-backoff``;
- after ``max_retries`` retransmissions the parcel is declared lost and the
  sender's ``on_lost`` hook fires — propagating a typed
  :class:`repro.faults.errors.ParcelLostError` into the consuming proxy
  future (or triggering producer re-execution) instead of deadlocking.

The default timeout is ~4x the round trip of the default commodity link
(15 us latency each way plus serialization), so a healthy network
retransmits nothing.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RetryParams:
    """Tuning of the ack/timeout/retransmit protocol, per runtime."""

    #: retransmit timer for the first transmission of each parcel
    ack_timeout_ns: int = 120_000
    #: timer growth per retransmission (exponential backoff)
    backoff_factor: float = 2.0
    #: upper bound of the seeded per-retry jitter added to each timeout
    max_jitter_ns: int = 10_000
    #: retransmissions allowed before the parcel is declared lost
    max_retries: int = 4

    def __post_init__(self) -> None:
        if self.ack_timeout_ns <= 0:
            raise ValueError("ack_timeout_ns must be positive")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.max_jitter_ns < 0:
            raise ValueError("max_jitter_ns must be >= 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    def timeout_ns(self, attempt: int) -> int:
        """The pre-jitter retransmit timer for transmission ``attempt``."""
        if attempt < 0:
            raise ValueError("attempt must be >= 0")
        return int(self.ack_timeout_ns * self.backoff_factor**attempt)
