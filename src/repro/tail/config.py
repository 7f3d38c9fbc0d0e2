"""Configuration of the tail-tolerance layer (detector, hedging, speculation).

One frozen dataclass holds the knobs of :mod:`repro.tail` that a run
varies.  Passed as ``DistConfig(tail=TailConfig(...))``; ``None`` (the
default) leaves the distributed runtime bit-identical to the pre-tail code
— no sketches, no hedge timers, no spawn hooks, no extra counters.

The calibration no run varies — the degraded threshold, the sketch
capacity, the hedging quantile and multiplier, the speculation budget —
are module constants of :mod:`repro.tail.manager`.  Gray failure is
*defined* relative to ``DEGRADED_FACTOR``: a locality whose observed
heartbeat gaps (or a link whose ack round-trips) reach that multiple of
nominal is flagged ``degraded`` — a third state between healthy and
crashed that arms hedging and speculation but never feeds
:mod:`repro.recovery`'s crash quorum.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TailConfig:
    """Tuning of gray-failure detection, hedged parcels, and speculation."""

    #: sketch observations required before a quantile is trusted (below it
    #: the detector stays quiet and no hedge is armed)
    min_samples: int = 4
    #: cadence of the detector sweep that re-evaluates ``degraded`` flags
    #: and launches speculative clones
    check_interval_ns: int = 100_000
    #: arm a second wire copy of an unacked parcel after the hedging delay
    hedge: bool = True
    #: floor of the hedging delay (never hedge faster than this)
    hedge_min_delay_ns: int = 20_000
    #: clone not-yet-ready tasks of a degraded locality onto a healthy one
    speculate: bool = True
    #: epoch-fence declared localities so their stale in-flight parcels are
    #: rejected on arrival instead of committing results
    fencing: bool = True

    def __post_init__(self) -> None:
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if self.check_interval_ns <= 0:
            raise ValueError("check_interval_ns must be positive")
        if self.hedge_min_delay_ns < 0:
            raise ValueError("hedge_min_delay_ns must be >= 0")
