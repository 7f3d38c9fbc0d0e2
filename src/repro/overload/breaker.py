"""Per-link circuit breakers over the retry transport.

A lossy or degraded link turns positive-ack retransmission (PR 3) into a
storm: every timed-out parcel is retransmitted with backoff, and under a
long :class:`~repro.faults.plan.LinkDegradation` window the wire fills
with copies that will also time out.  The breaker sits between the
parcelport's send path and the wire and cuts the storm off at the source:

* **closed** — normal operation; consecutive ack-timeouts are counted
  (any ack resets the count).
* **open** — after ``failure_threshold`` consecutive failures nothing is
  transmitted.  Sends and retransmits park in the port's waiting lane
  (or, with ``fail_fast=True``, new sends raise
  :class:`~repro.overload.errors.CircuitOpenError`).  A half-open probe
  is scheduled after a cooldown that escalates geometrically with
  consecutive opens, plus seeded jitter so breakers on a shared fabric
  do not probe in lockstep.
* **half-open** — exactly one parked parcel is transmitted as a probe.
  Its ack closes the breaker and flushes the lane; another timeout
  re-opens it with a longer cooldown.

Transitions are events in simulated time; the jitter comes from the same
SplitMix64 counter-stream construction as :mod:`repro.faults.plan`
(role tag ``0x44``, keyed by link and open-count), so runs are
bit-reproducible under any :class:`~repro.faults.plan.FaultPlan`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.faults.plan import stream_unit

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Event, Simulator

__all__ = ["BreakerState", "BreakerParams", "CircuitBreaker"]

#: SplitMix64 role tag for half-open probe jitter (0x11 drop, 0x22
#: duplicate, 0x33 retransmit jitter are taken by repro.faults).
_ROLE_BREAKER = 0x44
#: the cooldown multiplies by this for every re-open without an
#: intervening close...
COOLDOWN_BACKOFF = 2.0
#: ...up to this cap
MAX_COOLDOWN_NS = 64_000_000


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


@dataclass(frozen=True)
class BreakerParams:
    """Configuration for per-destination circuit breakers.

    ``failure_threshold`` consecutive ack-timeouts open the breaker;
    the cooldown before the half-open probe starts at ``cooldown_ns``
    and multiplies by ``COOLDOWN_BACKOFF`` for every re-open without an
    intervening close, capped at ``MAX_COOLDOWN_NS``.  ``fail_fast``
    makes new sends raise :class:`CircuitOpenError` while open instead
    of parking them.
    """

    failure_threshold: int = 3
    cooldown_ns: int = 500_000
    max_jitter_ns: int = 10_000
    fail_fast: bool = False

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.cooldown_ns <= 0:
            raise ValueError(f"cooldown_ns must be positive, got {self.cooldown_ns}")
        if self.max_jitter_ns < 0:
            raise ValueError(f"max_jitter_ns must be >= 0, got {self.max_jitter_ns}")


class CircuitBreaker:
    """Breaker state machine for one directed link (source -> destination)."""

    def __init__(
        self,
        params: BreakerParams,
        simulator: "Simulator",
        *,
        seed: int,
        source: int,
        destination: int,
        on_half_open: Callable[[], None] | None = None,
    ):
        self.params = params
        self.sim = simulator
        self.seed = seed
        self.source = source
        self.destination = destination
        self.on_half_open = on_half_open
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at_ns: int | None = None
        #: (time_ns, from_state, to_state) for every transition
        self.transitions: list[tuple[int, str, str]] = []
        self._open_streak = 0  # opens without an intervening close
        self._probe_outstanding = False
        self._half_open_event: "Event | None" = None

    # -- gates ----------------------------------------------------------

    def allows_send(self) -> bool:
        """May a copy be put on the wire right now?"""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.HALF_OPEN:
            return not self._probe_outstanding
        return False

    def note_dispatch(self) -> None:
        """A copy went on the wire; in half-open it becomes the probe."""
        if self.state is BreakerState.HALF_OPEN:
            self._probe_outstanding = True

    # -- outcomes -------------------------------------------------------

    def record_success(self) -> None:
        """An ack arrived for this link."""
        self.consecutive_failures = 0
        self._probe_outstanding = False
        if self.state is not BreakerState.CLOSED:
            self._cancel_pending_probe()
            self._open_streak = 0
            self.opened_at_ns = None
            self._transition(BreakerState.CLOSED)

    def record_failure(self) -> None:
        """An ack timer expired for this link."""
        self._probe_outstanding = False
        self.consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN:
            self._trip()
        elif (
            self.state is BreakerState.CLOSED
            and self.consecutive_failures >= self.params.failure_threshold
        ):
            self._trip()
        # Already open: late timers from pre-trip copies just accumulate.

    def halt(self) -> None:
        """Cancel the pending half-open event (simulation teardown)."""
        self._cancel_pending_probe()

    # -- internals ------------------------------------------------------

    def _trip(self) -> None:
        params = self.params
        self.opened_at_ns = self.sim.now
        cooldown = min(
            params.cooldown_ns * COOLDOWN_BACKOFF**self._open_streak,
            float(MAX_COOLDOWN_NS),
        )
        self._open_streak += 1
        jitter = int(
            stream_unit(
                self.seed,
                _ROLE_BREAKER,
                self.source,
                self.destination,
                self._open_streak,
            )
            * (params.max_jitter_ns + 1)
        )
        self._transition(BreakerState.OPEN)
        self._half_open_event = self.sim.schedule(
            int(cooldown) + jitter, self._to_half_open
        )

    def _to_half_open(self) -> None:
        self._half_open_event = None
        self._probe_outstanding = False
        self._transition(BreakerState.HALF_OPEN)
        hook = self.on_half_open
        if hook is not None:
            hook()

    def _transition(self, new: BreakerState) -> None:
        old = self.state
        self.state = new
        self.transitions.append((self.sim.now, old.value, new.value))

    def _cancel_pending_probe(self) -> None:
        if self._half_open_event is not None:
            self._half_open_event.cancel()
            self._half_open_event = None
