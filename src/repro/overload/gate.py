"""The send gate: credit flow control and circuit breakers on one port.

A :class:`SendGate` is the :class:`repro.layer.Layer` that decides,
for every wire copy of one port, dispatch or park (docs/overload.md):

- **breaker** — a per-destination :class:`CircuitBreaker` parks every copy
  while open (with ``fail_fast``, a fresh send raises
  :class:`CircuitOpenError` before the port books anything); acks close
  it, ack timeouts trip it, and its half-open probe pumps the lane.
- **credits** — a parcel holds one credit from its first copy until acked
  or declared lost; the credits in use are the port's unacked ledger.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.layer import Layer
from repro.overload.breaker import BreakerParams, CircuitBreaker
from repro.overload.config import CreditParams
from repro.overload.errors import CircuitOpenError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.counters.registry import CounterRegistry
    from repro.dist.parcel import Parcel, Parcelport

__all__ = ["SendGate"]


class SendGate(Layer):
    """Credits and breakers gating one port's wire copies."""

    def __init__(
        self,
        port: "Parcelport",
        *,
        credits: CreditParams | None = None,
        breaker: BreakerParams | None = None,
        seed: int = 0,
    ) -> None:
        if port.retry is None:
            raise ValueError(
                "credit flow control and circuit breakers require RetryParams:"
                " acks are what return credits and detect link failures"
            )
        self.port = port
        self.credits = credits
        self.breaker = breaker
        self._seed = seed
        #: live breakers by destination
        self.breakers: dict[int, CircuitBreaker] = {}
        self.credit_waits = 0
        self.credit_wait_ns = 0
        self.breaker_deferred = 0
        self.breaker_wait_ns = 0
        self.fast_failures = 0

    def register_counters(self, registry: "CounterRegistry") -> None:
        prefix = f"/overload{{locality#{self.port.locality}/total}}"
        for path, attr, description in (
            ("count/credit-waits", "credit_waits",
             "sends parked waiting for a flow-control credit"),
            ("time/credits-exhausted", "credit_wait_ns",
             "cumulative time sends spent parked on credits (ns)"),
            ("count/breaker-deferred", "breaker_deferred",
             "wire copies parked behind an open circuit breaker"),
            ("time/breaker-deferred", "breaker_wait_ns",
             "cumulative time copies spent parked behind a breaker (ns)"),
            ("count/breaker-transitions", "breaker_transitions",
             "circuit-breaker state transitions on this locality's links"),
            ("count/breaker-fast-failures", "fast_failures",
             "sends rejected with CircuitOpenError (fail_fast breakers)"),
        ):
            registry.derived(
                f"{prefix}/{path}",
                lambda attr=attr: float(getattr(self, attr)),
                description,
            )
        registry.value(
            f"{prefix}/count/waiting-sends@gauge",
            "sends currently parked (credits or breaker)",
            source=lambda: float(self.port.waiting_sends),
        )

    def _breaker_for(self, destination: int) -> CircuitBreaker:
        br = self.breakers.get(destination)
        if br is None:
            assert self.breaker is not None
            port = self.port
            br = self.breakers[destination] = CircuitBreaker(
                self.breaker,
                port.sim,
                seed=self._seed,
                source=port.locality,
                destination=destination,
                on_half_open=lambda: port._pump(destination),
            )
        return br

    @property
    def breaker_transitions(self) -> int:
        return sum(len(br.transitions) for br in self.breakers.values())

    def on_send(self, port: "Parcelport", parcel: "Parcel") -> None:
        if self.breaker is None or not self.breaker.fail_fast:
            return
        br = self.breakers.get(parcel.destination)
        if br is not None and not br.allows_send():
            self.fast_failures += 1
            raise CircuitOpenError(
                port.locality,
                parcel.destination,
                opened_at_ns=br.opened_at_ns,
                consecutive_failures=br.consecutive_failures,
            )

    def hold(self, port: "Parcelport", parcel: "Parcel") -> str | None:
        destination = parcel.destination
        if self.breaker is not None:
            if not self._breaker_for(destination).allows_send():
                return "breaker"
        if (
            self.credits is not None
            and not port.holds_unacked(parcel.parcel_id)
            and port.unacked_to(destination) >= self.credits.window
        ):
            return "credit"
        return None

    def on_park(self, port: "Parcelport", reason: str) -> None:
        if reason == "credit":
            self.credit_waits += 1
        else:
            self.breaker_deferred += 1

    def on_unpark(self, port: "Parcelport", reason: str, waited_ns: int) -> None:
        if reason == "credit":
            self.credit_wait_ns += waited_ns
        else:
            self.breaker_wait_ns += waited_ns

    def on_transmit(self, port, peer, parcel, attempt, head_delay_ns,
                    on_delivered) -> None:
        br = self.breakers.get(parcel.destination)
        if br is not None:
            br.note_dispatch()  # in half-open, this copy is the probe

    def on_ack(self, port: "Parcelport", parcel: "Parcel") -> None:
        br = self.breakers.get(parcel.destination)
        if br is not None:
            br.record_success()

    def on_timeout(self, port: "Parcelport", parcel: "Parcel") -> None:
        br = self.breakers.get(parcel.destination)
        if br is not None:
            br.record_failure()

    def on_halt(self, port: "Parcelport") -> None:
        for br in self.breakers.values():
            br.halt()
