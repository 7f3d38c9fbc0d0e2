"""Parcelport: cross-locality value transfer as discrete events.

An HPX parcel is an active message: destination gid, action, serialized
arguments.  Here a parcel carries the one thing the distributed task graph
needs moved — a future's value travelling to the locality that consumes it
(:meth:`repro.dist.DistRuntime.remote_value` builds the proxy futures).

The lifecycle of one send, all on the shared virtual clock:

1. the source value becomes ready at ``t``;
2. the sender's parcelport charges AGAS resolution (caller-supplied, see
   :class:`repro.dist.agas.AgasCache`) and serialization
   (:meth:`repro.dist.network.NetworkModel.serialization_ns`); the parcel
   "departs" at ``t + resolve + serialize``;
3. the wire adds link latency plus size/bandwidth
   (:meth:`~repro.dist.network.NetworkModel.transfer_ns`), scaled by any
   active :class:`repro.faults.plan.LinkDegradation` window;
4. at delivery the *destination* port books the receive counters and runs
   the delivery callback — which satisfies a proxy future and thereby
   spawns/unblocks tasks on the destination's scheduler.

Two optional layers sit on that path, both off by default and **exactly
free when off** (the no-fault, no-retry send schedules the same single
delivery event it always did):

- a :class:`repro.faults.plan.FaultInjector` decides, per wire
  transmission, whether the copy is dropped, duplicated, or slowed by a
  degradation window;
- :class:`repro.faults.transport.RetryParams` arms an ack/timeout/
  retransmit protocol: every delivery is acknowledged over the reverse
  link, an expired timer retransmits with exponential backoff plus seeded
  jitter, and an exhausted budget fires the caller's ``on_lost`` hook
  (propagating :class:`repro.faults.errors.ParcelLostError` into the
  consuming proxy) instead of hanging.  Receivers discard duplicates by
  (source, parcel id), so at-least-once transmission still satisfies each
  single-assignment proxy future exactly once.

Counters (HPX-style names, registered per locality in the distributed
registry; catalogued in docs/distributed.md and docs/resilience.md):

- ``/parcels{locality#N/total}/count/sent`` / ``count/received`` — logical
  parcels (a retransmission is not a new send; a duplicate is not a new
  receive)
- ``/parcels{locality#N/total}/count/bytes-sent`` / ``count/bytes-received``
  (wire bytes of the logical payload plus envelope, booked once per parcel)
- ``/parcels{locality#N/total}/count/dropped`` — wire copies this locality
  sent that died in transit (injected drops, plus copies arriving at a
  crashed locality)
- ``/parcels{locality#N/total}/count/retransmitted`` — extra wire copies
  this locality sent: retry-timer expiries plus injected duplicates
- ``/parcels{locality#N/total}/count/duplicates-discarded`` — copies this
  locality received for an already-delivered parcel
- ``/parcels{locality#N/total}/count/recovered`` and ``time/recovery`` —
  parcels re-shipped after producer re-execution, and the cumulative
  exhaustion-to-redelivery time (booked by the DistRuntime recovery hook)
- ``/parcels{locality#N/total}/time/serialization`` — cumulative sender-side
  encoding time (charged once per logical parcel)
- ``/parcels{locality#N/total}/time/retry-backoff`` — cumulative time spent
  waiting on retransmit timers that expired
- ``/parcels{locality#N/total}/time/network-wait`` — cumulative
  ready-to-delivered time of parcels this locality *received*; the raw
  material of figD's network-wait idle component
- ``/parcels{locality#N/total}/count/queue-depth@gauge`` — wire copies this
  locality has sent that are still in flight
- ``/parcels{locality#N/total}/count/dead-letters-dropped`` — dead letters
  evicted from the bounded ring (oldest first) once it filled
- ``/parcels{locality#N/total}/count/unacked-high-water@gauge`` — peak
  distinct unacked parcels to any one destination (retry only)

Opt-in layers (:mod:`repro.dist.layer`) hook into the protocol steps
through the port's ``layers`` tuple.  A copy a layer holds back (the
credit/breaker gate) waits in a per-destination FIFO lane, with no wire
copy, until :meth:`Parcelport._pump` finds the gate open again.

Conservation: once nothing is in flight, ``sent + retransmitted ==
received + dropped + duplicates-discarded`` over the whole system (every
wire copy ends in exactly one of the three fates) — asserted by the figD
and figR shape checks.  Parked sends hold the identity trivially: a
parked parcel was counted ``sent`` but has no wire copies yet.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

from repro.counters.registry import CounterRegistry
from repro.dist.layer import Layer, implementers
from repro.dist.network import NetworkModel
from repro.faults.plan import FaultInjector, stream_unit
from repro.faults.transport import RetryParams
from repro.sim.engine import Event, Simulator

#: role tag for the retransmit-jitter stream (see repro.faults.plan)
_ROLE_JITTER = 0x33
#: payload bytes of the acknowledgement control message
ACK_BYTES = 0

#: callback type: delivery of a parcel at its destination
DeliveryFn = Callable[["Parcel"], None]
#: callback type: retry budget exhausted; args are (parcel, attempts)
LostFn = Callable[["Parcel", int], None]


@dataclass
class Parcel:
    """One in-flight (or delivered) cross-locality message."""

    parcel_id: int
    source: int
    destination: int
    payload: Any
    payload_bytes: int
    wire_bytes: int
    #: when the carried value became ready at the source
    ready_ns: int
    #: when the encoded parcel hit the wire
    departed_ns: int
    #: filled in at delivery
    delivered_ns: int | None = None
    #: True when the payload is an exception being propagated, not a value
    is_error: bool = field(default=False, kw_only=True)
    #: the sender's fencing epoch at send time (repro.tail); receivers
    #: reject copies whose epoch predates the sender's current one
    epoch: int = field(default=0, kw_only=True)

    @property
    def in_flight_ns(self) -> int:
        """Ready-to-delivered time; the consumer-visible network wait."""
        if self.delivered_ns is None:
            raise ValueError(f"parcel #{self.parcel_id} not delivered yet")
        return self.delivered_ns - self.ready_ns

    @property
    def link(self) -> str:
        """Human-readable link label for diagnostics."""
        return f"locality {self.source} -> locality {self.destination}"


class Parcelport:
    """One locality's send/receive endpoint on the simulated network.

    ``id_source`` is the parcel-id counter shared by every port of one
    :class:`repro.dist.DistRuntime` — ids are unique *per runtime* and
    restart at 1 for each fresh runtime, so receiver-side dedup bookkeeping
    can never be confused by ids bleeding across independent runtimes (or
    across tests).  A standalone port builds its own counter.

    ``layers`` are the opt-in layers hooked into this port's protocol
    steps (:mod:`repro.dist.layer`); assigning the attribute re-derives
    which layers each hook dispatches to.
    """

    def __init__(
        self,
        locality: int,
        simulator: Simulator,
        network: NetworkModel,
        registry: CounterRegistry,
        *,
        id_source: Iterator[int] | None = None,
        injector: FaultInjector | None = None,
        retry: RetryParams | None = None,
        seed: int = 0,
        dead_letter_capacity: int = 1024,
        layers: Sequence[Layer] = (),
    ) -> None:
        if dead_letter_capacity < 1:
            raise ValueError("dead_letter_capacity must be >= 1")
        self.locality = locality
        self.sim = simulator
        self.network = network
        self._ids = id_source if id_source is not None else itertools.count(1)
        self._injector = injector
        self.retry = retry
        self._seed = seed
        self._peers: dict[int, "Parcelport"] = {locality: self}
        self._outgoing_in_flight = 0
        self.halted = False
        self.layers = layers
        #: (source, parcel_id) of every parcel delivered here (dedup)
        self._delivered: set[tuple[int, int]] = set()
        #: parcel_id -> (timeout event, parcel, attempt) awaiting an ack
        self._awaiting: dict[int, tuple[Event, "Parcel", int]] = {}
        #: parcels this port dropped with no retransmit protocol to save
        #: them; the DistRuntime deadlock diagnosis names these.  Bounded:
        #: once full the oldest is evicted and counted as dropped-from-ring.
        self._dead_letters: deque[Parcel] = deque()
        self._dead_letter_capacity = dead_letter_capacity
        self._dead_letters_dropped = 0
        #: per-destination parked sends: (parcel, on_delivered, on_lost,
        #: attempt, wire_ready_ns, parked_ns, reason)
        self._waiting: dict[int, deque[tuple]] = {}
        #: unacked ledger, maintained whenever retry is armed (a credit
        #: gate reads it; a baseline run reports its high-water mark):
        #: parcel_id -> dest, dest -> live unacked count, dest -> peak
        self._unacked_dest: dict[int, int] = {}
        self._unacked_count: dict[int, int] = {}
        self._unacked_hwm: dict[int, int] = {}
        prefix = f"/parcels{{locality#{locality}/total}}"
        self._c_sent = registry.raw(f"{prefix}/count/sent", "parcels sent")
        self._c_received = registry.raw(
            f"{prefix}/count/received", "parcels received"
        )
        self._c_bytes_sent = registry.raw(
            f"{prefix}/count/bytes-sent", "wire bytes sent"
        )
        self._c_bytes_received = registry.raw(
            f"{prefix}/count/bytes-received", "wire bytes received"
        )
        self._c_dropped = registry.raw(
            f"{prefix}/count/dropped",
            "wire copies sent by this locality that died in transit",
        )
        self._c_retransmitted = registry.raw(
            f"{prefix}/count/retransmitted",
            "extra wire copies: retry expiries plus injected duplicates",
        )
        self._c_duplicates = registry.raw(
            f"{prefix}/count/duplicates-discarded",
            "received copies discarded as already delivered",
        )
        self._c_recovered = registry.raw(
            f"{prefix}/count/recovered",
            "parcels re-shipped after producer re-execution",
        )
        self._c_serialization = registry.raw(
            f"{prefix}/time/serialization",
            "cumulative sender-side encoding time (ns)",
        )
        self._c_backoff = registry.raw(
            f"{prefix}/time/retry-backoff",
            "cumulative time spent on expired retransmit timers (ns)",
        )
        self._c_recovery = registry.raw(
            f"{prefix}/time/recovery",
            "cumulative retry-exhaustion-to-redelivery time (ns)",
        )
        self._c_network_wait = registry.raw(
            f"{prefix}/time/network-wait",
            "cumulative ready-to-delivered time of received parcels (ns)",
        )
        registry.value(
            f"{prefix}/count/queue-depth@gauge",
            "wire copies sent by this locality still in flight",
            source=lambda: float(self._outgoing_in_flight),
        )
        registry.derived(
            f"{prefix}/count/dead-letters-dropped",
            lambda: float(self._dead_letters_dropped),
            "dead letters evicted from the bounded ring",
        )
        registry.value(
            f"{prefix}/count/unacked-high-water@gauge",
            "peak distinct unacked parcels to any one destination",
            source=lambda: float(max(self._unacked_hwm.values(), default=0)),
        )

    @property
    def layers(self) -> tuple[Layer, ...]:
        return self._layers

    @layers.setter
    def layers(self, layers: Sequence[Layer]) -> None:
        self._layers = tuple(layers)
        self._send_layers = implementers(self._layers, "on_send")
        self._hold_layers = implementers(self._layers, "hold")
        self._park_layers = implementers(self._layers, "on_park")
        self._unpark_layers = implementers(self._layers, "on_unpark")
        self._transmit_layers = implementers(self._layers, "on_transmit")
        self._arrive_layers = implementers(self._layers, "on_arrive")
        self._ack_layers = implementers(self._layers, "on_ack")
        self._timeout_layers = implementers(self._layers, "on_timeout")
        self._settle_layers = implementers(self._layers, "on_settle")
        self._halt_layers = implementers(self._layers, "on_halt")

    def connect(self, ports: dict[int, "Parcelport"]) -> None:
        """Wire this port to its peers (DistRuntime calls this once)."""
        self._peers = dict(ports)

    # -- sending ------------------------------------------------------------

    def send(
        self,
        destination: int,
        payload: Any,
        payload_bytes: int | None,
        on_delivered: DeliveryFn,
        *,
        resolve_ns: int = 0,
        is_error: bool = False,
        on_lost: LostFn | None = None,
    ) -> Parcel:
        """Ship ``payload`` to ``destination``; deliver via callback.

        ``resolve_ns`` is the AGAS charge the caller already computed for
        this send; it delays departure but is *not* booked as serialization
        time.  ``on_lost`` fires instead of ``on_delivered`` when the
        reliable transport exhausts its retry budget (it is ignored without
        :class:`RetryParams` — an unreliable drop is recorded as a dead
        letter for the deadlock diagnosis instead).  Loopback sends are a
        protocol error — local values never enter the parcelport (callers
        short-circuit them), so a loopback here means an ownership-tracking
        bug worth failing loudly on.
        """
        if destination == self.locality:
            raise ValueError(
                f"loopback parcel on locality {self.locality}: local values "
                "must not go through the parcelport"
            )
        if destination not in self._peers:
            raise KeyError(
                f"locality {self.locality} has no route to {destination}"
            )
        if payload_bytes is None:
            payload_bytes = self.network.params.default_payload_bytes
        serialize_ns = self.network.serialization_ns(payload_bytes)
        now = self.sim.now
        parcel = Parcel(
            parcel_id=0,
            source=self.locality,
            destination=destination,
            payload=payload,
            payload_bytes=payload_bytes,
            wire_bytes=self.network.wire_bytes(payload_bytes),
            ready_ns=now,
            departed_ns=now + resolve_ns + serialize_ns,
            is_error=is_error,
        )
        # A layer may reject the send (a fenced epoch, a fail-fast breaker)
        # or stamp it.  The id is drawn only afterwards: ids key the fault
        # streams, so a rejected send must not consume one, and it books no
        # counter — it never existed as far as conservation is concerned.
        for layer in self._send_layers:
            layer.on_send(self, parcel)
        parcel.parcel_id = next(self._ids)
        self._c_sent.increment()
        self._c_bytes_sent.increment(parcel.wire_bytes)
        self._c_serialization.increment(serialize_ns)
        self._send_copy(
            parcel,
            on_delivered,
            on_lost,
            attempt=0,
            wire_ready_ns=now + resolve_ns + serialize_ns,
        )
        return parcel

    # -- the gated dispatch pipeline (layers' holds, then the wire) ---------

    def _send_copy(
        self,
        parcel: Parcel,
        on_delivered: DeliveryFn,
        on_lost: LostFn | None,
        attempt: int,
        wire_ready_ns: int,
    ) -> None:
        """Dispatch one copy, or park it if a gate is shut.

        ``wire_ready_ns`` is the earliest moment the encoded buffer may hit
        the wire (it carries the AGAS + serialization delay of a fresh send;
        a retransmission's buffer is ready immediately).  Parking preserves
        it, so a parked fresh send still pays its encoding latency.
        """
        reason = self._hold(parcel)
        if reason is not None:
            self._park(
                parcel, on_delivered, on_lost, attempt, wire_ready_ns, reason
            )
            return
        self._wire_dispatch(parcel, on_delivered, on_lost, attempt, wire_ready_ns)

    def _hold(self, parcel: Parcel) -> str | None:
        """The first layer's reason to park ``parcel`` now, or None."""
        for layer in self._hold_layers:
            reason = layer.hold(self, parcel)
            if reason is not None:
                return reason
        return None

    def _wire_dispatch(
        self,
        parcel: Parcel,
        on_delivered: DeliveryFn,
        on_lost: LostFn | None,
        attempt: int,
        wire_ready_ns: int,
    ) -> None:
        if attempt > 0:
            self._c_retransmitted.increment()
        head = wire_ready_ns - self.sim.now
        self._transmit(
            self._peers[parcel.destination],
            parcel,
            on_delivered,
            on_lost,
            attempt,
            head_delay_ns=head if head > 0 else 0,
        )

    def _park(
        self,
        parcel: Parcel,
        on_delivered: DeliveryFn,
        on_lost: LostFn | None,
        attempt: int,
        wire_ready_ns: int,
        reason: str,
    ) -> None:
        lane = self._waiting.get(parcel.destination)
        if lane is None:
            lane = self._waiting[parcel.destination] = deque()
        lane.append(
            (parcel, on_delivered, on_lost, attempt, wire_ready_ns,
             self.sim.now, reason)
        )
        for layer in self._park_layers:
            layer.on_park(self, reason)

    def _pump(self, destination: int) -> None:
        """Dispatch parked copies while the layers allow it (FIFO per link)."""
        lane = self._waiting.get(destination)
        if not lane or self.halted:
            return
        while lane:
            head = lane[0]
            if self._hold(head[0]) is not None:
                return
            lane.popleft()
            parcel, on_delivered, on_lost, attempt, wire_ready_ns, parked_ns, reason = head
            waited = self.sim.now - parked_ns
            for layer in self._unpark_layers:
                layer.on_unpark(self, reason, waited)
            self._wire_dispatch(
                parcel, on_delivered, on_lost, attempt, wire_ready_ns
            )

    def transfer_ns(self, destination: int, payload_bytes: int) -> int:
        """Wire time for one copy, degradation windows applied at ``now``."""
        base = self.network
        if self._injector is None:
            return base.transfer_ns(self.locality, destination, payload_bytes)
        lat_mult, bw_mult = self._injector.link_multipliers(
            self.locality, destination, self.sim.now
        )
        if lat_mult == 1.0 and bw_mult == 1.0:
            return base.transfer_ns(self.locality, destination, payload_bytes)
        link = base.link(self.locality, destination)
        wire = base.wire_bytes(payload_bytes)
        latency = link.latency_ns * lat_mult
        if link.bandwidth_bytes_per_ns == float("inf"):
            return int(latency)
        return int(latency + wire / (link.bandwidth_bytes_per_ns * bw_mult))

    def _transmit(
        self,
        peer: "Parcelport",
        parcel: Parcel,
        on_delivered: DeliveryFn,
        on_lost: LostFn | None,
        attempt: int,
        head_delay_ns: int,
    ) -> None:
        """Put one wire copy of ``parcel`` on the network (attempt N).

        Events are scheduled in a fixed order — arrival or drop, the
        injected duplicate, the retry timeout, then the layers' own (a
        hedge timer) — because equal timestamps fire in schedule order.
        """
        transfer_ns = self.transfer_ns(peer.locality, parcel.payload_bytes)
        self._outgoing_in_flight += 1
        injector = self._injector
        if injector is not None and injector.drops(parcel.parcel_id, attempt):
            self.sim.schedule(
                head_delay_ns + transfer_ns, lambda: self._drop_on_wire(parcel)
            )
        else:
            self.sim.schedule(
                head_delay_ns + transfer_ns,
                lambda: self.arrive(peer, parcel, on_delivered),
            )
        if injector is not None and injector.duplicates(
            parcel.parcel_id, attempt
        ):
            # A spurious second copy, deduplicated at the receiver.
            self.extra_copy(
                head_delay_ns + transfer_ns,
                lambda: self.arrive(peer, parcel, on_delivered),
            )
        if self.retry is not None:
            timeout_ns = self.retry.timeout_ns(attempt) + self._jitter_ns(
                parcel.parcel_id, attempt
            )
            event = self.sim.schedule(
                head_delay_ns + timeout_ns,
                lambda: self._on_timeout(
                    peer, parcel, on_delivered, on_lost, attempt, timeout_ns
                ),
            )
            self._awaiting[parcel.parcel_id] = (event, parcel, attempt)
            if parcel.parcel_id not in self._unacked_dest:
                dest = peer.locality
                self._unacked_dest[parcel.parcel_id] = dest
                count = self._unacked_count.get(dest, 0) + 1
                self._unacked_count[dest] = count
                if count > self._unacked_hwm.get(dest, 0):
                    self._unacked_hwm[dest] = count
        for layer in self._transmit_layers:
            layer.on_transmit(
                self, peer, parcel, attempt, head_delay_ns, on_delivered
            )

    def extra_copy(self, delay_ns: int, land: Callable[[], Any]) -> None:
        """Put one more wire copy on the network; ``land`` fires on arrival.

        Booked as a retransmission — that is what it is, accounting-wise —
        and deduplicated at the receiver, so conservation holds unchanged.
        Injected duplicates and hedge copies both ride this.
        """
        self._c_retransmitted.increment()
        self._outgoing_in_flight += 1
        self.sim.schedule(delay_ns, land)

    def _jitter_ns(self, parcel_id: int, attempt: int) -> int:
        assert self.retry is not None
        cap = self.retry.max_jitter_ns
        if cap <= 0:
            return 0
        return int(
            stream_unit(self._seed, _ROLE_JITTER, parcel_id, attempt)
            * (cap + 1)
        )

    # -- the wire's three outcomes ------------------------------------------

    def _dead_letter(self, parcel: Parcel) -> None:
        """Record a parcel lost for good; the ring evicts oldest-first."""
        if len(self._dead_letters) >= self._dead_letter_capacity:
            self._dead_letters.popleft()
            self._dead_letters_dropped += 1
        self._dead_letters.append(parcel)

    def _drop_on_wire(self, parcel: Parcel) -> None:
        self._outgoing_in_flight -= 1
        self._c_dropped.increment()
        if self.retry is None:
            self._dead_letter(parcel)

    def arrive(
        self, peer: "Parcelport", parcel: Parcel, on_delivered: DeliveryFn
    ) -> bool:
        """Land one wire copy at ``peer``; True when it delivered the parcel.

        A copy reaching a halted peer, or one a layer rejects (a fenced
        epoch), is booked ``dropped`` on this sending side; a copy of an
        already-delivered parcel is a discarded duplicate.
        """
        self._outgoing_in_flight -= 1
        if peer.halted:
            # A crashed locality receives nothing; the copy is gone.
            self._c_dropped.increment()
            if self.retry is None:
                self._dead_letter(parcel)
            return False
        for layer in self._arrive_layers:
            if layer.on_arrive(self, parcel):
                self._c_dropped.increment()
                return False
        key = (parcel.source, parcel.parcel_id)
        if key in peer._delivered:
            peer._c_duplicates.increment()
            if self.retry is not None:
                # Re-ack: the sender may still be running a retry timer for
                # a copy whose first ack it has not seen yet.
                peer._schedule_ack(self, parcel)
            return False
        peer._delivered.add(key)
        parcel.delivered_ns = self.sim.now
        peer._c_received.increment()
        peer._c_bytes_received.increment(parcel.wire_bytes)
        peer._c_network_wait.increment(parcel.in_flight_ns)
        if self.retry is not None:
            peer._schedule_ack(self, parcel)
        on_delivered(parcel)
        return True

    # -- the ack / timeout / retransmit protocol ----------------------------

    def _schedule_ack(self, sender: "Parcelport", parcel: Parcel) -> None:
        """Acknowledge a received copy over the reverse link."""
        assert self.retry is not None
        delay = self.network.transfer_ns(self.locality, sender.locality, ACK_BYTES)
        self.sim.schedule(delay, lambda: sender._on_ack(parcel.parcel_id))

    def _on_ack(self, parcel_id: int) -> None:
        entry = self._awaiting.pop(parcel_id, None)
        if entry is not None:
            entry[0].cancel()
            destination = self._release_unacked(parcel_id)
            for layer in self._ack_layers:
                layer.on_ack(self, entry[1])
            if destination is not None:
                self._pump(destination)

    def _release_unacked(self, parcel_id: int) -> int | None:
        """Return the parcel's credit; gives back the destination, if any."""
        destination = self._unacked_dest.pop(parcel_id, None)
        if destination is not None:
            self._unacked_count[destination] -= 1
        return destination

    def _on_timeout(
        self,
        peer: "Parcelport",
        parcel: Parcel,
        on_delivered: DeliveryFn,
        on_lost: LostFn | None,
        attempt: int,
        timeout_ns: int,
    ) -> None:
        assert self.retry is not None
        self._awaiting.pop(parcel.parcel_id, None)
        if self.halted:
            return
        self._c_backoff.increment(timeout_ns)
        for layer in self._timeout_layers:
            layer.on_timeout(self, parcel)
        if attempt >= self.retry.max_retries:
            attempts = attempt + 1
            for layer in self._settle_layers:
                layer.on_settle(self, parcel)
            destination = self._release_unacked(parcel.parcel_id)
            if on_lost is not None:
                on_lost(parcel, attempts)
            else:
                self._dead_letter(parcel)
            if destination is not None:
                # The freed credit may unblock a parked send.
                self._pump(destination)
            return
        # Retransmission re-sends the already-encoded buffer: no second
        # serialization or AGAS charge, just wire time — but it goes back
        # through the gates, so an open breaker parks it instead.
        self._send_copy(
            parcel, on_delivered, on_lost, attempt + 1, wire_ready_ns=self.sim.now
        )

    # -- recovery bookkeeping (called by DistRuntime's re-execution hook) ---

    def book_recovery(self, elapsed_ns: int) -> None:
        """Record one successful exhaustion-to-redelivery recovery."""
        self._c_recovered.increment()
        self._c_recovery.increment(elapsed_ns)

    # -- crash --------------------------------------------------------------

    def halt(self) -> None:
        """Fail-stop this port: cancel every retry timer, send nothing more.

        Copies already on the wire still arrive (the bytes had left the
        node); incoming copies are dropped by :meth:`arrive` checking the
        receiver's halted flag.
        """
        self.halted = True
        for event, _parcel, _attempt in self._awaiting.values():
            event.cancel()
        self._awaiting.clear()
        for layer in self._halt_layers:
            layer.on_halt(self)
        self._waiting.clear()

    def abandon_destination(self, destination: int) -> int:
        """Give up on every send headed to a declared-dead ``destination``.

        Crash recovery calls this on each *survivor* port the moment a
        locality is declared dead, so nobody burns the remaining
        retransmission budget on a link that can never ack.  Returns how
        many sends were abandoned (the ``/recovery`` failed-fast count).

        Accounting: an in-flight copy's retry timer is cancelled without
        booking a fate — the copy itself still terminates at
        :meth:`arrive` against the halted peer, where it is counted
        ``dropped``, keeping the sent/received/dropped conservation exact.
        A parked *fresh* send (attempt 0) was counted ``sent`` but never
        produced a wire copy, so it is booked ``dropped`` here; a parked
        retransmission has no accounting existence and books nothing.
        """
        abandoned = 0
        stale = [
            pid
            for pid, (_e, parcel, _a) in self._awaiting.items()
            if parcel.destination == destination
        ]
        for pid in stale:
            event, parcel, _attempt = self._awaiting.pop(pid)
            event.cancel()
            for layer in self._settle_layers:
                layer.on_settle(self, parcel)
            self._release_unacked(pid)
            abandoned += 1
        lane = self._waiting.pop(destination, None)
        if lane:
            for parcel, _cb, _lost, attempt, *_rest in lane:
                self._release_unacked(parcel.parcel_id)
                if attempt == 0:
                    self._c_dropped.increment()
                abandoned += 1
        return abandoned

    # -- introspection ------------------------------------------------------

    @property
    def in_flight(self) -> int:
        """Wire copies sent by this locality not yet delivered or dropped."""
        return self._outgoing_in_flight

    @property
    def dead_letters(self) -> tuple[Parcel, ...]:
        """Parcels this port lost with no protocol left to save them."""
        return tuple(self._dead_letters)

    @property
    def dead_letters_dropped(self) -> int:
        """Dead letters the bounded ring has evicted (oldest first)."""
        return self._dead_letters_dropped

    def is_awaiting(self, parcel_id: int) -> bool:
        """Does ``parcel_id`` have a live retransmit timer?"""
        return parcel_id in self._awaiting

    @property
    def awaiting_ack(self) -> tuple[tuple[Parcel, int], ...]:
        """(parcel, attempt) pairs with a live retransmit timer."""
        return tuple(
            (parcel, attempt) for _e, parcel, attempt in self._awaiting.values()
        )

    @property
    def waiting_sends(self) -> int:
        """Copies currently parked behind a credit or breaker gate."""
        return sum(len(lane) for lane in self._waiting.values())

    def waiting_for(self, destination: int) -> tuple[Parcel, ...]:
        """The parked parcels headed to ``destination`` (FIFO order)."""
        lane = self._waiting.get(destination)
        if not lane:
            return ()
        return tuple(entry[0] for entry in lane)

    def unacked_high_water(self, destination: int) -> int:
        """Peak distinct unacked parcels to ``destination`` (retry only)."""
        return self._unacked_hwm.get(destination, 0)

    def unacked_to(self, destination: int) -> int:
        """Distinct parcels to ``destination`` sent but not yet acked."""
        return self._unacked_count.get(destination, 0)

    def holds_unacked(self, parcel_id: int) -> bool:
        """Is ``parcel_id`` in the unacked ledger (first copy sent)?"""
        return parcel_id in self._unacked_dest
