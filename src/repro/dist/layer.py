"""The hook protocol of the distributed runtime's opt-in layers.

Crash recovery (:mod:`repro.recovery`), gray-failure tolerance
(:mod:`repro.tail`) and the credit/breaker gate (:mod:`repro.overload.gate`)
subclass :class:`Layer` and override only the hooks they need.
:class:`repro.dist.DistRuntime` and :class:`repro.dist.parcel.Parcelport`
hold a ``layers`` tuple and call each hook only on the layers overriding it
(:func:`implementers`), in tuple order.  With no layer no hook runs, so
"layer off is bit-identical" holds by construction.  Every default does
nothing; a port hook gets the sending port of the parcel concerned.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.counters.registry import CounterRegistry
    from repro.dist.parcel import Parcel, Parcelport
    from repro.runtime.future import Future


class Layer:
    """One opt-in layer; subclasses override the hooks they need."""

    # -- DistRuntime hooks ------------------------------------------------------

    def register_counters(self, registry: "CounterRegistry") -> None:
        """Register this layer's counters (once, when it is built)."""

    def on_start(self) -> None:
        """The run starts: arm periodic chains."""

    def on_spawn(self, kind: str, future: "Future", **lineage: Any) -> None:
        """The runtime issued a ``"root"``, ``"async"``, ``"dataflow"`` or
        ``"proxy"`` future; ``lineage`` holds what would rebuild it."""

    def on_ship(self, source: int, destination: int) -> bool:
        """A proxy value is about to ship; True cancels the shipment."""
        return False

    def owns_crash(self, locality: int) -> bool:
        """True when this layer recovers what a crash of ``locality`` loses:
        the runtime then neither fails its parcels nor calls it doomed."""
        return False

    def on_declare(self, locality: int) -> None:
        """The failure detector declared ``locality`` dead."""

    def on_heartbeat(self, monitor: int, peer: int, gap_ns: int) -> None:
        """``monitor`` heard ``peer`` again ``gap_ns`` after last time."""

    def diagnose(self) -> list[str]:
        """What this layer knows about a stuck run, one line per finding."""
        return []

    # -- Parcelport hooks ---------------------------------------------------------

    def on_send(self, port: "Parcelport", parcel: "Parcel") -> None:
        """A fresh send before its id is drawn or anything is booked;
        raising rejects it."""

    def hold(self, port: "Parcelport", parcel: "Parcel") -> str | None:
        """A reason to park this wire copy now, or None to dispatch it."""
        return None

    def on_park(self, port: "Parcelport", reason: str) -> None:
        """A copy parked for ``reason``."""

    def on_unpark(self, port: "Parcelport", reason: str, waited_ns: int) -> None:
        """A copy parked for ``reason`` left the lane after ``waited_ns``."""

    def on_transmit(self, port: "Parcelport", peer: "Parcelport",
                    parcel: "Parcel", attempt: int, head_delay_ns: int,
                    on_delivered: Callable[["Parcel"], None]) -> None:
        """A wire copy went out, its arrival and timeout already scheduled."""

    def on_arrive(self, port: "Parcelport", parcel: "Parcel") -> bool:
        """A copy reached a live peer; True rejects it (booked dropped)."""
        return False

    def on_ack(self, port: "Parcelport", parcel: "Parcel") -> None:
        """The first ack for ``parcel`` arrived."""

    def on_timeout(self, port: "Parcelport", parcel: "Parcel") -> None:
        """An ack timer for ``parcel`` expired."""

    def on_settle(self, port: "Parcelport", parcel: "Parcel") -> None:
        """``parcel`` left the retry protocol unacked: lost or abandoned."""

    def on_halt(self, port: "Parcelport") -> None:
        """``port`` fail-stopped."""


def implementers(layers: Sequence[Layer], hook: str) -> tuple[Layer, ...]:
    """The layers that override ``hook``, in order."""
    default = getattr(Layer, hook)
    return tuple(
        layer for layer in layers if getattr(type(layer), hook) is not default
    )
