"""Network model: where a parcel's virtual latency comes from.

HPX moves work and data between localities in *parcels* (active messages).
Task Bench (Slaughter et al.) and the Charm++/HPX overhead study of Wu et
al. (PAPERS.md) both show that once work spans localities, per-parcel costs
join per-task costs as the overheads that set the usable grain-size region.
This module models the transport half of that cost:

- **link latency and bandwidth** — a parcel from locality *s* to *d*
  pays ``latency + size / bandwidth`` over one uniform interconnect;
- **serialization** — encoding the parcel on the sending side costs a fixed
  setup plus a per-byte charge.  HPX pays this on a worker thread; the model
  charges it as virtual delay ahead of the wire time and accounts it in
  ``/parcels{locality#N/total}/time/serialization``;
- **loopback is free** — a "send" whose source and destination are the same
  locality never touches the parcelport (callers short-circuit it), matching
  HPX, where local actions are plain function invocations.

The model is pure arithmetic over these parameters; the
:class:`repro.dist.parcel.Parcelport` turns its numbers into events on the
shared :class:`repro.sim.engine.Simulator`.

Default calibration is a commodity-cluster interconnect as seen *by the
runtime* (not raw wire numbers): several-microsecond small-message latency
and a few GB/s of effective per-link bandwidth, in line with the HPX
TCP/MPI parcelport measurements in the Task Bench literature.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LinkParams:
    """One directed link's transport characteristics."""

    #: one-way message latency in virtual nanoseconds
    latency_ns: int = 15_000
    #: sustained bandwidth in bytes per nanosecond (== GB/s)
    bandwidth_bytes_per_ns: float = 4.0

    def __post_init__(self) -> None:
        if self.latency_ns < 0:
            raise ValueError(f"latency_ns must be >= 0, got {self.latency_ns}")
        if self.bandwidth_bytes_per_ns <= 0:
            raise ValueError(
                "bandwidth_bytes_per_ns must be positive, got "
                f"{self.bandwidth_bytes_per_ns}"
            )


@dataclass(frozen=True)
class NetworkParams:
    """Cluster-wide transport and serialization parameters."""

    #: the link every (s, d) pair uses unless overridden
    default_link: LinkParams = LinkParams()
    #: fixed cost of encoding any parcel (buffer setup, type descriptors)
    serialization_base_ns: int = 2_000
    #: marginal encoding cost per byte of the wire image
    serialization_ns_per_byte: float = 0.4
    #: envelope bytes added to every parcel (action id, gid, continuation)
    parcel_header_bytes: int = 512
    #: payload size assumed for parcels whose sender did not measure one
    default_payload_bytes: int = 8

    def __post_init__(self) -> None:
        if self.serialization_base_ns < 0:
            raise ValueError("serialization_base_ns must be >= 0")
        if self.serialization_ns_per_byte < 0:
            raise ValueError("serialization_ns_per_byte must be >= 0")
        if self.parcel_header_bytes < 0:
            raise ValueError("parcel_header_bytes must be >= 0")
        if self.default_payload_bytes < 1:
            raise ValueError("default_payload_bytes must be >= 1")


#: the free link used for loopback "transfers" and the zero network
_FREE_LINK = LinkParams(latency_ns=0, bandwidth_bytes_per_ns=float("inf"))


class NetworkModel:
    """Maps (source, destination, parcel size) to virtual transport times.

    Stateless with respect to the simulation: the parcelport asks it for
    durations and schedules the events itself, so one model instance can be
    shared by every locality of a :class:`repro.dist.DistRuntime`.
    """

    def __init__(self, params: NetworkParams | None = None) -> None:
        self.params = params if params is not None else NetworkParams()

    @classmethod
    def zero(cls) -> "NetworkModel":
        """A network with no costs at all.

        Used by the equivalence regression: a 1-locality distributed run
        over the zero network must reproduce the single-node runtime.
        """
        return cls(
            NetworkParams(
                default_link=_FREE_LINK,
                serialization_base_ns=0,
                serialization_ns_per_byte=0.0,
                parcel_header_bytes=0,
            )
        )

    # -- cost arithmetic ----------------------------------------------------

    def link(self, src: int, dst: int) -> LinkParams:
        """The link a (src, dst) parcel travels; loopback is free."""
        if src == dst:
            return _FREE_LINK
        return self.params.default_link

    def wire_bytes(self, payload_bytes: int) -> int:
        """Total bytes on the wire: payload plus the parcel envelope."""
        return payload_bytes + self.params.parcel_header_bytes

    def serialization_ns(self, payload_bytes: int) -> int:
        """Sender-side encoding time for a parcel of ``payload_bytes``."""
        p = self.params
        return int(
            p.serialization_base_ns
            + p.serialization_ns_per_byte * self.wire_bytes(payload_bytes)
        )

    def transfer_ns(self, src: int, dst: int, payload_bytes: int) -> int:
        """Wire time from send to delivery: latency plus size / bandwidth."""
        link = self.link(src, dst)
        wire = self.wire_bytes(payload_bytes)
        if link.bandwidth_bytes_per_ns == float("inf"):
            return link.latency_ns
        return int(link.latency_ns + wire / link.bandwidth_bytes_per_ns)

