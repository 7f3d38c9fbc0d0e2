"""Distributed HPX-Stencil: the 1-D heat ring across localities.

The single-node benchmark (:mod:`repro.apps.stencil1d`) splits the ring
into partitions and futurizes every per-step update.  Here the partitions
are additionally **block-decomposed** across localities: locality *k* owns
a contiguous block of partitions, so with L > 1 localities the ring has
exactly L block boundaries and each time step moves 2·L halos across the
network (one in each direction per boundary).

A halo is what a real distributed HPX stencil communicates: the single edge
point of the neighbouring partition (8 bytes of payload under an HPX parcel
envelope).  Each boundary dependency is an explicit
:meth:`repro.dist.DistRuntime.remote_value` proxy whose sender projects the
edge out of the partition, resolves the *consuming* partition's AGAS gid
(first send per neighbour misses the cache, later steps hit), and ships the
parcel; interior dependencies stay plain local futures.

As on a single node, ``validate=True`` runs the same NumPy kernel
(:func:`repro.apps.stencil1d.heat_partition`, fed the halo's edge point
in place of a remote neighbour) and must match
:func:`repro.apps.stencil1d.serial_reference` to machine precision — now
also proving the halo plumbing moves the right bytes.  Both runs return a
:class:`repro.apps.stencil1d.StencilOutcome`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.apps.stencil1d import (
    StencilConfig,
    StencilOutcome,
    heat_partition,
    initial_partitions,
)
from repro.collector import paused
from repro.dist.runtime import DistConfig, DistRuntime
from repro.runtime.future import Future
from repro.runtime.work import StencilWork

#: payload bytes of one halo parcel: a single float64 edge point
HALO_BYTES = 8


@dataclass(frozen=True)
class DistStencilConfig(StencilConfig):
    """:class:`StencilConfig` plus the partition → locality mapping; the
    locality count lives in :class:`DistConfig`."""

    #: partition → locality mapping: ``"block"`` (contiguous, 2·L halos per
    #: step regardless of grain) or ``"cyclic"`` (round-robin: *every*
    #: adjacent pair of partitions crosses a locality boundary, so the
    #: cross-network halo count scales with the partition count — the
    #: communication-heavy regime figR uses to expose per-parcel fault cost)
    decomposition: str = "block"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.decomposition not in ("block", "cyclic"):
            raise ValueError(
                f"decomposition must be 'block' or 'cyclic', "
                f"got {self.decomposition!r}"
            )

    def owners(self, num_localities: int) -> list[int]:
        """Partition index → owning locality, per ``decomposition``.

        ``"block"``: contiguous blocks, sized as evenly as possible (the
        first ``num_partitions % L`` localities get one extra partition).
        ``"cyclic"``: partition ``i`` lives on locality ``i % L``.  Both
        require at least one partition per locality.
        """
        np_count = self.num_partitions
        if np_count < num_localities:
            # The largest grain p with ceil(total / p) >= L partitions.
            coarsest = (self.total_points - 1) // (num_localities - 1)
            raise ValueError(
                f"{np_count} partitions cannot cover {num_localities} "
                "localities; "
                + (
                    f"coarsest usable grain is partition_points={coarsest}"
                    if coarsest
                    else f"even partition_points=1 gives only {np_count}"
                )
            )
        if self.decomposition == "cyclic":
            return [i % num_localities for i in range(np_count)]
        base, extra = divmod(np_count, num_localities)
        owners: list[int] = []
        for loc in range(num_localities):
            owners.extend([loc] * (base + (1 if loc < extra else 0)))
        return owners

    def cross_halos_per_step(self, num_localities: int) -> int:
        """Cross-locality halo parcels per time step.

        Block decomposition crosses the network only at its 2·L block
        boundaries; cyclic decomposition crosses at (nearly) every
        partition boundary, so its count scales with the partition count.
        Computed exactly: 2 parcels per adjacent-partition pair with
        distinct owners (one halo in each direction).
        """
        if num_localities == 1:
            return 0
        owners = self.owners(num_localities)
        n = len(owners)
        return 2 * sum(
            1 for i in range(n) if owners[i] != owners[(i + 1) % n]
        )


def _left_edge(value: Any) -> Any:
    """The edge a partition exposes to its *left* neighbour (first point)."""
    return value[0] if isinstance(value, np.ndarray) else value


def _right_edge(value: Any) -> Any:
    """The edge a partition exposes to its *right* neighbour (last point)."""
    return value[-1] if isinstance(value, np.ndarray) else value


@paused()
def build_dist_stencil_graph(
    dist: DistRuntime, config: DistStencilConfig
) -> list[Future]:
    """Construct the distributed dependency tree; returns the final step's
    partition futures (each owned by its partition's home locality)."""
    sizes = config.partition_sizes()
    np_count = config.num_partitions
    coeff = config.heat_coefficient
    owners = config.owners(dist.num_localities)

    # Long-lived AGAS identities: one gid per partition, homed where the
    # partition lives.  Senders resolve the *consumer's* gid per halo send.
    gids = [
        dist.register_gid(owners[i], name=f"partition[{i}]")
        for i in range(np_count)
    ]

    current = [
        dist.make_ready_future(payload, locality=owners[i], name=f"U[0][{i}]")
        for i, payload in enumerate(initial_partitions(config))
    ]

    def halo(source: Future, source_ix: int, consumer_ix: int, edge) -> Future:
        """The dependency partition ``consumer_ix`` takes on ``source``."""
        if owners[source_ix] == owners[consumer_ix]:
            return source
        return dist.remote_value(
            source,
            owners[consumer_ix],
            payload_bytes=HALO_BYTES,
            transform=edge,
            gid=gids[consumer_ix],
            name=f"{source.name}->loc{owners[consumer_ix]}",
            # Under recovery="reexecute", a lost halo re-runs the producing
            # partition update before re-sending — so recovery cost scales
            # with the grain, the effect figR measures.
            recovery_work=StencilWork(points=sizes[source_ix]),
        )

    if config.validate:
        def body(left: Any, mid: np.ndarray, right: Any) -> np.ndarray:
            return heat_partition(left, mid, right, coeff)
    else:
        def body(_left: Any, mid: Any, _right: Any) -> Any:
            return mid

    for step in range(1, config.time_steps + 1):
        nxt: list[Future] = []
        for i in range(np_count):
            left_ix = (i - 1) % np_count
            right_ix = (i + 1) % np_count
            deps = [
                halo(current[left_ix], left_ix, i, _right_edge),
                current[i],
                halo(current[right_ix], right_ix, i, _left_edge),
            ]
            nxt.append(
                dist.dataflow(
                    body,
                    deps,
                    locality=owners[i],
                    work=StencilWork(points=sizes[i]),
                    name=f"U[{step}][{i}]",
                )
            )
        current = nxt
    return current


@paused()
def run_dist_stencil(
    dist_config: DistConfig, config: DistStencilConfig
) -> StencilOutcome:
    """Run the distributed stencil on a fresh :class:`DistRuntime`."""
    dist = DistRuntime(dist_config)
    finals = build_dist_stencil_graph(dist, config)
    # wait() re-raises any error a final partition carries (ParcelLostError
    # from an exhausted halo, LocalityCrashError for a dead producer, the
    # original exception from a failing task body) instead of hanging or
    # silently returning partial results.
    return StencilOutcome.collect(dist.wait(finals), config, finals)
