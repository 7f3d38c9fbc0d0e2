"""repro.dist — the multi-locality layer of the reproduction.

The paper characterizes grain size on a single node; HPX itself is a
distributed runtime whose parcel transport and AGAS addressing are the
overheads that dominate once work spans localities (Task Bench, and Wu et
al.'s Charm++/HPX overhead study — PAPERS.md).  This package adds that axis:

- :mod:`repro.dist.network` — link latency/bandwidth and parcel
  serialization costs;
- :mod:`repro.dist.parcel` — the per-locality parcelport with HPX-style
  ``/parcels{locality#N/total}`` counters;
- :mod:`repro.dist.agas` — AGAS-lite gid → locality resolution with
  per-locality caches and hit/miss accounting;
- :mod:`repro.dist.runtime` — :class:`DistRuntime`, composing N
  single-node runtimes over one simulated clock.

Resilience (fault injection, reliable transport, recovery) layers on top
via :mod:`repro.faults`; the fault-facing types are re-exported here so
distributed callers have one import surface.  See docs/resilience.md.

See docs/distributed.md for the model's parameters and counter catalogue,
``apps/stencil1d_dist.py`` for the distributed stencil built on it, and
``experiments/figD_distributed_grain.py`` for the grain-size × locality
sweep that shows communication moving the execution-time minimum to
coarser grains.
"""

from repro.dist.agas import AgasCache, AgasParams, AgasService, GlobalId
from repro.dist.network import LinkParams, NetworkModel, NetworkParams
from repro.dist.parcel import Parcel, Parcelport
from repro.dist.runtime import (
    DistConfig,
    DistRunResult,
    DistRuntime,
    Locality,
)
from repro.faults import (
    CrashAt,
    FaultPlan,
    LinkDegradation,
    LocalityCrashError,
    ParcelLostError,
    RetryParams,
    Straggler,
    UnrecoverableCrashError,
    WatchdogTimeout,
)
from repro.faults.errors import FencedEpochError
from repro.recovery import RecoveryConfig
from repro.tail import TailConfig

__all__ = [
    "AgasCache",
    "AgasParams",
    "AgasService",
    "GlobalId",
    "LinkParams",
    "NetworkModel",
    "NetworkParams",
    "Parcel",
    "Parcelport",
    "DistConfig",
    "DistRunResult",
    "DistRuntime",
    "Locality",
    "CrashAt",
    "FaultPlan",
    "LinkDegradation",
    "LocalityCrashError",
    "ParcelLostError",
    "RetryParams",
    "Straggler",
    "UnrecoverableCrashError",
    "WatchdogTimeout",
    "RecoveryConfig",
    "FencedEpochError",
    "TailConfig",
]
