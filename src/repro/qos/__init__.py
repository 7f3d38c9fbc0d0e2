"""Multi-tenant QoS service layer — the "millions of users" scenario.

The paper characterizes grain size for closed-loop HPC applications; a
production service instead faces *open-loop* offered load from many
tenants with different latency needs.  This package turns the runtime
into such a service:

- :mod:`repro.qos.arrivals` — deterministic periodic / Poisson / bursty
  (MMPP) / diurnal arrival generators on SplitMix64 streams;
- :mod:`repro.qos.classes` — :class:`QosClass` service tiers and
  :class:`Tenant` traffic sources, with per-tenant ``/qos{tenant#N}``
  counters (arrived/completed/shed, latency quantiles and histogram);
- :mod:`repro.qos.scheduler` — the Clutch-style
  :class:`QosBucketScheduler` (registered as ``"qos"``): per-class EDF
  root buckets with warp and starvation avoidance;
- :mod:`repro.qos.service` — :func:`run_qos_service`, the one open-loop
  driver: tenant arrivals through one runtime, every request accounted.
  figO's offered load is one unclassed tenant (``qos=None``: NORMAL
  priority, no tag, no ``/qos`` counters).

The figQ experiment (:mod:`repro.experiments.figQ_qos_isolation`) asserts
the end-to-end property: under 4x offered load with class-aware shedding,
high-QoS p99 stays within 1.5x of its 1x-load value while low-QoS work is
shed, with per-tenant conservation and bit-identical reruns.
"""

from repro.qos.arrivals import (
    ArrivalProcess,
    BurstyArrivals,
    DiurnalArrivals,
    PeriodicArrivals,
    PoissonArrivals,
)
from repro.qos.classes import (
    QosClass,
    Tenant,
    TenantStats,
    class_for_priority,
    default_classes,
)
from repro.qos.scheduler import QosBucketScheduler
from repro.qos.service import (
    QosServiceConfig,
    QosServiceOutcome,
    run_qos_service,
)

__all__ = [
    "ArrivalProcess",
    "PeriodicArrivals",
    "PoissonArrivals",
    "BurstyArrivals",
    "DiurnalArrivals",
    "QosClass",
    "Tenant",
    "TenantStats",
    "default_classes",
    "class_for_priority",
    "QosBucketScheduler",
    "QosServiceConfig",
    "QosServiceOutcome",
    "run_qos_service",
]
