"""QoS classes and tenants for the multi-tenant service layer.

A :class:`QosClass` names a service tier: how urgent its requests are
(``latency_target_ns``, the EDF deadline offset used by the
:class:`~repro.qos.scheduler.QosBucketScheduler`), how important they are
relative to other tiers (``rank``, consulted by class-aware shed-victim
selection in :mod:`repro.overload.admission`), how much scheduler
attention they command (``weight``, which tightens the starvation-
avoidance threshold), and whether admission control may drop them at all
(``shed_eligible``).

A :class:`Tenant` is one traffic source: a named stream of open-loop
arrivals (see :mod:`repro.qos.arrivals`) whose requests all carry one QoS
class and one grain size.  :class:`TenantStats` accumulates the per-tenant
accounting — arrived / completed / shed counts plus exact sojourn-time
samples and a log2 latency histogram — and :func:`register_tenant_counters`
exposes it in a runtime's counter registry under ``/qos{tenant#N}/...``
names, so QoS health is read exactly like every other runtime signal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.counters.registry import CounterRegistry
from repro.qos.arrivals import ArrivalProcess
from repro.runtime.task import Priority
from repro.util.stats import quantile

__all__ = [
    "QosClass",
    "Tenant",
    "TenantStats",
    "default_classes",
    "class_for_priority",
    "register_tenant_counters",
    "register_class_counters",
    "HIST_BUCKETS_US",
]

#: log2 histogram bucket upper bounds, in microseconds (plus an overflow
#: bucket labelled ``inf``): 1us, 2us, ... 524288us (~0.5 s).
HIST_BUCKETS_US: tuple[int, ...] = tuple(2**k for k in range(20))


@dataclass(frozen=True)
class QosClass:
    """One service tier shared by any number of tenants.

    ``rank`` orders classes by importance (higher = more important);
    ``weight`` scales scheduler attention (heavier classes hit the
    starvation-avoidance threshold sooner); ``latency_target_ns`` is both
    the EDF deadline offset and the tier's SLO for reporting;
    ``warp_ns`` is the temporary deadline boost a class bucket receives
    when work arrives into it while empty (Clutch-style warp);
    ``shed_eligible=False`` marks work admission control must never drop
    in favour of a newcomer.
    """

    name: str
    rank: int
    latency_target_ns: int
    weight: int = 1
    shed_eligible: bool = True
    warp_ns: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("QosClass needs a non-empty name")
        if self.rank < 0:
            raise ValueError(f"rank must be >= 0, got {self.rank}")
        if self.weight < 1:
            raise ValueError(f"weight must be >= 1, got {self.weight}")
        if self.latency_target_ns <= 0:
            raise ValueError(
                f"latency_target_ns must be positive, got {self.latency_target_ns}"
            )
        if self.warp_ns < 0:
            raise ValueError(f"warp_ns must be >= 0, got {self.warp_ns}")


def default_classes() -> tuple[QosClass, QosClass, QosClass]:
    """The stock three-tier ladder: batch < standard < interactive.

    Their requests run at NORMAL queue priority on purpose: isolation must
    come from the QoS machinery itself (EDF buckets, class-aware shedding),
    not from the priority queues — that is exactly what figQ asserts.
    """
    return (
        QosClass(
            name="batch",
            rank=0,
            latency_target_ns=5_000_000,  # 5 ms: throughput work
            weight=1,
            shed_eligible=True,
            warp_ns=0,
        ),
        QosClass(
            name="standard",
            rank=1,
            latency_target_ns=500_000,  # 500 us
            weight=2,
            shed_eligible=True,
            warp_ns=10_000,
        ),
        QosClass(
            name="interactive",
            rank=2,
            latency_target_ns=50_000,  # 50 us: user-facing
            weight=4,
            shed_eligible=False,
            warp_ns=25_000,
        ),
    )


def class_for_priority(
    priority: Priority, classes: tuple[QosClass, ...]
) -> QosClass:
    """Map an unclassed task's queue priority onto one of ``classes``.

    LOW lands in the lowest-rank class, HIGH in the highest, NORMAL in the
    middle tier (lowest-rank of the rest), so legacy single-class workloads
    run under the QoS scheduler without any annotation.
    """
    ordered = sorted(classes, key=lambda c: (c.rank, c.name))
    if priority is Priority.LOW:
        return ordered[0]
    if priority is Priority.HIGH:
        return ordered[-1]
    return ordered[len(ordered) // 2]


@dataclass(frozen=True)
class Tenant:
    """One traffic source: arrivals of a fixed grain under one QoS class.

    ``qos=None`` makes the tenant *unclassed*: its tasks run at
    ``Priority.NORMAL`` with no QoS tag, and it registers no ``/qos``
    counters, so the governor's high-QoS signal stays 0 (figO's offered
    load).
    """

    tenant_id: int
    name: str
    qos: QosClass | None
    grain_ns: int
    arrivals: ArrivalProcess

    def __post_init__(self) -> None:
        if self.tenant_id < 0:
            raise ValueError(f"tenant_id must be >= 0, got {self.tenant_id}")
        if self.grain_ns <= 0:
            raise ValueError(f"grain_ns must be positive, got {self.grain_ns}")


@dataclass
class TenantStats:
    """Mutable per-tenant accounting filled in during a service run."""

    arrived: int = 0
    completed: int = 0
    shed: int = 0
    #: exact sojourn (arrival -> completion) samples, ns, completion order
    sojourn_ns: list[int] = field(default_factory=list)
    #: log2 histogram: ``hist[k]`` counts sojourns <= ``HIST_BUCKETS_US[k]``
    #: microseconds (and > the previous bound); the final slot is overflow
    hist: list[int] = field(
        default_factory=lambda: [0] * (len(HIST_BUCKETS_US) + 1)
    )

    def record_completion(self, sojourn_ns: int) -> None:
        self.completed += 1
        self.sojourn_ns.append(sojourn_ns)
        us = sojourn_ns / 1000.0
        for k, bound in enumerate(HIST_BUCKETS_US):
            if us <= bound:
                self.hist[k] += 1
                return
        self.hist[-1] += 1

    def p(self, q: float) -> float:
        """Nearest-rank sojourn quantile in ns; 0.0 with no completions."""
        if not self.sojourn_ns:
            return 0.0
        return float(quantile(self.sojourn_ns, q))

    @property
    def shed_fraction(self) -> float:
        return self.shed / self.arrived if self.arrived else 0.0


def register_tenant_counters(
    registry: CounterRegistry, tenant: Tenant, stats: TenantStats
) -> None:
    """Expose ``stats`` under ``/qos{tenant#N}/...`` in ``registry``.

    Count counters follow the registry's delta semantics; the latency
    quantiles are ``@gauge`` (a distribution summary, not a monotone
    total).  Histogram buckets are registered eagerly so snapshots always
    carry the full, fixed counter set.
    """
    n = tenant.tenant_id
    prefix = f"/qos{{tenant#{n}}}"
    registry.derived(
        f"{prefix}/count/arrived",
        lambda s=stats: float(s.arrived),
        f"requests offered by tenant {tenant.name!r}",
    )
    registry.derived(
        f"{prefix}/count/completed",
        lambda s=stats: float(s.completed),
        f"requests completed for tenant {tenant.name!r}",
    )
    registry.derived(
        f"{prefix}/count/shed",
        lambda s=stats: float(s.shed),
        f"requests shed for tenant {tenant.name!r}",
    )
    for label, q in (("p50", 0.50), ("p99", 0.99), ("p999", 0.999)):
        registry.derived(
            f"{prefix}/time/latency-{label}@gauge",
            lambda s=stats, q=q: s.p(q),
            f"nearest-rank {label} sojourn time (ns), tenant {tenant.name!r}",
        )
    for k, bound in enumerate(HIST_BUCKETS_US):
        registry.derived(
            f"{prefix}/count/latency-le-{bound}us",
            lambda s=stats, k=k: float(s.hist[k]),
            f"sojourns in the <= {bound} us bucket, tenant {tenant.name!r}",
        )
    registry.derived(
        f"{prefix}/count/latency-le-inf",
        lambda s=stats: float(s.hist[-1]),
        f"sojourns past the last histogram bound, tenant {tenant.name!r}",
    )


def register_class_counters(
    registry: CounterRegistry,
    pairs: list[tuple[Tenant, TenantStats]],
) -> None:
    """Aggregate top-tier health counters the overload governor reads.

    "High QoS" means the maximum rank present among ``pairs``; shedding
    *any* of it is the strongest possible overload signal (see
    :meth:`repro.overload.governor.GovernorSignals`).
    """
    if not pairs:
        return
    top = max(t.qos.rank for t, _ in pairs)
    high = [s for t, s in pairs if t.qos.rank == top]
    registry.derived(
        "/qos/count/high-arrived",
        lambda hs=tuple(high): float(sum(s.arrived for s in hs)),
        "requests offered by highest-rank QoS tenants",
    )
    registry.derived(
        "/qos/count/high-shed",
        lambda hs=tuple(high): float(sum(s.shed for s in hs)),
        "requests shed from highest-rank QoS tenants",
    )
