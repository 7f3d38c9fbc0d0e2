"""The multi-tenant service front end: tenants -> arrivals -> runtime.

:func:`run_qos_service` is the top of the QoS stack.  It takes a set of
:class:`~repro.qos.classes.Tenant` definitions, materializes each tenant's
deterministic arrival schedule (:mod:`repro.qos.arrivals`), injects every
request into one shared :class:`~repro.runtime.runtime.Runtime` as an
open-loop arrival event (events scheduled on the simulator before the
run, the dormancy-restart hook reviving workers for late arrivals), and
classifies every request's outcome per tenant — completed with an exact
sojourn-time sample, or shed with a typed
:class:`~repro.overload.errors.TaskShedError`.  It is the repository's
one open-loop arrival driver: figQ's tenants carry QoS classes, and
figO's offered load is one unclassed tenant.

Accounting is exposed twice: programmatically as
:class:`QosServiceOutcome` (per-tenant :class:`TenantStats` plus the
:class:`RunResult`), and, for classed tenants, through the runtime's
counter registry as ``/qos{tenant#N}/...`` counters plus the
``/qos/count/high-*`` aggregates the overload governor reads.
Conservation holds per tenant by construction and is asserted by figO and
figQ::

    arrived == completed + shed
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.collector import paused
from repro.overload.config import OverloadConfig
from repro.overload.errors import TaskShedError
from repro.qos.classes import (
    Tenant,
    TenantStats,
    register_class_counters,
    register_tenant_counters,
)
from repro.qos.scheduler import QosBucketScheduler
from repro.runtime.runtime import Runtime, RuntimeConfig, RunResult
from repro.runtime.work import FixedWork
from repro.schedulers.base import SchedulingPolicy

__all__ = ["QosServiceConfig", "QosServiceOutcome", "run_qos_service"]


def _unit() -> int:
    """The body of one request (pure bookkeeping; cost is in the grain)."""
    return 1


@dataclass(frozen=True)
class QosServiceConfig:
    """One service deployment: machine, scheduler, admission, window.

    ``scheduler=None`` builds a :class:`QosBucketScheduler` over exactly
    the classes the tenants use (so at least one tenant needs a class);
    passing any other policy (or registry name via :class:`RuntimeConfig`
    semantics) runs the same traffic without QoS-aware scheduling — the
    figQ ablation baseline, and figO's ``"priority-local"``.
    """

    platform: str = "haswell"
    num_cores: int = 8
    seed: int = 0
    window_ns: int = 300_000
    overload: OverloadConfig | None = None
    scheduler: SchedulingPolicy | str | None = None

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ValueError(f"num_cores must be >= 1, got {self.num_cores}")
        if self.window_ns <= 0:
            raise ValueError(f"window_ns must be positive, got {self.window_ns}")


@dataclass(frozen=True)
class QosServiceOutcome:
    """A finished service window plus per-tenant accounting."""

    result: RunResult
    tenants: tuple[Tenant, ...]
    stats: dict[int, TenantStats] = field(default_factory=dict)

    def stats_for(self, tenant_name: str) -> TenantStats:
        for tenant in self.tenants:
            if tenant.name == tenant_name:
                return self.stats[tenant.tenant_id]
        raise KeyError(f"no tenant named {tenant_name!r}")

    def conserved(self) -> bool:
        """Per-tenant conservation: every arrival completed or shed."""
        return all(
            s.arrived == s.completed + s.shed for s in self.stats.values()
        )

    @property
    def goodput(self) -> float:
        """Useful work completed per core-nanosecond of the run."""
        if self.result.execution_time_ns <= 0:
            return 0.0
        return self.result.cumulative_exec_ns / (
            self.result.num_cores * self.result.execution_time_ns
        )


def _resolve_policy(
    config: QosServiceConfig, tenants: tuple[Tenant, ...]
) -> SchedulingPolicy | str:
    if config.scheduler is not None:
        return config.scheduler
    seen: dict[str, object] = {}
    for tenant in tenants:
        if tenant.qos is not None:
            seen.setdefault(tenant.qos.name, tenant.qos)
    return QosBucketScheduler(classes=list(seen.values()))  # type: ignore[arg-type]


@paused()
def run_qos_service(
    tenants: list[Tenant] | tuple[Tenant, ...],
    config: QosServiceConfig | None = None,
) -> QosServiceOutcome:
    """Run one service window; returns per-tenant outcomes.

    Arrival schedules depend only on ``(config.seed, tenant_id)``, and the
    runtime underneath is the deterministic simulator — the whole outcome,
    counters and latency samples included, is bit-reproducible.
    """
    cfg = config if config is not None else QosServiceConfig()
    tenants = tuple(tenants)
    if not tenants:
        raise ValueError("run_qos_service needs at least one tenant")
    ids = [t.tenant_id for t in tenants]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate tenant ids: {ids}")

    rt = Runtime(
        RuntimeConfig(
            platform=cfg.platform,
            num_cores=cfg.num_cores,
            scheduler=_resolve_policy(cfg, tenants),
            seed=cfg.seed,
            overload=cfg.overload,
        )
    )
    stats = {t.tenant_id: TenantStats() for t in tenants}
    classed = [(t, stats[t.tenant_id]) for t in tenants if t.qos is not None]
    for tenant, tstats in classed:
        register_tenant_counters(rt.registry, tenant, tstats)
    register_class_counters(rt.registry, classed)

    def arrive(tenant: Tenant, index: int, at_ns: int) -> None:
        tstats = stats[tenant.tenant_id]
        tstats.arrived += 1
        future = rt.async_(
            _unit,
            work=FixedWork(tenant.grain_ns),
            name=f"qos:{tenant.name}#{index}",
            qos=tenant.qos,
        )

        def settle(f) -> None:
            exc = f.exception
            if exc is None:
                tstats.record_completion(rt.simulator.now - at_ns)
            elif isinstance(exc, TaskShedError):
                tstats.shed += 1
            else:  # pragma: no cover - requests cannot fail otherwise
                raise exc

        future.on_ready(settle)

    for tenant in tenants:
        schedule = tenant.arrivals.times(cfg.seed, tenant.tenant_id, cfg.window_ns)
        for index, at_ns in enumerate(schedule):
            rt.simulator.schedule_at(
                at_ns,
                (lambda t, i, a: lambda: arrive(t, i, a))(tenant, index, at_ns),
            )

    result = rt.run()
    return QosServiceOutcome(result=result, tenants=tenants, stats=stats)
