"""DistRuntime: N per-locality runtimes composed over one virtual clock.

The single-node :class:`repro.runtime.runtime.Runtime` models one HPX
*locality*.  This facade composes several of them — each with its own
scheduler, worker pool, cost model and counter registry — over one shared
:class:`repro.sim.engine.Simulator`, and adds the two services that make a
multi-locality HPX run different from N independent ones:

- a **parcelport per locality** (:mod:`repro.dist.parcel`) moving future
  values across locality boundaries on the modelled network
  (:mod:`repro.dist.network`);
- an **AGAS-lite resolver** (:mod:`repro.dist.agas`): senders resolve the
  destination gid through their locality's cache, paying hit/miss costs.

Work is submitted with the same ``async_`` / ``dataflow`` verbs, plus a
``locality=`` placement argument.  A dataflow may depend on futures owned by
*other* localities: each such dependency is transparently replaced by a
local **proxy future** that becomes ready when the carrying parcel is
delivered (explicitly constructible via :meth:`DistRuntime.remote_value`,
which is what the distributed stencil's halo exchange uses).

Counters: every locality's runtime keeps its own registry (self-addressed
as ``locality#0``, exactly as a real HPX locality sees itself).  The
distributed registry owned by this facade holds the cross-locality view —
parcel and AGAS counters plus mirrored thread counters — all addressed with
first-class ``locality#N`` prefixes, so ``locality#*`` wildcard queries
aggregate across the system (``CounterRegistry.total`` / ``per_locality``).
:class:`DistRunResult` reads every number it reports from those counters.

Opt-in layers — crash recovery, tail tolerance, the credit/breaker gate —
hook in through :mod:`repro.layer`: the runtime, each parcelport and each
executor hold a ``layers`` tuple and call a hook only on the layers
overriding it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Sequence

from repro.counters.registry import CounterRegistry
from repro.dist.agas import AgasCache, AgasParams, AgasService, GlobalId
from repro.dist.network import NetworkModel
from repro.dist.parcel import Parcel, Parcelport
from repro.dist.result import DistRunResult
from repro.faults.errors import (
    LocalityCrashError,
    ParcelLostError,
    WatchdogTimeout,
)
from repro.faults.plan import FaultInjector, FaultPlan
from repro.faults.transport import RetryParams
from repro.layer import Layer, implementers
from repro.overload.config import OverloadConfig
from repro.overload.gate import SendGate
from repro.recovery.config import RecoveryConfig
from repro.recovery.manager import RecoveryManager
from repro.runtime.future import Future
from repro.runtime.runtime import Runtime, RuntimeConfig
from repro.runtime.sim_executor import DeadlockError
from repro.runtime.task import Priority
from repro.runtime.work import WorkDescriptor
from repro.schedulers.base import SchedulingPolicy
from repro.sim.engine import Simulator
from repro.sim.platforms import PlatformSpec, get_platform
from repro.tail.config import TailConfig
from repro.tail.manager import TailManager


@dataclass(frozen=True)
class DistConfig:
    """Configuration of one distributed launch.

    ``seed`` seeds locality 0's cost model directly (so a 1-locality run is
    bit-identical to a single-node run with the same seed); further
    localities derive distinct streams from it.
    """

    num_localities: int = 2
    platform: str | PlatformSpec = "haswell"
    cores_per_locality: int = 8
    scheduler: str | SchedulingPolicy = "priority-local"
    seed: int = 0
    #: the transport model; None means the default commodity interconnect
    network: NetworkModel | None = None
    #: per-task management overhead grows with the locality count: every
    #: thread created in a distributed run additionally touches AGAS credit
    #: tracking and distributed termination detection (Wu et al. measure
    #: HPX's per-task cost rising from sub-µs shared-memory figures into
    #: the µs range across nodes — PAPERS.md).  Each locality's
    #: ``task_overhead_ns`` is scaled by
    #: ``1 + frac * log2(num_localities)`` — exactly 1 for one locality, so
    #: single-node equivalence is untouched; the default reaches 5.5× at
    #: 8 localities (Haswell: 0.8 µs → 4.4 µs per task).
    dist_task_overhead_frac: float = 1.5
    #: what goes wrong during the run; ``None`` (or an inactive plan, e.g.
    #: ``FaultPlan.none()``) leaves the wire exactly as reliable — and the
    #: event schedule exactly as bit-identical — as before this layer existed
    faults: FaultPlan | None = None
    #: ack/timeout/retransmit protocol; ``None`` is the legacy fire-and-
    #: forget transport (fine on a perfect wire, starvation under drops)
    retry: RetryParams | None = None
    #: what to do when a parcel exhausts its retry budget: ``"none"`` fails
    #: the consuming proxy with :class:`ParcelLostError`; ``"reexecute"``
    #: re-runs the producing task (the caller supplies its cost via
    #: ``remote_value(recovery_work=...)``) and ships a fresh parcel
    recovery: str = "none"
    #: re-executions allowed per proxy before giving up
    max_recoveries: int = 3
    #: watchdog deadline for :meth:`DistRuntime.run`/``wait`` (ns of
    #: virtual time); ``None`` disables the watchdog
    watchdog_ns: int | None = None
    #: opt-in overload control (:mod:`repro.overload`): ``admission``
    #: bounds every locality's scheduler queues, ``credits`` installs
    #: per-destination sender windows on the parcelports, ``breaker``
    #: installs per-link circuit breakers.  ``None`` (the default) is
    #: bit-identical to pre-overload behaviour.
    overload: OverloadConfig | None = None
    #: bound of each parcelport's dead-letter ring; the oldest letter is
    #: evicted (and counted) once full
    dead_letter_capacity: int = 1024
    #: opt-in locality-crash survival (:mod:`repro.recovery`): heartbeat
    #: failure detection, periodic checkpoints of completed task results to
    #: survivor replicas, and lineage-based re-execution of lost work.
    #: ``None`` (the default) is bit-identical to pre-recovery behaviour —
    #: a crash then remains terminal, diagnosed by :meth:`DistRuntime.wait`.
    #: Orthogonal to ``recovery=`` above, which re-executes a *producer*
    #: after parcel loss on an otherwise healthy locality.
    crash_recovery: RecoveryConfig | None = None
    #: opt-in gray-failure tolerance (:mod:`repro.tail`): quantile-based
    #: degraded detection, hedged parcels, speculative re-execution of a
    #: degraded locality's tasks, and epoch fencing of declared localities.
    #: ``None`` (the default) is bit-identical to pre-tail behaviour.
    #: Layered on top of ``crash_recovery`` (the detector reads its
    #: heartbeats and speculation replays its lineage) and ``retry`` (acks
    #: are what hedge timers race against), so both are required.
    tail: TailConfig | None = None

    def __post_init__(self) -> None:
        if self.num_localities < 1:
            raise ValueError(
                f"num_localities must be >= 1, got {self.num_localities}"
            )
        if self.cores_per_locality < 1:
            raise ValueError(
                f"cores_per_locality must be >= 1, got {self.cores_per_locality}"
            )
        if self.dist_task_overhead_frac < 0:
            raise ValueError(
                "dist_task_overhead_frac must be >= 0, got "
                f"{self.dist_task_overhead_frac}"
            )
        if self.recovery not in ("none", "reexecute"):
            raise ValueError(
                f"recovery must be 'none' or 'reexecute', got {self.recovery!r}"
            )
        if self.max_recoveries < 0:
            raise ValueError("max_recoveries must be >= 0")
        if self.watchdog_ns is not None and self.watchdog_ns <= 0:
            raise ValueError("watchdog_ns must be positive (or None)")
        if self.recovery == "reexecute" and self.retry is None:
            raise ValueError(
                "recovery='reexecute' needs the reliable transport: pass "
                "retry=RetryParams(...) so loss is detectable"
            )
        if self.dead_letter_capacity < 1:
            raise ValueError("dead_letter_capacity must be >= 1")
        if self.crash_recovery is not None and self.num_localities < 2:
            raise ValueError(
                "crash_recovery needs at least 2 localities: a lone "
                "locality has no survivor to replicate checkpoints onto"
            )
        if self.tail is not None and self.crash_recovery is None:
            raise ValueError(
                "tail tolerance rides the crash-recovery layer: pass "
                "crash_recovery=RecoveryConfig(...) — its heartbeats feed "
                "the gray detector and its lineage feeds speculation"
            )
        if self.tail is not None and self.retry is None:
            raise ValueError(
                "tail tolerance requires the reliable transport: pass "
                "retry=RetryParams(...) — hedge timers race against acks "
                "and hedge copies are settled by the dedup ledger"
            )
        if (
            self.overload is not None
            and (self.overload.credits is not None
                 or self.overload.breaker is not None)
            and self.retry is None
        ):
            raise ValueError(
                "credit flow control and circuit breakers require the "
                "reliable transport: pass retry=RetryParams(...) — acks are "
                "what return credits and detect link failures"
            )
        if self.faults is not None:
            n = self.num_localities
            plan = self.faults
            for what, index in (
                *(("straggler locality", s.locality) for s in plan.stragglers),
                *(("crash locality", c.locality) for c in plan.crashes),
                *(("degraded link endpoint", end)
                  for d in plan.degradations for end in (d.src, d.dst)
                  if end is not None),
            ):
                if index >= n:
                    raise ValueError(
                        f"{what} {index} outside this {n}-locality runtime"
                    )

    def resolve_platform(self) -> PlatformSpec:
        """The per-locality platform, distributed overhead applied."""
        spec = (
            self.platform
            if isinstance(self.platform, PlatformSpec)
            else get_platform(self.platform)
        )
        factor = 1.0 + self.dist_task_overhead_frac * math.log2(
            self.num_localities
        )
        if factor == 1.0:
            return spec
        return replace(
            spec,
            costs=replace(
                spec.costs,
                task_overhead_ns=spec.costs.task_overhead_ns * factor,
            ),
        )


@dataclass(eq=False)
class Locality:
    """One simulated node: a Runtime plus its parcelport and AGAS cache."""

    index: int
    runtime: Runtime
    parcelport: Parcelport
    agas: AgasCache
    #: set when this locality fail-stops (see FaultPlan.crashes)
    crashed: bool = False


class DistRuntime:
    """A single-launch multi-locality runtime over one simulated clock."""

    def __init__(self, config: DistConfig | None = None, **kwargs: Any) -> None:
        if config is None:
            config = DistConfig(**kwargs)
        elif kwargs:
            raise TypeError("pass either a DistConfig or keyword arguments")
        self.config = config
        self.simulator = Simulator()
        self.network = (
            config.network if config.network is not None else NetworkModel()
        )
        self.agas = AgasService()
        #: the distributed (cross-locality) counter registry
        self.registry = CounterRegistry()
        self._finish_ns: int | None = None
        spec = config.resolve_platform()
        #: the fault layer; None whenever the plan cannot perturb the run,
        #: so FaultPlan.none() takes the exact legacy code path
        self.injector: FaultInjector | None = None
        if config.faults is not None and config.faults.is_active:
            self.injector = FaultInjector(config.faults)
        #: parcel ids are per-runtime (reset-safe): every port draws from
        #: this one counter, so ids are unique across the system but two
        #: independent DistRuntimes never share an id sequence
        self._parcel_ids = itertools.count(1)

        self.localities: list[Locality] = []
        for i in range(config.num_localities):
            loc_spec = spec
            if self.injector is not None:
                factor = self.injector.straggler_factor(i)
                if factor != 1.0:
                    # A straggler's every task computes and manages slower.
                    loc_spec = replace(
                        spec,
                        costs=replace(
                            spec.costs,
                            per_point_ns=spec.costs.per_point_ns * factor,
                            task_overhead_ns=(
                                spec.costs.task_overhead_ns * factor
                            ),
                        ),
                    )
            runtime = Runtime(
                RuntimeConfig(
                    platform=loc_spec,
                    num_cores=config.cores_per_locality,
                    scheduler=config.scheduler,
                    # Distinct, deterministic jitter stream per locality;
                    # locality 0 keeps the caller's seed so a 1-locality
                    # run reproduces the single-node runtime exactly.
                    seed=config.seed + 0x9E3779B1 * i,
                    # Admission control applies per locality (each has its
                    # own scheduler); credits/breaker belong to the port.
                    overload=config.overload,
                ),
                simulator=self.simulator,
            )
            port = Parcelport(
                i,
                self.simulator,
                self.network,
                self.registry,
                id_source=self._parcel_ids,
                injector=self.injector,
                retry=config.retry,
                seed=config.seed,
                dead_letter_capacity=config.dead_letter_capacity,
            )
            cache = AgasCache(self.agas, i, self.registry, AgasParams())
            self.localities.append(Locality(i, runtime, port, cache))
            self._mirror_thread_counters(i, runtime)
        ports = {loc.index: loc.parcelport for loc in self.localities}
        for loc in self.localities:
            loc.parcelport.connect(ports)

        self.platform = self.localities[0].runtime.platform
        #: future_id -> owning locality, for every future this facade issued
        self._owner: dict[int, int] = {}
        #: (future_id, destination, transform) -> proxy future.  The
        #: transform participates by identity; keying the callable itself
        #: (not ``id()``) keeps it alive, so a recycled address can never
        #: alias two different transforms.
        self._proxies: dict[
            tuple[int, int, Callable[[Any], Any] | None], Future
        ] = {}
        #: proxy key -> producer re-executions already spent on it
        self._recoveries: dict[
            tuple[int, int, Callable[[Any], Any] | None], int
        ] = {}
        self._build_layers()
        self._spawn_layers = implementers(self.layers, "on_spawn")
        self._ship_layers = implementers(self.layers, "on_ship")
        self._crash_owners = implementers(self.layers, "owns_crash")
        self._ran = False
        self._result: DistRunResult | None = None

    def _build_layers(self) -> None:
        """Build the opt-in layers, register their counters and hand them
        to every executor and parcelport; with every layer off ``layers`` is
        empty and no hook ever runs."""
        config = self.config
        layers: list[Layer] = []
        self.recovery_manager: RecoveryManager | None = None
        self.tail_manager: TailManager | None = None
        if config.crash_recovery is not None:
            self.recovery_manager = RecoveryManager(self, config.crash_recovery)
            layers.append(self.recovery_manager)
        if config.tail is not None:
            self.tail_manager = TailManager(
                self, config.tail, self.recovery_manager
            )
            layers.append(self.tail_manager)
        #: runtime-wide layers, in hook order
        self.layers: tuple[Layer, ...] = tuple(layers)
        for layer in self.layers:
            layer.register_counters(self.registry)
        overload = config.overload
        gated = overload is not None and (
            overload.credits is not None or overload.breaker is not None
        )
        for loc in self.localities:
            loc.runtime.executor.layers += self.layers
            port = loc.parcelport
            if gated:
                gate = SendGate(
                    port,
                    credits=overload.credits,
                    breaker=overload.breaker,
                    seed=config.seed,
                )
                gate.register_counters(self.registry)
                port.layers = (*self.layers, gate)
            else:
                port.layers = self.layers

    def _mirror_thread_counters(self, index: int, runtime: Runtime) -> None:
        """Re-export a locality's key thread counters at ``locality#N``.

        Each locality's own registry addresses itself as ``locality#0``;
        the distributed registry presents the true topology so wildcard
        aggregation and per-locality discovery work across the system.
        """
        executor = runtime.executor
        prefix = f"/threads{{locality#{index}/total}}"

        def exec_ns() -> float:
            return float(sum(w.exec_ns for w in executor.workers))

        def mgmt_ns() -> float:
            return float(sum(w.mgmt_ns for w in executor.workers))

        def tasks() -> float:
            return float(sum(w.tasks_executed for w in executor.workers))

        def wall_ns() -> float:
            end = (
                self._finish_ns
                if self._finish_ns is not None
                else self.simulator.now
            )
            return float(len(executor.workers) * end)

        def idle_rate() -> float:
            budget = wall_ns()
            return (budget - exec_ns()) / budget if budget > 0 else 0.0

        reg = self.registry
        reg.derived(f"{prefix}/time/cumulative", exec_ns,
                    "per-locality task execution time (ns)")
        reg.derived(f"{prefix}/time/cumulative-overhead", mgmt_ns,
                    "per-locality task management time (ns)")
        reg.derived(f"{prefix}/count/cumulative", tasks,
                    "per-locality tasks executed")
        reg.derived(f"{prefix}/idle-rate", idle_rate,
                    "per-locality Eq. 1 against the global wall clock")
        policy = runtime.policy
        for w in executor.workers:
            reg.value(
                f"/threads{{locality#{index}/worker-thread#{w.index}}}"
                "/count/queue-depth@gauge",
                "staged+pending tasks homed on this worker",
                source=(lambda p, i: lambda: float(p.worker_queue_depth(i)))(
                    policy, w.index
                ),
            )

    # -- placement bookkeeping ---------------------------------------------

    def locality(self, index: int) -> Locality:
        return self.localities[index]

    @property
    def num_localities(self) -> int:
        return self.config.num_localities

    def register_gid(self, locality: int, name: str = "") -> GlobalId:
        """Mint an AGAS gid homed on ``locality`` for a long-lived object."""
        if not 0 <= locality < self.num_localities:
            raise ValueError(f"locality {locality} outside this runtime")
        return self.agas.register(locality, name)

    def make_ready_future(
        self, value: Any, *, locality: int = 0, name: str = ""
    ) -> Future:
        """A ready future owned by ``locality`` (initial data placement)."""
        f = Future(name)
        f.set_value(value)
        self._owner[f.future_id] = locality
        for layer in self._spawn_layers:
            layer.on_spawn("root", f)
        return f

    # -- work submission ----------------------------------------------------

    def async_(
        self,
        fn: Callable[..., Any],
        *args: Any,
        locality: int = 0,
        work: WorkDescriptor | None = None,
        name: str = "",
        priority: Priority = Priority.NORMAL,
        qos: Any | None = None,
    ) -> Future:
        """``hpx::async`` with explicit locality placement."""
        loc = self.localities[locality]
        f = loc.runtime.async_(
            fn, *args, work=work, name=name, priority=priority, qos=qos
        )
        self._owner[f.future_id] = locality
        for layer in self._spawn_layers:
            layer.on_spawn(
                "async", f, fn=fn, args=args, work=work, name=name,
                priority=priority, qos=qos,
            )
        return f

    def dataflow(
        self,
        fn: Callable[..., Any],
        dependencies: Sequence[Future],
        *,
        locality: int = 0,
        work: WorkDescriptor | None = None,
        name: str = "",
        priority: Priority = Priority.NORMAL,
        qos: Any | None = None,
    ) -> Future:
        """``hpx::dataflow`` on ``locality``; remote deps become parcels.

        Dependencies owned by another locality are replaced with proxy
        futures fed by the parcelport (whole-value payloads sized by the
        network's ``default_payload_bytes``).  Workloads that know their
        communication pattern should build the proxies themselves with
        :meth:`remote_value` to control payload size, AGAS keys and
        sender-side projection — as the distributed stencil does for its
        halo exchange.
        """
        deps = [self._localize(d, locality) for d in dependencies]
        loc = self.localities[locality]
        f = loc.runtime.dataflow(
            fn, deps, work=work, name=name, priority=priority, qos=qos
        )
        self._owner[f.future_id] = locality
        for layer in self._spawn_layers:
            # Lineage records the *caller's* dependencies: re-execution
            # re-localizes them against the post-crash owner map, so a dep
            # that died with its locality is rewired to its replacement.
            layer.on_spawn(
                "dataflow", f, fn=fn, deps=tuple(dependencies), work=work,
                name=name, priority=priority, qos=qos,
            )
        return f

    def _localize(self, dep: Future, destination: int) -> Future:
        owner = self._owner.get(dep.future_id)
        if owner is None or owner == destination:
            return dep
        return self.remote_value(dep, destination)

    def remote_value(
        self,
        future: Future,
        destination: int,
        *,
        payload_bytes: int | None = None,
        transform: Callable[[Any], Any] | None = None,
        gid: GlobalId | None = None,
        name: str = "",
        recovery_work: WorkDescriptor | None = None,
    ) -> Future:
        """A proxy on ``destination`` for a future owned elsewhere.

        When the source future becomes ready, its owning locality resolves
        ``gid`` through its AGAS cache (when given), serializes
        ``transform(value)`` (default: the value itself) into a parcel of
        ``payload_bytes``, and ships it; parcel delivery satisfies the
        returned proxy.  An exceptional source propagates its exception
        through the parcel, as a real remote action would.

        Proxies are deduplicated per (source future, destination,
        transform): several consumers on one locality share one parcel.
        Distinct ``transform`` callables produce distinct parcels even for
        the same source — a two-partition ring ships both edges of the same
        neighbour — so pass a stable function (not a fresh lambda per call)
        when sharing is intended.

        Under ``recovery="reexecute"``, ``recovery_work`` is the virtual
        cost of re-running the producing task when this proxy's parcel
        exhausts its retry budget (default: a bookkeeping-only task).  The
        re-executed producer ships a *fresh* parcel; if every recovery
        fails too, the proxy carries :class:`ParcelLostError`.
        """
        owner = self._owner.get(future.future_id)
        if owner is None:
            raise ValueError(
                f"future {future.name!r} has no owning locality; only "
                "futures issued by this DistRuntime can be shipped"
            )
        if owner == destination:
            return future
        key = (future.future_id, destination, transform)
        proxy = self._proxies.get(key)
        if proxy is not None:
            return proxy
        proxy = Future(name or f"{future.name}@loc{destination}")
        # Keep the analyzer's graph connected across the network hop.
        proxy.dependencies = (future,)
        self._owner[proxy.future_id] = destination
        self._proxies[key] = proxy

        def current_source() -> Locality:
            # Resolved at ship time, not at proxy creation: crash recovery
            # re-homes a dead locality's futures, and a re-shipped (or
            # late-satisfied) value must depart from its *new* home.
            # Without recovery the owner never changes, so this is the
            # same locality the legacy code captured.
            return self.localities[self._owner[future.future_id]]

        def deliver(parcel: Parcel) -> None:
            # Idempotent: a straggling duplicate delivered after a recovery
            # (or vice versa) must not double-set the proxy.
            if not proxy.is_ready:
                proxy.set_value(parcel.payload)

        def on_lost(parcel: Parcel, attempts: int) -> None:
            self._parcel_lost(
                proxy,
                key,
                parcel,
                attempts,
                source=current_source(),
                destination=destination,
                src_future=future,
                payload_bytes=payload_bytes,
                transform=transform,
                gid=gid,
                recovery_work=recovery_work,
            )

        def ship(ready: Future) -> None:
            source = current_source()
            for layer in self._ship_layers:
                if layer.on_ship(source.index, destination):
                    return
            if source.index == destination:
                # Only reachable under crash recovery: the producer was
                # re-homed onto the consumer's own locality, so the value
                # is local now and no parcel is needed.
                if proxy.is_ready:
                    return
                if ready.has_exception:
                    proxy.set_exception(ready.exception)
                else:
                    proxy.set_value(
                        ready.value
                        if transform is None
                        else transform(ready.value)
                    )
                return
            resolve_ns = 0
            if gid is not None:
                _, resolve_ns = source.agas.resolve(gid)
            if ready.has_exception:

                def deliver_error(parcel: Parcel) -> None:
                    if not proxy.is_ready:
                        proxy.set_exception(parcel.payload)

                def error_lost(parcel: Parcel, attempts: int) -> None:
                    # The payload *is* the error; losing the parcel must not
                    # lose the error, so it reaches the consumer directly.
                    if not proxy.is_ready:
                        proxy.set_exception(ready.exception)

                source.parcelport.send(
                    destination,
                    ready.exception,
                    payload_bytes,
                    deliver_error,
                    resolve_ns=resolve_ns,
                    is_error=True,
                    on_lost=error_lost,
                )
                return
            value = ready.value if transform is None else transform(ready.value)
            source.parcelport.send(
                destination, value, payload_bytes, deliver,
                resolve_ns=resolve_ns, on_lost=on_lost,
            )

        for layer in self._spawn_layers:
            layer.on_spawn(
                "proxy", proxy, src=future, payload_bytes=payload_bytes,
                transform=transform, gid=gid, recovery_work=recovery_work,
                name=proxy.name, key=key, ship=ship,
            )
        future.on_ready(ship)
        return proxy

    def _owned_crash(self, *indices: int) -> bool:
        """Is one of these localities crashed, with a layer recovering it?"""
        return any(
            self.localities[i].crashed and layer.owns_crash(i)
            for i in indices
            for layer in self._crash_owners
        )

    def _parcel_lost(
        self,
        proxy: Future,
        key: tuple[int, int, Callable[[Any], Any] | None],
        parcel: Parcel,
        attempts: int,
        *,
        source: Locality,
        destination: int,
        src_future: Future,
        payload_bytes: int | None,
        transform: Callable[[Any], Any] | None,
        gid: GlobalId | None,
        recovery_work: WorkDescriptor | None,
    ) -> None:
        """A proxy's parcel exhausted its retry budget; recover or fail."""
        if proxy.is_ready:
            return
        if self._owned_crash(source.index, destination):
            # A layer recovering the crashed endpoint owns this loss; the
            # terminal "no recovery possible" path below would beat it.
            return
        dest = self.localities[destination]
        used = self._recoveries.get(key, 0)
        recoverable = (
            self.config.recovery == "reexecute"
            and used < self.config.max_recoveries
            and not source.crashed
            and not dest.crashed
        )
        if not recoverable:
            if source.crashed or dest.crashed:
                which = source.index if source.crashed else destination
                detail = f"locality {which} crashed; no recovery possible"
            elif self.config.recovery == "reexecute":
                detail = (
                    f"recovery budget exhausted "
                    f"({self.config.max_recoveries} re-execution(s) spent)"
                )
            else:
                detail = "retry budget exhausted and recovery is disabled"
            proxy.set_exception(
                ParcelLostError(
                    parcel.parcel_id,
                    parcel.source,
                    parcel.destination,
                    attempts,
                    detail=detail,
                )
            )
            return
        self._recoveries[key] = used + 1
        lost_at_ns = self.simulator.now

        def reship(_redone: Future) -> None:
            if proxy.is_ready or source.crashed or dest.crashed:
                return
            resolve_ns = 0
            if gid is not None:
                _, resolve_ns = source.agas.resolve(gid)
            value = (
                src_future.value
                if transform is None
                else transform(src_future.value)
            )

            def deliver_recovered(p: Parcel) -> None:
                if proxy.is_ready:
                    return
                source.parcelport.book_recovery(self.simulator.now - lost_at_ns)
                proxy.set_value(p.payload)

            def lost_again(p: Parcel, att: int) -> None:
                self._parcel_lost(
                    proxy, key, p, att,
                    source=source, destination=destination,
                    src_future=src_future, payload_bytes=payload_bytes,
                    transform=transform, gid=gid,
                    recovery_work=recovery_work,
                )

            source.parcelport.send(
                destination, value, payload_bytes, deliver_recovered,
                resolve_ns=resolve_ns, on_lost=lost_again,
            )

        # Re-execute the producer on its home locality (charging the
        # caller-declared task cost), then ship a fresh parcel.
        redo = source.runtime.async_(
            lambda: None,
            work=recovery_work,
            name=f"recover:{proxy.name}",
        )
        redo.on_ready(reship)

    # -- driving -------------------------------------------------------------

    def _crash(self, loc: Locality) -> None:
        """Fail-stop ``loc`` now: no more tasks, no more parcels."""
        loc.crashed = True
        loc.runtime.executor.halt()
        loc.parcelport.halt()

    def _diagnose(self) -> str:
        """Name what is (or was) holding the run up, per locality."""
        parts: list[str] = []
        for loc in self.localities:
            bits: list[str] = []
            if loc.crashed:
                bits.append("crashed")
            outstanding = loc.runtime.executor.outstanding_tasks
            if outstanding:
                bits.append(f"{outstanding} task(s) outstanding")
            awaiting = loc.parcelport.awaiting_ack
            if awaiting:
                parcel, attempt = max(awaiting, key=lambda pa: pa[1])
                bits.append(
                    f"{len(awaiting)} parcel(s) awaiting ack (e.g. parcel "
                    f"#{parcel.parcel_id} on {parcel.link}, "
                    f"transmission {attempt + 1})"
                )
            dead = loc.parcelport.dead_letters
            if dead:
                parcel = dead[0]
                dropped = loc.parcelport.dead_letters_dropped
                more = f" (+{dropped} evicted from the ring)" if dropped else ""
                bits.append(
                    f"{len(dead)} parcel(s) lost in transit (e.g. parcel "
                    f"#{parcel.parcel_id} on {parcel.link}){more}"
                )
            parked = loc.parcelport.waiting_sends
            if parked:
                bits.append(
                    f"{parked} send(s) parked behind a credit/breaker gate"
                )
            if bits:
                parts.append(f"locality {loc.index}: " + ", ".join(bits))
        for layer in implementers(self.layers, "diagnose"):
            parts.extend(layer.diagnose())
        # Name the dependency cones that died with a crashed locality: a
        # pending proxy whose transitive producer crashed can never become
        # ready, and that (not the transport) is what starves its consumer.
        # A cone behind a crash some layer recovers is being re-executed,
        # not dead.
        doomed: dict[int, list[str]] = {}
        for proxy in self._proxies.values():
            if proxy.is_ready:
                continue
            crashed = self._crashed_dependency(proxy)
            if crashed is not None and not self._owned_crash(crashed):
                doomed.setdefault(crashed, []).append(proxy.name)
        for crashed in sorted(doomed):
            names = doomed[crashed]
            parts.append(
                f"{len(names)} pending future(s) depend on crashed locality "
                f"{crashed} and can never become ready (e.g. {names[0]!r})"
            )
        return "; ".join(parts) if parts else "no locality reports pending work"

    def run(self) -> DistRunResult:
        """Drive all localities until every task everywhere has terminated.

        ``DistConfig.watchdog_ns`` bounds the run in *virtual* time: if the
        deadline passes with work still pending, the run stops with a
        :class:`WatchdogTimeout` whose message names the stuck localities
        and unacknowledged parcels instead of hanging silently.
        """
        if self._ran:
            raise RuntimeError(
                "DistRuntime instances are single-use; build a new one"
            )
        self._ran = True
        watchdog_ns = self.config.watchdog_ns
        if self.injector is not None:
            for loc in self.localities:
                at = self.injector.crash_time(loc.index)
                if at is not None:
                    self.simulator.schedule_at(
                        at, (lambda l: lambda: self._crash(l))(loc)
                    )
        for loc in self.localities:
            loc.runtime.executor.start_workers()
        for layer in implementers(self.layers, "on_start"):
            layer.on_start()
        if watchdog_ns is not None:
            self.simulator.run_until(watchdog_ns)
            unfinished = self.simulator.pending_events() > 0 or any(
                not loc.crashed and loc.runtime.executor.outstanding_tasks > 0
                for loc in self.localities
            )
            if unfinished:
                raise WatchdogTimeout(watchdog_ns, self._diagnose())
        else:
            self.simulator.run()
        stuck = [
            loc.index
            for loc in self.localities
            # A crashed locality's tasks are lost, not stuck: nothing is
            # waiting to run them, so they are not a deadlock.
            if not loc.crashed and loc.runtime.executor.outstanding_tasks > 0
        ]
        if stuck:
            self._raise_if_lost_in_transit(
                lambda n: f"{n} parcel(s) lost in transit left localities "
                f"{stuck} starved (unreliable transport; enable "
                "retry=RetryParams(...) to retransmit)"
            )
            detail = ", ".join(
                f"locality {i}: "
                f"{self.localities[i].runtime.executor.outstanding_tasks} "
                "task(s)"
                for i in stuck
            )
            raise DeadlockError(
                f"tasks outstanding with an empty event queue ({detail}) — "
                "suspended on futures (or parcels) nobody satisfies?"
            )
        finish = max(
            [
                loc.runtime.executor.finish_ns or 0
                for loc in self.localities
            ]
            + [0]
        )
        self._finish_ns = finish
        for loc in self.localities:
            # Align every locality on the global wall clock so idle-rates
            # charge end-of-run skew as idleness (HPX: the runtime does not
            # shut down until every locality reaches the barrier).
            loc.runtime.executor.finish_ns = finish

        result = DistRunResult(
            execution_time_ns=finish,
            counters=self.registry.snapshot(finish),
            per_locality=tuple(
                loc.runtime.registry.snapshot(finish) for loc in self.localities
            ),
            platform_name=self.platform.name,
            num_localities=self.num_localities,
            cores_per_locality=self.config.cores_per_locality,
            tasks_executed=sum(
                loc.runtime.executor.total_spawned for loc in self.localities
            ),
            crashed_localities=tuple(
                loc.index for loc in self.localities if loc.crashed
            ),
        )
        self._result = result
        return result

    def _raise_if_lost_in_transit(self, detail: Callable[[int], str]) -> None:
        """Raise :class:`ParcelLostError` naming the first dead letter, if
        any port holds one; ``detail`` words it from the dead count."""
        dead = [p for loc in self.localities for p in loc.parcelport.dead_letters]
        if dead:
            first = dead[0]
            raise ParcelLostError(
                first.parcel_id, first.source, first.destination, 1,
                detail=detail(len(dead)),
            )

    def _crashed_dependency(self, future: Future) -> int | None:
        """The crashed locality a pending future transitively depends on."""
        seen: set[int] = set()
        stack = [future]
        while stack:
            f = stack.pop()
            if f.future_id in seen or f.is_ready:
                continue
            seen.add(f.future_id)
            owner = self._owner.get(f.future_id)
            if owner is not None and self.localities[owner].crashed:
                return owner
            stack.extend(f.dependencies)
        return None

    def wait(self, futures: Sequence[Future] = ()) -> DistRunResult:
        """Run (if not yet run) and demand that ``futures`` were satisfied.

        The blocking ``.get()`` of this runtime: any future that carries an
        exception re-raises it here (a proxy whose parcel was lost raises
        :class:`ParcelLostError`); a future still pending because its
        producer's locality crashed raises :class:`LocalityCrashError`
        naming that locality.  Never hangs: a genuinely stuck run already
        surfaced as :class:`WatchdogTimeout`,
        :class:`~repro.runtime.sim_executor.DeadlockError` or
        :class:`ParcelLostError` from :meth:`run`.
        """
        result = self.run() if not self._ran else self._result
        if result is None:
            raise RuntimeError("the run failed before producing a result")
        for f in futures:
            if f.has_exception:
                f.value  # noqa: B018 - re-raises the stored exception
            if not f.is_ready:
                crashed = self._crashed_dependency(f)
                if crashed is not None:
                    raise LocalityCrashError(
                        crashed,
                        detail=(
                            f"future {f.name!r} depends on work that died "
                            "with it and can never become ready"
                        ),
                    )
                self._raise_if_lost_in_transit(
                    lambda n: f"future {f.name!r} starved; {n} parcel(s) "
                    "lost on the unreliable transport (enable "
                    "retry=RetryParams(...) to retransmit)"
                )
                raise DeadlockError(
                    f"future {f.name!r} is still pending after the run "
                    "completed — it was never connected to any task"
                )
        return result
