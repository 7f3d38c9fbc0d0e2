"""Crash recovery: heartbeat detection, checkpoint/restart, lineage replay.

``repro.recovery`` is what turns a ``CrashAt`` fault from a terminal
diagnosis ("these dependency cones can never become ready") into a survived
event.  One :class:`RecoveryManager` per :class:`repro.dist.DistRuntime`
(created only when ``DistConfig.crash_recovery`` is set — ``None`` leaves
the runtime bit-identical to the pre-recovery code) is a
:class:`repro.layer.Layer` fed every future's lineage by ``on_spawn``.
It runs three machines on the shared virtual clock:

**1. Heartbeat failure detection.**  Every locality emits a heartbeat to
every peer each ``HEARTBEAT_INTERVAL_NS`` (times its straggler factor, plus
seeded SplitMix64 jitter — role ``0x55`` in the :mod:`repro.faults.plan`
registry).  Heartbeats ride the modelled network: each arrival is delayed by
the same per-link transfer time — degradation windows included — that a
parcel would pay.  Each monitor keeps, per peer link, the largest
inter-arrival gap it has ever observed and suspects a peer only once its
silence exceeds ``suspicion_after x max_gap + interval``.  That per-link
adaptation is why a ``Straggler``-slowed locality (which emits late but
regularly) or a ``LinkDegradation``-delayed link is *not* declared dead.  A
peer is declared dead when a majority of the alive monitors suspect it; a
declared locality that is somehow still running is fenced (halted) so
fail-stop semantics hold.

**2. Checkpointing.**  Each locality persists, every
``checkpoint_interval_ns``, the results of tasks it completed since its
last durable checkpoint.  The write is a *visible* task on the locality's
own workers (``FixedWork(base + serialization(n x entry_bytes))`` through
the network cost model) followed by a replica transfer to the next alive
locality; entries become durable only when the replica *arrives*, so a
crash during a checkpoint write loses exactly that checkpoint's entries.
Root futures (initial data placement) are durable for free — initial data
is re-loadable by construction.

**3. Declaration and recovery.**  On declaration the manager, in order:
checks the crash budget (:class:`UnrecoverableCrashError` past it); makes
every survivor parcelport *abandon* traffic to the dead locality (in-flight
retransmit timers cancelled, parked sends dropped — fail fast instead of
burning retry budget); re-homes the dead locality's AGAS addresses to
survivors round-robin and invalidates survivor caches (the next resolve
pays a miss); re-homes the dead locality's futures and classifies each as
*restored* (ready and durable: its value comes back from the replicated
store, costed as one batch transfer) or *lost* (not durable: re-executed).
Lost tasks are re-spawned from their recorded lineage on survivor
localities in creation order — dependencies that died with the locality are
rewired to the replacement futures, so re-execution serializes exactly like
the original dataflow — and each replacement's value satisfies the original
future, releasing every consumer that was waiting on it.  Time-to-recover
decomposes exactly: ``detection + restore + re-execution == total``.

The run then completes with values bit-identical to a crash-free run —
checkpoint/restore moves *results*, never recomputes them differently —
which is what the figC experiment asserts end-to-end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.faults.errors import UnrecoverableCrashError
from repro.faults.plan import ROLE_HEARTBEAT, stream_u64
from repro.layer import Layer, implementers
from repro.recovery.config import (
    CHECKPOINT_BASE_NS,
    CHECKPOINT_ENTRY_BYTES,
    HEARTBEAT_BYTES,
    HEARTBEAT_INTERVAL_NS,
    HEARTBEAT_JITTER_NS,
    RecoveryConfig,
)
from repro.runtime.future import Future
from repro.runtime.work import FixedWork, WorkDescriptor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.counters.registry import CounterRegistry
    from repro.dist.runtime import DistRuntime


@dataclass(slots=True)
class _Lineage:
    """How to rebuild one future if its locality dies."""

    kind: str  # "root" | "async" | "dataflow" | "proxy"
    future: Future
    fn: Callable[..., Any] | None = None
    args: tuple = ()
    #: dataflow dependencies exactly as the caller passed them (pre-proxy)
    deps: tuple = ()
    work: WorkDescriptor | None = None
    name: str = ""
    priority: Any = None
    qos: Any = None
    #: -- proxy-only fields (how remote_value was parameterized) ------------
    src: Future | None = None
    payload_bytes: int | None = None
    transform: Callable[[Any], Any] | None = None
    gid: Any = None
    recovery_work: WorkDescriptor | None = None


@dataclass
class _CrashRecord:
    """Bookkeeping of one declared crash, for timing and diagnosis."""

    locality: int
    crashed_ns: int
    declared_ns: int
    restore_end_ns: int = 0
    finished_ns: int | None = None
    restored: int = 0
    lost: int = 0
    pending: int = 0
    #: replacement futures still outstanding, by original future id
    replacements: dict[int, Future] = field(default_factory=dict)


class RecoveryManager(Layer):
    """Failure detection + checkpoint/restart for one distributed run."""

    def __init__(self, dist: "DistRuntime", config: RecoveryConfig) -> None:
        self.dist = dist
        self.config = config
        self.sim = dist.simulator
        n = dist.config.num_localities
        self._n = n
        self._seed = dist.config.seed
        #: future_id -> rebuild recipe, in creation order (dict is ordered)
        self._lineage: dict[int, _Lineage] = {}
        #: proxy key -> (source future, ship closure), so a proxy fed by a
        #: declared-dead sender can be re-shipped from the value's new home
        self._shippers: dict[tuple, tuple[Future, Callable[[Future], None]]] = {}
        #: the other layers' heartbeat hooks (bound when the run starts)
        self._heartbeat_layers: tuple[Layer, ...] = ()
        # -- detector state --------------------------------------------------
        init_gap = HEARTBEAT_INTERVAL_NS + HEARTBEAT_JITTER_NS
        self._last_seen = [[0] * n for _ in range(n)]
        self._max_gap = [[init_gap] * n for _ in range(n)]
        self._suspected: list[set[int]] = [set() for _ in range(n)]
        self._declared: set[int] = set()
        self._hb_seq = [0] * n
        # -- checkpoint state ------------------------------------------------
        #: future ids whose values are replicated on a survivor
        self._durable: set[int] = set()
        #: future ids inside an in-flight checkpoint write/transfer
        self._pending_ckpt: set[int] = set()
        #: per-locality queue of completed-but-undurable future ids
        self._completed_undurable: list[list[int]] = [[] for _ in range(n)]
        self._queued: set[int] = set()
        self._ckpt_seq = [0] * n
        #: live checkpoint tasks per locality (excluded from quiescence)
        self._live_ckpt = [0] * n
        # -- recovery state --------------------------------------------------
        self._crashes: dict[int, _CrashRecord] = {}
        self._replacement: dict[int, Future] = {}
        # per-locality counter backing stores
        self._hb_sent = [0] * n
        self._ckpts = [0] * n
        self._ckpted = [0] * n
        self._restored_by = [0] * n
        self._reexec_by = [0] * n
        self._failed_fast_by = [0] * n
        self._internal_by = [0] * n
        self._t_detect = [0] * n
        self._t_restore = [0] * n
        self._t_reexec = [0] * n

    def _recovery_time(self, i: int) -> float:
        """Crash-to-recovered time of ``i``'s crash, from the crash record
        (not the phase stores, so PF408's decomposition is a real check)."""
        rec = self._crashes.get(i)
        if rec is None:
            return 0.0
        end = rec.finished_ns if rec.finished_ns is not None else self.sim.now
        return float(end - rec.crashed_ns)

    def register_counters(self, registry: "CounterRegistry") -> None:
        """Export the ``/recovery{locality#N/total}`` family.

        Registered only when crash recovery is enabled, so a disabled run's
        counter snapshot stays bit-identical to the pre-recovery runtime.
        """

        def per_loc(store: list[int], i: int) -> Callable[[], float]:
            return lambda: float(store[i])

        for i in range(self._n):
            prefix = f"/recovery{{locality#{i}/total}}"
            for path, source, description in (
                ("count/heartbeats-sent", per_loc(self._hb_sent, i),
                 "failure-detector heartbeats this locality emitted"),
                ("count/checkpoints", per_loc(self._ckpts, i),
                 "checkpoint writes this locality completed"),
                ("count/checkpointed", per_loc(self._ckpted, i),
                 "task results this locality made durable"),
                ("count/restored", per_loc(self._restored_by, i),
                 "lost-locality results restored onto this locality"),
                ("count/reexecuted", per_loc(self._reexec_by, i),
                 "lost tasks re-executed on this locality"),
                ("count/failed-fast", per_loc(self._failed_fast_by, i),
                 "sends to a declared-dead locality abandoned early"),
                ("time/detection", per_loc(self._t_detect, i),
                 "crash-to-declaration latency of this locality (ns)"),
                ("time/restore", per_loc(self._t_restore, i),
                 "checkpoint-restore time after this locality died (ns)"),
                ("time/reexecution", per_loc(self._t_reexec, i),
                 "lost-work re-execution time after this locality died (ns)"),
                ("time/total", lambda i=i: self._recovery_time(i),
                 "crash-to-recovered time after this locality died (ns)"),
                ("count/declared", lambda i=i: float(i in self._declared),
                 "1 once the detector declared this locality dead"),
                ("count/lost",
                 lambda i=i: float(
                     self._crashes[i].lost if i in self._crashes else 0
                 ),
                 "tasks this locality's declared crash lost"),
                ("count/internal-completions", per_loc(self._internal_by, i),
                 "recovery bookkeeping tasks this locality completed "
                 "(checkpoint writes, redundant re-executions)"),
            ):
                registry.derived(f"{prefix}/{path}", source, description)

    # -- lineage recording (the DistRuntime's on_spawn hook) ----------------

    def on_spawn(
        self,
        kind: str,
        future: Future,
        *,
        key: tuple | None = None,
        ship: Callable[[Future], None] | None = None,
        **lineage: Any,
    ) -> None:
        fid = future.future_id
        self._lineage[fid] = _Lineage(kind=kind, future=future, **lineage)
        if kind == "root":
            # Initial data placement: durable by construction, free.
            self._durable.add(fid)
            self._ckpted[self.dist._owner[fid]] += 1
        elif kind == "proxy":
            self._shippers[key] = (lineage["src"], ship)
        else:
            future.on_ready(self._note_completed)

    def _note_completed(self, future: Future) -> None:
        """Queue a completed task result for the owner's next checkpoint."""
        if future.has_exception:
            return
        fid = future.future_id
        if fid in self._durable or fid in self._pending_ckpt:
            return
        if fid in self._queued:
            return
        owner = self.dist._owner.get(fid)
        if owner is None:
            return
        self._queued.add(fid)
        self._completed_undurable[owner].append(fid)

    # -- liveness: the chains stop themselves once nothing needs them -------

    def _active(self) -> bool:
        """True while heartbeats/checkpoints still have a job to do.

        The chains re-arm only while there is either (a) a crashed locality
        not yet declared, (b) a recovery in progress, or (c) application
        work or parcels still in flight on an alive locality.  Once the run
        has quiesced the chains stop, the event heap drains, and the run
        finishes — a crash scheduled after that instant loses nothing.
        """
        for rec in self._crashes.values():
            if rec.finished_ns is None:
                return True
        for loc in self.dist.localities:
            i = loc.index
            if loc.crashed:
                if i not in self._declared:
                    return True
                continue
            if loc.runtime.executor.outstanding_tasks > self._live_ckpt[i]:
                return True
            port = loc.parcelport
            if port.in_flight or port.awaiting_ack or port.waiting_sends:
                return True
        return False

    def on_start(self) -> None:
        """Arm the heartbeat and checkpoint chains (DistRuntime.run)."""
        self._heartbeat_layers = implementers(self.dist.layers, "on_heartbeat")
        for i in range(self._n):
            self._schedule_heartbeat(i)
            self._schedule_checkpoint(i)
        self._schedule_sweep()

    # -- the heartbeat failure detector -------------------------------------

    def _heartbeat_period_ns(self, i: int) -> int:
        factor = 1.0
        if self.dist.injector is not None:
            factor = self.dist.injector.straggler_factor(i)
        seq = self._hb_seq[i]
        jitter = stream_u64(self._seed, ROLE_HEARTBEAT, i, seq) % (
            HEARTBEAT_JITTER_NS + 1
        )
        return int(HEARTBEAT_INTERVAL_NS * factor) + jitter

    def _schedule_heartbeat(self, i: int) -> None:
        self.sim.schedule(self._heartbeat_period_ns(i), lambda: self._emit(i))

    def _emit(self, i: int) -> None:
        loc = self.dist.localities[i]
        if loc.crashed or i in self._declared or not self._active():
            return
        self._hb_seq[i] += 1
        port = loc.parcelport
        for j in range(self._n):
            if j == i or j in self._declared:
                continue
            self._hb_sent[i] += 1
            delay = port.transfer_ns(j, HEARTBEAT_BYTES)
            self.sim.schedule(
                delay, lambda j=j, i=i: self._receive_heartbeat(j, i)
            )
        self._schedule_heartbeat(i)

    def _receive_heartbeat(self, monitor: int, peer: int) -> None:
        if self.dist.localities[monitor].crashed:
            return
        now = self.sim.now
        gap = now - self._last_seen[monitor][peer]
        # A gray detector reads the same heartbeat stream the crash quorum
        # does, but only ever *observes* it: no suspicion state is touched,
        # so "stragglers are not dead" is preserved.
        for layer in self._heartbeat_layers:
            layer.on_heartbeat(monitor, peer, gap)
        self._last_seen[monitor][peer] = now
        if gap > self._max_gap[monitor][peer]:
            self._max_gap[monitor][peer] = gap
        # Contact clears suspicion: a late-but-alive peer is un-suspected.
        self._suspected[monitor].discard(peer)

    def _schedule_sweep(self) -> None:
        self.sim.schedule(HEARTBEAT_INTERVAL_NS, self._sweep)

    def _sweep(self) -> None:
        if not self._active():
            return
        now = self.sim.now
        monitors = [
            loc.index
            for loc in self.dist.localities
            if not loc.crashed and loc.index not in self._declared
        ]
        for m in monitors:
            for p in range(self._n):
                if p == m or p in self._declared:
                    continue
                gap = now - self._last_seen[m][p]
                threshold = (
                    self.config.suspicion_after * self._max_gap[m][p]
                    + HEARTBEAT_INTERVAL_NS
                )
                if gap > threshold:
                    self._suspected[m].add(p)
        for p in range(self._n):
            if p in self._declared:
                continue
            voters = [m for m in monitors if m != p]
            if not voters:
                continue
            quorum = len(voters) // 2 + 1
            votes = sum(1 for m in voters if p in self._suspected[m])
            if votes >= quorum:
                self._declare(p)
        self._schedule_sweep()

    # -- checkpointing -------------------------------------------------------

    def _schedule_checkpoint(self, i: int) -> None:
        self.sim.schedule(
            self.config.checkpoint_interval_ns,
            lambda: self._checkpoint_tick(i),
        )

    def _checkpoint_tick(self, i: int) -> None:
        loc = self.dist.localities[i]
        if loc.crashed or i in self._declared or not self._active():
            return
        self._schedule_checkpoint(i)
        owner = self.dist._owner
        chosen: list[int] = []
        for fid in self._completed_undurable[i]:
            self._queued.discard(fid)
            if fid in self._durable or fid in self._pending_ckpt:
                continue
            if owner.get(fid) != i:
                continue
            chosen.append(fid)
        self._completed_undurable[i] = []
        self._pending_ckpt.update(chosen)
        payload = len(chosen) * CHECKPOINT_ENTRY_BYTES
        cost = CHECKPOINT_BASE_NS
        if chosen:
            cost += self.dist.network.serialization_ns(payload)
        seq = self._ckpt_seq[i]
        self._ckpt_seq[i] += 1
        self._live_ckpt[i] += 1
        # A *visible* task on the locality's own workers: checkpointing
        # competes with application work, which is exactly the overhead the
        # figC interval sweep measures.
        task = loc.runtime.async_(
            lambda: None, work=FixedWork(cost), name=f"ckpt:{i}#{seq}"
        )
        task.on_ready(
            lambda _f, i=i, chosen=tuple(chosen), payload=payload:
            self._checkpoint_written(i, chosen, payload)
        )

    def _checkpoint_written(
        self, i: int, chosen: tuple[int, ...], payload: int
    ) -> None:
        self._live_ckpt[i] -= 1
        self._internal_by[i] += 1
        self._ckpts[i] += 1
        if not chosen:
            return
        loc = self.dist.localities[i]
        partner = self._next_alive(i)
        if partner is None:
            return
        delay = loc.parcelport.transfer_ns(partner, payload)
        self.sim.schedule(
            delay, lambda: self._replica_arrived(i, chosen)
        )

    def _replica_arrived(self, i: int, chosen: tuple[int, ...]) -> None:
        """Entries become durable only here — a crash during the write or
        the transfer loses exactly this checkpoint's entries."""
        for fid in chosen:
            self._pending_ckpt.discard(fid)
            self._durable.add(fid)
        self._ckpted[i] += len(chosen)

    def _next_alive(self, i: int) -> int | None:
        for step in range(1, self._n):
            j = (i + step) % self._n
            loc = self.dist.localities[j]
            if not loc.crashed and j not in self._declared:
                return j
        return None

    # -- declaration and recovery -------------------------------------------

    def on_ship(self, source: int, destination: int) -> bool:
        if destination not in self._declared:
            return False
        # The consumer's locality is gone: burning a send (and its whole
        # retry budget) on it would be pure waste.
        self._failed_fast_by[source] += 1
        return True

    def owns_crash(self, locality: int) -> bool:
        # Once the detector declares the dead endpoint, its values are
        # re-shipped from their new home (or the send is abandoned): failing
        # the proxy would beat the recovery to it.
        return True

    def _declare(self, p: int) -> None:
        """A quorum of monitors gave up on ``p``: run the recovery plan."""
        if p in self._declared:
            return
        now = self.sim.now
        self._declared.add(p)
        dead = tuple(sorted(self._declared))
        if len(self._declared) > self.config.max_crashes:
            raise UnrecoverableCrashError(
                dead,
                detail=(
                    f"RecoveryConfig.max_crashes={self.config.max_crashes} "
                    "and no budget remains to re-home the lost work"
                ),
            )
        dist = self.dist
        loc = dist.localities[p]
        crash_at = None
        if dist.injector is not None:
            crash_at = dist.injector.crash_time(p)
        if not loc.crashed:
            # Fencing: a declared locality must be fail-stopped even if it
            # was merely wedged — survivors are about to take its work.
            dist._crash(loc)
        # The other layers hear of it next (a fence bumps p's epoch so
        # parcels it already has in flight are rejected on arrival).
        for layer in implementers(dist.layers, "on_declare"):
            layer.on_declare(p)
        crashed_ns = (
            crash_at if crash_at is not None and crash_at <= now else now
        )
        self._t_detect[p] += now - crashed_ns
        survivors = [
            l.index
            for l in dist.localities
            if not l.crashed and l.index not in self._declared
        ]
        if not survivors:
            raise UnrecoverableCrashError(
                dead, detail="no survivor localities remain"
            )
        # 1. Fail fast: stop burning retransmission budget on a dead link.
        for other in dist.localities:
            if other.index == p or other.crashed:
                continue
            abandoned = other.parcelport.abandon_destination(p)
            if abandoned:
                self._failed_fast_by[other.index] += abandoned
        # 2. AGAS: re-home the dead locality's addresses; survivors must
        # re-learn them (their next resolve pays a miss).
        moved = dist.agas.homed_on(p)
        for k, gid_int in enumerate(moved):
            dist.agas.rehome(gid_int, survivors[k % len(survivors)])
        for s in survivors:
            dist.localities[s].agas.invalidate_homed_on(p)
        # 3. Classify and re-home the dead locality's futures.
        record = _CrashRecord(
            locality=p, crashed_ns=crashed_ns, declared_ns=now
        )
        self._crashes[p] = record
        restored: list[int] = []
        lost: list[tuple[int, int]] = []
        rr = 0
        for fid, lin in self._lineage.items():
            if dist._owner.get(fid) != p or lin.kind == "proxy":
                continue
            home = survivors[rr % len(survivors)]
            rr += 1
            dist._owner[fid] = home
            if lin.future.is_ready and fid in self._durable:
                restored.append(fid)
                self._restored_by[home] += 1
            else:
                lost.append((fid, home))
        record.restored = len(restored)
        record.lost = len(lost)
        # 4. Restore: one batch transfer of the durable entries from the
        # replicated store to their new homes.
        restore_cost = 0
        if restored:
            payload = len(restored) * CHECKPOINT_ENTRY_BYTES
            restore_cost = dist.network.serialization_ns(payload)
            if len(survivors) > 1:
                restore_cost += dist.network.transfer_ns(
                    survivors[0], survivors[1], payload
                )
        self.sim.schedule(
            restore_cost, lambda: self._restore_done(record, restored, lost)
        )

    def _restore_done(
        self,
        record: _CrashRecord,
        restored: list[int],
        lost: list[tuple[int, int]],
    ) -> None:
        now = self.sim.now
        record.restore_end_ns = now
        p = record.locality
        self._t_restore[p] += now - record.declared_ns
        # Restored results may have consumers on survivors whose parcels
        # died with the sender: re-ship them from the value's new home.
        for fid in restored:
            self._reship_unready_proxies(fid)
        # 5. Re-execute lost work from lineage, in creation order, so every
        # replacement's dependencies (possibly replacements themselves)
        # already exist when it is spawned.
        record.pending = len(lost)
        if not lost:
            self._recovery_finished(record)
            return
        for fid, home in lost:
            self._spawn_replacement(record, fid, home)

    def _spawn_replacement(
        self, record: _CrashRecord, fid: int, home: int
    ) -> None:
        lin = self._lineage[fid]
        dist = self.dist
        name = f"redo:{lin.name or lin.future.name}"
        if lin.kind == "async":
            repl = dist.async_(
                lin.fn, *lin.args, locality=home, work=lin.work,
                name=name, priority=lin.priority, qos=lin.qos,
            )
        elif lin.kind == "dataflow":
            deps = [self._recovery_dep(d, home) for d in lin.deps]
            repl = dist.dataflow(
                lin.fn, deps, locality=home, work=lin.work,
                name=name, priority=lin.priority, qos=lin.qos,
            )
        else:  # pragma: no cover - roots are always durable
            raise AssertionError(f"unexpected lineage kind {lin.kind!r}")
        record.replacements[fid] = repl
        self._replacement[fid] = repl
        repl.on_ready(
            lambda r, record=record, fid=fid: self._replacement_ready(
                record, fid, r
            )
        )

    def _recovery_dep(self, dep: Future, home: int) -> Future:
        """Rewire one recorded dependency for re-execution on ``home``.

        A dependency that was itself lost is replaced by its replacement
        future (so re-execution serializes behind it, exactly like the
        original dataflow).  A proxy homed on the dead locality is rebuilt
        from its ultimate source with the recorded ``remote_value``
        parameters.  Anything else is used as-is.
        """
        fid = dep.future_id
        repl = self._replacement.get(fid)
        if repl is not None:
            return repl
        lin = self._lineage.get(fid)
        if (
            lin is not None
            and lin.kind == "proxy"
            and self.dist._owner.get(fid) in self._declared
        ):
            assert lin.src is not None
            src = self._replacement.get(lin.src.future_id, lin.src)
            return self.dist.remote_value(
                src,
                home,
                payload_bytes=lin.payload_bytes,
                transform=lin.transform,
                gid=lin.gid,
                name=f"redo:{lin.future.name}",
                recovery_work=lin.recovery_work,
            )
        return dep

    def _replacement_ready(
        self, record: _CrashRecord, fid: int, repl: Future
    ) -> None:
        original = self._lineage[fid].future
        home = self.dist._owner.get(repl.future_id, record.locality)
        self._reexec_by[home] += 1
        if original.is_ready:
            # The original completed before the crash but was not durable:
            # the replacement re-materialized a value that still exists in
            # this process, so its completion is bookkeeping, not progress —
            # but consumers whose parcels died with the sender still need
            # the value re-shipped from its new home.
            self._internal_by[home] += 1
            self._reship_unready_proxies(fid)
        else:
            # Satisfying the original fires its pending callbacks: dataflow
            # launches *and* the proxies' ship closures, which resolve the
            # source locality dynamically and so depart from the new home —
            # no explicit re-ship needed on this path.
            original.set_value(repl.value)
        record.pending -= 1
        if record.pending == 0:
            self._recovery_finished(record)

    def _reship_unready_proxies(self, fid: int) -> None:
        """Re-send ``fid``'s value to consumers whose parcel was lost.

        The stored ship closure resolves the source locality when it runs,
        so the fresh parcel departs from the value's post-recovery home.
        """
        for key, proxy in self.dist._proxies.items():
            if key[0] != fid or proxy.is_ready:
                continue
            if key[1] in self._declared:
                continue
            src_future, ship = self._shippers.get(key, (None, None))
            if src_future is not None and src_future.is_ready:
                ship(src_future)

    def _recovery_finished(self, record: _CrashRecord) -> None:
        now = self.sim.now
        record.finished_ns = now
        self._t_reexec[record.locality] += now - record.restore_end_ns

    # -- diagnosis (the watchdog and _diagnose read this) -------------------

    def diagnose(self) -> list[str]:
        """Detector/checkpoint/recovery state, one string per finding."""
        parts: list[str] = []
        for p in sorted(self._declared):
            rec = self._crashes.get(p)
            if rec is None:
                parts.append(f"locality {p} declared dead (budget exhausted)")
            elif rec.finished_ns is None:
                parts.append(
                    f"recovery of locality {p} in progress: declared dead at "
                    f"{rec.declared_ns} ns, {rec.restored} result(s) restored "
                    f"from checkpoints, {rec.pending} of {rec.lost} "
                    "replacement task(s) still pending"
                )
            else:
                parts.append(
                    f"locality {p} recovered: {rec.restored} restored, "
                    f"{rec.lost} re-executed, done at {rec.finished_ns} ns"
                )
        for loc in self.dist.localities:
            i = loc.index
            if i in self._declared:
                continue
            bits = [
                f"{self._hb_seq[i]} heartbeat round(s)",
                f"{self._ckpts[i]} checkpoint(s)",
                f"{self._ckpted[i]} durable result(s)",
            ]
            if self._suspected[i]:
                who = ", ".join(str(s) for s in sorted(self._suspected[i]))
                bits.append(f"suspects [{who}]")
            parts.append(f"locality {i} detector: " + ", ".join(bits))
        return parts
