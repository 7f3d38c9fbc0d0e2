"""Gray-failure tolerance: degraded detection, speculation, fencing.

``repro.tail`` is the layer that survives *slow-but-alive* — the failure
class :mod:`repro.recovery` deliberately refuses to act on.  PR 8's quorum
detector adapts its per-link thresholds so a ``Straggler``-slowed locality
or a ``LinkDegradation``-delayed link is never declared dead; correct, but
it means a 10x-slow node silently inflates the tail with no mitigation.
One :class:`TailManager` per :class:`repro.dist.DistRuntime` (created only
when ``DistConfig.tail`` is set — ``None`` leaves the runtime bit-identical
to the pre-tail code) is a :class:`repro.layer.Layer` on the runtime,
on every parcelport and on every executor.  It runs four machines on the
shared virtual clock:

**1. Quantile-based gray-failure detection.**  Every heartbeat arrival
(:meth:`on_heartbeat`, sent on by the recovery manager's receive path)
records the observed gap as a ratio of the nominal period into a
per-locality :class:`repro.tail.sketch.QuantileSketch`; every parcel ack
(:meth:`on_ack`) records the round-trip into a per-link sketch.  A
periodic sweep flags a locality ``degraded`` when the median gap ratio
reaches ``DEGRADED_FACTOR`` — or when its *ongoing* silence does, which
catches a severe straggler before ``min_samples`` slow heartbeats have
even arrived.  Degraded is a third state between healthy and crashed: it
arms mitigation below but never feeds the crash quorum, so the recovery
manager's "stragglers are not dead" property is preserved by construction
(the tail layer only ever *reads* detector state).

**2. Hedged parcels.**  A send's first wire copy arms a hedge timer
(:meth:`on_transmit`, see :meth:`hedge_delay_ns`); if no ack beats it, an
insurance copy goes out on an alternate path.  The first copy to land
delivers, the dedup ledger discards the other, and PF401 still holds.

**3. Speculative re-execution.**  Each sweep clones not-yet-completed
lineage-recorded tasks homed on a degraded locality onto a healthy
survivor, budgeted by ``MAX_SPECULATION_FRAC`` of the work completed so
far.  First completion wins deterministically: whichever future resolves
first satisfies the application future and the loser's task is cancelled
through the executor (queued losers retire lazily, active losers have
their completion event cancelled), so the completed-task count stays one
per application future and reruns are bit-identical.  A clone that fails
while its original is still pending never wins — infrastructure errors
(e.g. admission shedding on the survivor) must not fail work the degraded
locality would eventually finish.

**4. Partition fencing.**  When the crash quorum declares a locality, the
tail layer bumps that locality's epoch (:meth:`on_declare`).  Parcels are
stamped with their sender's epoch at send time (:meth:`on_send`);
survivors reject stale-epoch arrivals (:meth:`on_arrive`, booked as drops,
so PF401 conservation holds) and a fenced locality that "comes back" gets
a typed :class:`repro.faults.errors.FencedEpochError` instead of
committing stale results.  When the gray detector disagrees with the
quorum — some monitor heard the victim recently, the asymmetric-partition
signature — the fence diagnosis names the partition.

Counters live under ``/tail{locality#N/total}``; the PF410
``SPECULATION_CONSERVED`` invariant audits the win/cancel ledger.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.faults.errors import FencedEpochError
from repro.layer import Layer
from repro.recovery.config import HEARTBEAT_INTERVAL_NS
from repro.runtime.future import Future
from repro.runtime.task import Task
from repro.sim.engine import Event
from repro.tail.config import TailConfig
from repro.tail.sketch import QuantileSketch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.counters.registry import CounterRegistry
    from repro.dist.parcel import Parcel, Parcelport
    from repro.dist.runtime import DistRuntime
    from repro.recovery.manager import RecoveryManager
    from repro.runtime.sim_executor import SimExecutor

#: a locality (or link) is degraded once its observed response ratio —
#: heartbeat gap over nominal period, or ack RTT over the healthy baseline —
#: reaches this multiple; also the ongoing-silence threshold
DEGRADED_FACTOR = 3.0
#: ring capacity of each response-time sketch (recent-window quantiles)
SKETCH_CAPACITY = 64
#: the hedging delay derives from this quantile of the link's ack-RTT
#: sketch...
HEDGE_QUANTILE = 0.9
#: ...times this multiplier — deterministic transfer times put the quantile
#: at the healthy RTT itself, so the multiplier is what keeps healthy links
#: from hedging every send
HEDGE_MULTIPLIER = 2.0
#: work-amplification budget: clones may not exceed this fraction of the
#: tasks completed so far (floored at one clone)
MAX_SPECULATION_FRAC = 0.5


class TailManager(Layer):
    """Gray-failure detection + hedging + speculation + fencing."""

    def __init__(
        self,
        dist: "DistRuntime",
        config: TailConfig,
        recovery: "RecoveryManager",
    ) -> None:
        self.dist = dist
        self.config = config
        #: the crash-recovery layer this one rides: its heartbeats, lineage
        #: and quiescence condition
        self.recovery = recovery
        self.sim = dist.simulator
        n = dist.config.num_localities
        self._n = n
        # -- gray detector state ---------------------------------------------
        #: per-locality sketch of heartbeat gap / nominal period ratios
        self._gap_ratio = [QuantileSketch(SKETCH_CAPACITY) for _ in range(n)]
        #: per-link sketch of parcel ack round-trips (ns)
        self._link_rtt: dict[tuple[int, int], QuantileSketch] = {}
        #: 1 while the detector flags a locality degraded
        self._degraded_flag = [0] * n
        self._degraded_events = [0] * n
        # -- hedging (stores indexed by the *sending* locality) --------------
        #: parcel_id -> armed hedge timer (first unacked copy only)
        self._hedge_timers: list[dict[int, Event]] = [{} for _ in range(n)]
        #: parcel_id -> first wire-dispatch time, for ack-RTT sketches
        self._sent_at: list[dict[int, int]] = [{} for _ in range(n)]
        self._hedges_armed = [0] * n
        self._hedges_sent = [0] * n
        self._hedges_won = [0] * n
        self._hedges_lost = [0] * n
        self._hedges_cancelled = [0] * n
        # -- speculation state (stores indexed by the degraded home) ---------
        #: future id -> (task, executor) of whichever locality spawned it
        self._task_of: dict[int, tuple[Task, "SimExecutor"]] = {}
        #: original future id -> in-flight speculation pair
        self._spec: dict[int, dict] = {}
        #: future ids that *are* clones (never re-speculated)
        self._clone_fids: set[int] = set()
        #: clone future ids whose original already won but whose Task had
        #: not spawned yet (dataflow dep proxies still in flight) — they
        #: are cancelled the instant they spawn, before they can run
        self._doomed: set[int] = set()
        self._spec_by = [0] * n
        self._spec_wins_by = [0] * n
        self._spec_cancelled_by = [0] * n
        self._orig_cancelled_by = [0] * n
        self._spec_rr = 0
        # -- fencing state ---------------------------------------------------
        self._epoch = [0] * n
        self._fenced: set[int] = set()
        self._fenced_rejections = [0] * n
        self._fence_notes: list[str] = []

    @property
    def degraded_localities(self) -> tuple[int, ...]:
        return tuple(p for p, flag in enumerate(self._degraded_flag) if flag)

    @property
    def speculation_budget(self) -> int:
        """The amplification cap at the current completed-task count."""
        completed = sum(loc.runtime.executor.tasks_completed
                        for loc in self.dist.localities)
        return max(1, int(MAX_SPECULATION_FRAC * completed))

    def register_counters(self, registry: "CounterRegistry") -> None:
        """Export the ``/tail{locality#N/total}`` family.

        Registered only when the tail layer is enabled, so a disabled run's
        counter snapshot stays bit-identical to the pre-tail runtime.
        """

        def per_loc(store: list[int], i: int) -> Callable[[], float]:
            return lambda: float(store[i])

        for i in range(self._n):
            prefix = f"/tail{{locality#{i}/total}}"
            registry.value(f"{prefix}/count/degraded@gauge",
                           "1 while the gray detector flags this locality",
                           source=per_loc(self._degraded_flag, i))
            registry.value(f"{prefix}/count/epoch@gauge",
                           "fencing epoch of this locality (bumped on declare)",
                           source=per_loc(self._epoch, i))
            for path, store, description in (
                ("count/degraded-events", self._degraded_events,
                 "healthy -> degraded transitions of this locality"),
                ("count/hedges-armed", self._hedges_armed,
                 "hedge timers this locality armed on unacked sends"),
                ("count/hedges-sent", self._hedges_sent,
                 "hedge copies this locality put on the wire"),
                ("count/hedges-won", self._hedges_won,
                 "hedge copies that delivered first"),
                ("count/hedges-lost", self._hedges_lost,
                 "hedge copies beaten by the original (deduplicated)"),
                ("count/hedges-cancelled", self._hedges_cancelled,
                 "hedge timers cancelled by an ack before firing"),
                ("count/speculations", self._spec_by,
                 "tasks of this locality cloned onto a survivor"),
                ("count/speculation-wins", self._spec_wins_by,
                 "clones that completed before their original"),
                ("count/speculations-cancelled", self._spec_cancelled_by,
                 "clones called off (original won, or clone failed)"),
                ("count/originals-cancelled", self._orig_cancelled_by,
                 "original tasks cancelled after their clone won"),
                ("count/fenced-rejections", self._fenced_rejections,
                 "stale-epoch parcels from this locality rejected"),
            ):
                registry.derived(
                    f"{prefix}/{path}", per_loc(store, i), description
                )
        # System-wide, so registered once (on locality 0's name).
        registry.value(
            "/tail{locality#0/total}/count/speculation-budget@gauge",
            "speculation budget: MAX_SPECULATION_FRAC of completed tasks",
            source=lambda: float(self.speculation_budget),
        )

    # -- observation hooks ------------------------------------------------------

    def on_stage(self, executor: "SimExecutor", task: Task,
                 parent: Task | None) -> None:
        """Future -> Task bookkeeping for loser cancellation: every spawn
        on every locality reports in."""
        hook = task.failure_hook
        owner = getattr(hook, "__self__", None)
        if isinstance(owner, Future):
            self._task_of[owner.future_id] = (task, executor)
            if owner.future_id in self._doomed:
                # The original won while this clone's dependency proxies
                # were still in flight; it has just been enqueued, so the
                # cancel is guaranteed to land before it runs.
                self._doomed.discard(owner.future_id)
                executor.cancel_task(task)

    def on_heartbeat(self, monitor: int, peer: int, gap_ns: int) -> None:
        self._gap_ratio[peer].add(gap_ns / HEARTBEAT_INTERVAL_NS)

    def note_ack_rtt(self, src: int, dst: int, rtt_ns: int) -> None:
        """A parcel from ``src`` to ``dst`` was acked ``rtt_ns`` after send."""
        sketch = self._link_rtt.get((src, dst))
        if sketch is None:
            sketch = QuantileSketch(SKETCH_CAPACITY)
            self._link_rtt[(src, dst)] = sketch
        sketch.add(float(rtt_ns))

    # -- hedged parcels --------------------------------------------------------

    def hedge_delay_ns(self, src: int, dst: int) -> int | None:
        """How long to wait before hedging a send on this link.

        ``None`` while the link's ack-RTT sketch holds fewer than
        ``min_samples`` observations — no data, no hedge.  The delay is the
        ``HEDGE_QUANTILE`` quantile times ``HEDGE_MULTIPLIER``: transfer
        times are deterministic, so the quantile sits at the healthy RTT
        itself and the multiplier is what separates "normal" from "worth
        insuring".
        """
        if not self.config.hedge:
            return None
        sketch = self._link_rtt.get((src, dst))
        if sketch is None or len(sketch) < self.config.min_samples:
            return None
        quantile = sketch.quantile(HEDGE_QUANTILE)
        return max(self.config.hedge_min_delay_ns,
                   int(HEDGE_MULTIPLIER * quantile))

    def on_transmit(self, port, peer, parcel, attempt, head_delay_ns,
                    on_delivered) -> None:
        """Arm the hedge timer on a send's first wire copy."""
        if attempt != 0:
            return
        src = port.locality
        self._sent_at[src][parcel.parcel_id] = self.sim.now
        delay = self.hedge_delay_ns(src, peer.locality)
        if delay is not None:
            self._hedge_timers[src][parcel.parcel_id] = self.sim.schedule(
                head_delay_ns + delay,
                lambda: self._hedge(port, peer, parcel, on_delivered),
            )
            self._hedges_armed[src] += 1

    def _hedge(self, port: "Parcelport", peer: "Parcelport",
               parcel: "Parcel", on_delivered) -> None:
        """The hedging delay elapsed with no ack: send an insurance copy.

        The copy is not subject to injected drops: it models an
        independent alternate path, and sampling the drop stream again
        would perturb the fates of unrelated parcels.  First delivery wins;
        the loser is discarded by the (source, id) dedup ledger and its ack
        settles the same retry timer.
        """
        src = port.locality
        self._hedge_timers[src].pop(parcel.parcel_id, None)
        if port.halted or not port.is_awaiting(parcel.parcel_id):
            return
        self._hedges_sent[src] += 1

        def land() -> None:
            # Lost: beaten by the original (deduplicated), or the peer died.
            won = port.arrive(peer, parcel, on_delivered)
            (self._hedges_won if won else self._hedges_lost)[src] += 1

        port.extra_copy(
            port.transfer_ns(peer.locality, parcel.payload_bytes), land
        )

    def on_ack(self, port: "Parcelport", parcel: "Parcel") -> None:
        """Cancel the hedge, then sample the RTT from the first dispatch."""
        src = port.locality
        sent = self._sent_at[src].get(parcel.parcel_id)
        self._settle(src, parcel.parcel_id)
        if sent is not None:
            self.note_ack_rtt(src, parcel.destination, self.sim.now - sent)

    def on_settle(self, port: "Parcelport", parcel: "Parcel") -> None:
        """An armed-but-unfired timer is cancelled and counted, so the
        ``armed == sent + cancelled`` ledger stays exact whether the parcel
        was acked, declared lost, abandoned, or its sender halted."""
        self._settle(port.locality, parcel.parcel_id)

    def _settle(self, src: int, parcel_id: int) -> None:
        timer = self._hedge_timers[src].pop(parcel_id, None)
        if timer is not None:
            timer.cancel()
            self._hedges_cancelled[src] += 1
        self._sent_at[src].pop(parcel_id, None)

    def on_halt(self, port: "Parcelport") -> None:
        src = port.locality
        for parcel_id in list(self._hedge_timers[src]):
            self._settle(src, parcel_id)
        self._sent_at[src].clear()

    # -- fencing --------------------------------------------------------------

    def epoch_of(self, locality: int) -> int:
        return self._epoch[locality]

    def is_fenced(self, locality: int) -> bool:
        """Has ``locality`` been fenced?  Tests read it to check the
        fencing law: only a declared crash fences a locality, never a
        degraded one, and a run with fencing off fences none."""
        return locality in self._fenced

    def is_stale(self, source: int, epoch: int) -> bool:
        """Does a parcel stamped ``epoch`` from ``source`` predate its fence?"""
        return self.config.fencing and epoch < self._epoch[source]

    def on_send(self, port: "Parcelport", parcel: "Parcel") -> None:
        """Reject a fenced sender's send; stamp everyone else's epoch."""
        src = port.locality
        if src in self._fenced:
            # A declared locality that "came back" must not commit stale
            # results.
            current = self._epoch[src]
            raise FencedEpochError(
                src,
                current - 1,
                current,
                detail=f"send to locality {parcel.destination} rejected",
            )
        parcel.epoch = self._epoch[src]

    def on_arrive(self, port: "Parcelport", parcel: "Parcel") -> bool:
        """Partition fence: reject a copy whose sender was declared dead
        after it departed; committing it would resurrect a superseded
        epoch."""
        if not self.is_stale(parcel.source, parcel.epoch):
            return False
        self._fenced_rejections[parcel.source] += 1
        return True

    def on_declare(self, p: int) -> None:
        """The crash quorum declared ``p``: fence it and settle its flag."""
        # Declared supersedes degraded — the locality is dead, not gray.
        self._degraded_flag[p] = 0
        if not self.config.fencing:
            return
        self._epoch[p] += 1
        self._fenced.add(p)
        mgr = self.recovery
        now = self.sim.now
        horizon = DEGRADED_FACTOR * HEARTBEAT_INTERVAL_NS
        dissenters = [
            m for m in range(self._n)
            if m != p
            and not self.dist.localities[m].crashed
            and m not in mgr._declared
            and now - mgr._last_seen[m][p] < horizon
        ]
        if dissenters:
            who = ", ".join(str(m) for m in dissenters)
            self._fence_notes.append(
                f"partition fenced: quorum declared locality {p} dead while "
                f"monitor(s) [{who}] still heard it recently — epoch "
                f"{self._epoch[p]} rejects its stale parcels"
            )
        else:
            self._fence_notes.append(
                f"locality {p} fenced at epoch {self._epoch[p]}: parcels it "
                "sent before the declaration are rejected on arrival"
            )

    # -- the detector sweep ---------------------------------------------------

    def on_start(self) -> None:
        """Arm the sweep chain (called from DistRuntime.run)."""
        self._schedule_sweep()

    def _schedule_sweep(self) -> None:
        self.sim.schedule(self.config.check_interval_ns, self._sweep)

    def _sweep(self) -> None:
        # Liveness rides the recovery manager's quiescence condition: the
        # chain re-arms only while application work, parcels, or an open
        # recovery still exist, so the event heap drains at run end.
        if not self.recovery._active():
            return
        self._update_flags()
        if self.config.speculate:
            self._speculate()
        self._schedule_sweep()

    def _update_flags(self) -> None:
        mgr = self.recovery
        now = self.sim.now
        monitors = [
            loc.index
            for loc in self.dist.localities
            if not loc.crashed and loc.index not in mgr._declared
        ]
        for p in range(self._n):
            if p in mgr._declared:
                self._degraded_flag[p] = 0
                continue
            flagged = False
            sketch = self._gap_ratio[p]
            if (len(sketch) >= self.config.min_samples
                    and sketch.median() >= DEGRADED_FACTOR):
                flagged = True
            else:
                # Ongoing silence: a severe straggler's heartbeats are so
                # sparse the sketch would need min_samples * factor periods
                # to fill — the current gap alone is evidence enough.
                gaps = [now - mgr._last_seen[m][p] for m in monitors if m != p]
                silence = DEGRADED_FACTOR * HEARTBEAT_INTERVAL_NS
                if gaps and min(gaps) >= silence:
                    flagged = True
            if flagged and not self._degraded_flag[p]:
                self._degraded_events[p] += 1
            self._degraded_flag[p] = int(flagged)

    # -- speculative re-execution ---------------------------------------------

    def _speculate(self) -> None:
        degraded = self.degraded_localities
        if not degraded:
            return
        mgr = self.recovery
        healthy = [
            loc.index
            for loc in self.dist.localities
            if not loc.crashed
            and loc.index not in mgr._declared
            and not self._degraded_flag[loc.index]
        ]
        if not healthy:
            return
        budget = self.speculation_budget
        owner = self.dist._owner
        # Snapshot: spawning a clone records new lineage mid-iteration.
        lineage = list(mgr._lineage.items())
        for p in degraded:
            for fid, lin in lineage:
                if sum(self._spec_by) >= budget:
                    return
                if owner.get(fid) != p:
                    continue
                if lin.kind not in ("async", "dataflow"):
                    continue
                if lin.future.is_ready:
                    continue
                if fid in self._spec or fid in self._clone_fids:
                    continue
                if fid in mgr._replacement:
                    continue  # crash recovery already owns this future
                if lin.kind == "dataflow" and not all(
                    d.is_ready and not d.has_exception for d in lin.deps
                ):
                    continue
                target = healthy[self._spec_rr % len(healthy)]
                self._spec_rr += 1
                self._clone(p, fid, lin, target)

    def _clone(self, p: int, fid: int, lin, target: int) -> None:
        dist = self.dist
        name = f"spec:{lin.name or lin.future.name}"
        if lin.kind == "async":
            clone = dist.async_(
                lin.fn, *lin.args, locality=target, work=lin.work,
                name=name, priority=lin.priority, qos=lin.qos,
            )
        else:
            clone = dist.dataflow(
                lin.fn, list(lin.deps), locality=target, work=lin.work,
                name=name, priority=lin.priority, qos=lin.qos,
            )
        self._clone_fids.add(clone.future_id)
        self._spec[fid] = {"clone": clone, "resolved": False, "home": p}
        self._spec_by[p] += 1
        lin.future.on_ready(lambda _f, fid=fid: self._original_ready(fid))
        clone.on_ready(lambda _c, fid=fid: self._clone_ready(fid))

    def _original_ready(self, fid: int) -> None:
        """The original resolved first (its body, or a crash replacement)."""
        st = self._spec.get(fid)
        if st is None or st["resolved"]:
            return
        st["resolved"] = True
        p = st["home"]
        self._spec_cancelled_by[p] += 1
        clone: Future = st["clone"]
        entry = self._task_of.get(clone.future_id)
        if entry is not None:
            task, executor = entry
            executor.cancel_task(task)
        else:
            # A dataflow clone whose re-localized dep proxies are still in
            # flight has no Task yet — doom the future id so on_stage
            # cancels it the moment the when_all fires and it spawns.
            self._doomed.add(clone.future_id)

    def _clone_ready(self, fid: int) -> None:
        """The clone resolved first: it wins, the original is cancelled."""
        st = self._spec.get(fid)
        if st is None or st["resolved"]:
            return
        st["resolved"] = True
        p = st["home"]
        clone: Future = st["clone"]
        original = self.recovery._lineage[fid].future
        if clone.has_exception:
            # Infrastructure failure on the survivor (shed, crash): the
            # speculation is called off, never propagated — the degraded
            # locality will still finish the original.
            self._spec_cancelled_by[p] += 1
            return
        self._spec_wins_by[p] += 1
        # Cancel the original *before* satisfying its future: a queued
        # original dispatched later would otherwise double-set the value.
        entry = self._task_of.get(fid)
        if entry is None:
            # The original's own dep proxies are still in flight, so its
            # Task does not exist yet: doom the future id and on_stage
            # cancels it before it can run — it never executes.
            self._doomed.add(fid)
            cancelled = True
        else:
            task, executor = entry
            cancelled = executor.cancel_task(task)
        if cancelled:
            self._orig_cancelled_by[p] += 1
            if not original.is_ready:
                original.set_value(clone.value)
        # else: the original is mid-completion at this very timestamp and
        # will set its own (identical, deterministic) value — setting it
        # here would double-assign the future.

    # -- diagnosis (the watchdog and _diagnose read this) ---------------------

    def diagnose(self) -> list[str]:
        """Gray-detector / speculation / fence state, one string per finding."""
        parts: list[str] = []
        for p in self.degraded_localities:
            sketch = self._gap_ratio[p]
            if len(sketch) >= self.config.min_samples:
                parts.append(
                    f"locality {p} degraded: median heartbeat gap "
                    f"{sketch.median():.1f}x nominal "
                    f"(threshold {DEGRADED_FACTOR:.1f}x)"
                )
            else:
                parts.append(
                    f"locality {p} degraded: silent beyond "
                    f"{DEGRADED_FACTOR:.1f}x the heartbeat period"
                )
        parts.extend(self._fence_notes)
        speculated = sum(self._spec_by)
        if speculated:
            parts.append(
                f"speculation: {speculated} clone(s), "
                f"{sum(self._spec_wins_by)} won, "
                f"{sum(self._spec_cancelled_by)} called off, "
                f"{sum(self._orig_cancelled_by)} original(s) cancelled"
            )
        sent = sum(self._hedges_sent)
        if sent:
            parts.append(
                f"hedging: {sent} of {sum(self._hedges_armed)} armed "
                f"hedge(s) sent, {sum(self._hedges_won)} won, "
                f"{sum(self._hedges_lost)} deduplicated"
            )
        return parts
