"""Overload-control unit and integration tests (PR: repro.overload).

Covers the four layers one by one — admission control on the scheduler
queues, credit-based flow control and circuit breakers on the parcelport,
and the governor's epoch-level control loop — plus the satellite pieces:
per-worker queue-depth gauges, the bounded dead-letter ring, and the
watchdog diagnosis that names both a dead dependency cone and the
unacked parcels under a combined crash + drop fault plan.  The figure
driver (``repro.experiments.figO_overload``) exercises the layers at
sweep scale; these tests pin the individual semantics.
"""

import pytest

from repro.counters.registry import CounterRegistry
from repro.dist import (
    CrashAt,
    DistConfig,
    DistRuntime,
    FaultPlan,
    RetryParams,
    WatchdogTimeout,
)
from repro.dist.network import NetworkModel
from repro.dist.parcel import Parcelport
from repro.faults.plan import FaultInjector
from repro.overload.admission import (
    AdmissionControl,
    AdmissionParams,
)
from repro.overload.breaker import BreakerParams, BreakerState, CircuitBreaker
from repro.overload.config import CreditParams, OverloadConfig
from repro.overload.errors import CircuitOpenError, TaskShedError
from repro.overload.gate import SendGate
from repro.overload.governor import (
    MAX_GRAIN_NS,
    GovernorSignals,
    OverloadGovernor,
)
from repro.qos import (
    PeriodicArrivals,
    QosServiceConfig,
    Tenant,
    run_qos_service,
)
from repro.rt.scheduler import RtTag
from repro.runtime.runtime import Runtime, RuntimeConfig
from repro.runtime.task import Priority, Task
from repro.runtime.work import FixedWork
from repro.schedulers import SCHEDULERS, PriorityLocalScheduler, make_scheduler
from repro.schedulers.queues import DualQueue
from repro.sim.engine import Simulator
from repro.sim.machine import Machine
from repro.sim.platforms import HASWELL


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


class TestConfigValidation:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown overflow policy"):
            AdmissionParams(max_depth=8, policy="drop")

    def test_zero_depth_rejected(self):
        with pytest.raises(ValueError, match="max_depth"):
            AdmissionParams(max_depth=0, policy="shed")

    def test_zero_credit_window_rejected(self):
        with pytest.raises(ValueError, match="credit window"):
            CreditParams(window=0)

    def test_breaker_threshold_rejected(self):
        with pytest.raises(ValueError, match="failure_threshold"):
            BreakerParams(failure_threshold=0)

    def test_empty_config_is_inactive(self):
        assert not OverloadConfig().is_active
        assert OverloadConfig(credits=CreditParams()).is_active
        assert OverloadConfig(admission=AdmissionParams()).is_active

    def test_credits_require_retry_on_parcelport(self):
        port = Parcelport(0, Simulator(), NetworkModel(), CounterRegistry())
        with pytest.raises(ValueError, match="require RetryParams"):
            SendGate(port, credits=CreditParams(window=4))

    def test_breaker_requires_retry_on_dist_config(self):
        with pytest.raises(ValueError, match="reliable transport"):
            DistConfig(
                num_localities=2,
                cores_per_locality=1,
                overload=OverloadConfig(breaker=BreakerParams()),
            )

    def test_dead_letter_capacity_validated(self):
        with pytest.raises(ValueError, match="dead_letter_capacity"):
            DistConfig(
                num_localities=2, cores_per_locality=1, dead_letter_capacity=0
            )


# ---------------------------------------------------------------------------
# admission control: overflow-policy semantics end to end
# ---------------------------------------------------------------------------

BOUND = 32


def _overloaded(admission: AdmissionParams):
    """4x overload on a 4-core machine: one unclassed tenant arriving
    every grain/(4*4) ns; returns its stats and the run result."""
    offered = Tenant(0, "offered", None, 2_000, PeriodicArrivals(2_000 / 16))
    outcome = run_qos_service(
        [offered],
        QosServiceConfig(
            num_cores=4,
            window_ns=100_000,
            overload=OverloadConfig(admission=admission),
            scheduler="priority-local",
        ),
    )
    return outcome.stats[0], outcome.result


def _bounded(policy: str):
    return _overloaded(AdmissionParams(max_depth=BOUND, policy=policy))


class TestAdmissionPolicies:
    def test_shed_conserves_and_bounds(self):
        offered, result = _bounded("shed")
        assert offered.shed > 0
        assert offered.arrived == offered.completed + offered.shed
        assert result.peak_queue_depth <= BOUND
        assert result.tasks_shed == offered.shed
        assert result.tasks_offered == offered.arrived

    def test_shed_error_names_the_victim_and_the_bound(self):
        config = RuntimeConfig(
            platform="haswell",
            num_cores=4,
            overload=OverloadConfig(
                admission=AdmissionParams(max_depth=BOUND, policy="shed")
            ),
        )
        rt = Runtime(config)
        futures = [
            rt.async_(lambda: 1, work=FixedWork(2_000), name=f"offered#{k}")
            for k in range(8 * BOUND)
        ]
        rt.run()
        errors = [
            f.exception
            for f in futures
            if isinstance(f.exception, TaskShedError)
        ]
        assert errors, "spawning 8x the bound at t=0 must shed"
        for err in errors:
            assert err.max_depth == BOUND
            assert err.queue_depth >= BOUND
            assert err.task_name.startswith("offered#")

    def test_block_completes_everything_with_backpressure(self):
        offered, result = _bounded("block")
        assert offered.shed == 0
        assert offered.completed == offered.arrived
        assert result.peak_queue_depth <= BOUND
        assert result.tasks_blocked > 0
        assert result.tasks_readmitted == result.tasks_blocked
        assert result.backpressure_wait_ns > 0

    def test_spill_conserves_all_offered_work(self):
        offered, result = _bounded("spill")
        assert offered.shed == 0
        assert offered.completed == offered.arrived
        assert result.peak_queue_depth <= BOUND
        assert result.tasks_spilled > 0
        assert result.tasks_readmitted == result.tasks_spilled
        # The cold queue drained: nothing is left in a deferred lane.
        assert result.counters.get("/overload/count/spill-depth@gauge") == 0

    def test_unbounded_observer_only_measures(self):
        offered, result = _overloaded(AdmissionParams())
        assert offered.shed == 0
        assert offered.completed == offered.arrived
        # Depth statistics are tracked, and the 4x backlog shows.
        assert result.peak_queue_depth > BOUND
        assert result.tasks_offered == offered.arrived

    def test_offered_load_registers_no_qos_counters(self):
        # figO's governor reads its high-QoS signal from these counters;
        # single-class offered load must leave that signal at zero even
        # while it sheds, or the governor would coarsen for the wrong reason.
        offered, result = _bounded("shed")
        assert offered.shed > 0
        counters = result.counters
        names = [*counters.values, *counters.average_pairs]
        assert not [n for n in names if n.startswith("/qos")]
        signals = GovernorSignals.from_run(result)
        assert signals.high_qos_shed_fraction == 0.0


class TestShedVictimSelection:
    """The shed policy evicts the lowest-priority staged task, newest
    among ties, and sheds the newcomer on a priority tie."""

    def _control(self, shed_log):
        control = AdmissionControl(
            AdmissionParams(max_depth=2, policy="shed"),
            now_fn=lambda: 0,
            on_shed=lambda task, err: shed_log.append((task, err)),
        )
        queue = DualQueue(admission=control)
        return control, queue

    def test_high_priority_evicts_newest_low(self):
        shed_log = []
        control, queue = self._control(shed_log)
        low1 = Task(None, name="low1", priority=Priority.LOW)
        low2 = Task(None, name="low2", priority=Priority.LOW)
        queue.push_staged(low1)
        queue.push_staged(low2)
        high = Task(None, name="high", priority=Priority.HIGH)
        queue.push_staged(high)
        assert [t.name for t, _ in shed_log] == ["low2"]
        assert [t.name for t in queue._staged] == ["low1", "high"]

    def test_priority_tie_sheds_the_newcomer(self):
        shed_log = []
        control, queue = self._control(shed_log)
        queue.push_staged(Task(None, name="a", priority=Priority.NORMAL))
        queue.push_staged(Task(None, name="b", priority=Priority.NORMAL))
        late = Task(None, name="late", priority=Priority.NORMAL)
        queue.push_staged(late)
        assert [t.name for t, _ in shed_log] == ["late"]
        assert [t.name for t in queue._staged] == ["a", "b"]
        assert control.stats.offered == 3
        assert control.stats.admitted == 2
        assert control.stats.shed == 1

    def test_shed_error_carries_depth_and_bound(self):
        shed_log = []
        _, queue = self._control(shed_log)
        queue.push_staged(Task(None, name="a"))
        queue.push_staged(Task(None, name="b"))
        queue.push_staged(Task(None, name="c"))
        ((task, err),) = shed_log
        assert task.name == "c"
        assert err.queue_depth == 2
        assert err.max_depth == 2


class TestClassAwareShedVictim:
    """Among equal queue priorities, QoS class standing picks the victim:
    lower-rank staged work is evicted before higher-rank work, and
    shed-ineligible classes are never evicted in favour of a newcomer."""

    def _control(self, shed_log, max_depth=2):
        control = AdmissionControl(
            AdmissionParams(max_depth=max_depth, policy="shed"),
            now_fn=lambda: 0,
            on_shed=lambda task, err: shed_log.append(task.name),
        )
        queue = DualQueue(admission=control)
        return control, queue

    def _classes(self):
        from repro.qos.classes import default_classes

        batch, standard, interactive = default_classes()
        return batch, standard, interactive

    def test_lower_class_evicted_before_higher_at_equal_priority(self):
        batch, standard, interactive = self._classes()
        shed_log = []
        _, queue = self._control(shed_log)
        # Same NORMAL queue priority throughout: only class rank differs.
        queue.push_staged(Task(None, name="std", qos=standard))
        queue.push_staged(Task(None, name="batch", qos=batch))
        queue.push_staged(Task(None, name="inter", qos=interactive))
        # The batch task (rank 0) goes, not the standard one (rank 1),
        # even though standard is older.
        assert shed_log == ["batch"]
        assert [t.name for t in queue._staged] == ["std", "inter"]

    def test_newest_among_equal_class_ties(self):
        batch, _, interactive = self._classes()
        shed_log = []
        _, queue = self._control(shed_log)
        queue.push_staged(Task(None, name="b1", qos=batch))
        queue.push_staged(Task(None, name="b2", qos=batch))
        queue.push_staged(Task(None, name="inter", qos=interactive))
        assert shed_log == ["b2"]

    def test_same_class_tie_sheds_the_newcomer(self):
        batch, _, _ = self._classes()
        shed_log = []
        _, queue = self._control(shed_log)
        queue.push_staged(Task(None, name="b1", qos=batch))
        queue.push_staged(Task(None, name="b2", qos=batch))
        late = Task(None, name="late", qos=batch)
        queue.push_staged(late)
        assert shed_log == ["late"]

    def test_ineligible_class_is_never_evicted_for_a_newcomer(self):
        _, _, interactive = self._classes()
        assert not interactive.shed_eligible
        shed_log = []
        _, queue = self._control(shed_log)
        queue.push_staged(Task(None, name="i1", qos=interactive))
        queue.push_staged(Task(None, name="i2", qos=interactive))
        # Another interactive arrival cannot displace staged interactive
        # work; the newcomer itself is shed.
        queue.push_staged(Task(None, name="i3", qos=interactive))
        assert shed_log == ["i3"]
        assert [t.name for t in queue._staged] == ["i1", "i2"]

    def test_unclassed_ties_with_rank_zero_eligible_class(self):
        batch, _, _ = self._classes()
        assert batch.rank == 0 and batch.shed_eligible
        shed_log = []
        _, queue = self._control(shed_log)
        queue.push_staged(Task(None, name="plain"))
        queue.push_staged(Task(None, name="b", qos=batch))
        # A batch arrival ties with both staged tasks: newcomer shed,
        # exactly the pre-QoS behaviour for unclassed workloads.
        queue.push_staged(Task(None, name="late", qos=batch))
        assert shed_log == ["late"]

    def test_queue_priority_still_dominates_class_rank(self):
        batch, _, interactive = self._classes()
        shed_log = []
        _, queue = self._control(shed_log)
        # HIGH-priority batch vs NORMAL-priority interactive: priority wins.
        high_batch = Task(None, name="hb", priority=Priority.HIGH, qos=batch)
        norm_inter = Task(
            None, name="ni", priority=Priority.NORMAL, qos=interactive
        )
        queue.push_staged(norm_inter)
        queue.push_staged(high_batch)
        incoming = Task(None, name="hi", priority=Priority.HIGH, qos=batch)
        queue.push_staged(incoming)
        assert shed_log == ["ni"]


# ---------------------------------------------------------------------------
# every queue a policy builds is gated, whatever tag its tasks carry
# ---------------------------------------------------------------------------


def _shed_run(scheduler: str, qos=None):
    """40 tasks spawned at t=0 on 2 Haswell cores, at most 2 per queue."""
    rt = Runtime(
        RuntimeConfig(
            platform="haswell",
            num_cores=2,
            scheduler=scheduler,
            overload=OverloadConfig(
                admission=AdmissionParams(max_depth=2, policy="shed")
            ),
        )
    )
    for k in range(40):
        rt.async_(lambda: None, work=FixedWork(10_000), name=f"t{k}", qos=qos)
    return rt.run()


@pytest.mark.parametrize("scheduler", list(SCHEDULERS))
class TestEveryPolicyIsGated:
    def test_every_offered_task_completes_or_is_shed(self, scheduler):
        result = _shed_run(scheduler)
        assert result.tasks_offered == 40
        assert result.tasks_offered == result.tasks_completed + result.tasks_shed
        assert result.tasks_shed > 0

    def test_a_real_time_tag_sheds_as_no_tag_does(self, scheduler):
        # An RtTag has no QoS standing: it ties with an eligible rank-0
        # class, as an untagged task does.
        tagged = _shed_run(scheduler, RtTag(absolute_deadline_ns=0, bucket_key="rt"))
        untagged = _shed_run(scheduler)
        assert tagged.tasks_shed == untagged.tasks_shed > 0
        assert tagged.tasks_offered == untagged.tasks_offered == 40
        assert tagged.tasks_completed == untagged.tasks_completed


def test_buckets_built_on_first_use_are_gated():
    control = AdmissionControl(AdmissionParams(max_depth=2), now_fn=lambda: 0)
    policy = make_scheduler("rt-edf")
    policy.attach(Machine(HASWELL, 2), control)
    assert not policy.queues()  # rt-edf builds a bucket on its first push
    policy.enqueue_staged(Task(None, name="tagged", qos=RtTag(0, "rt")), 0)
    policy.enqueue_staged(Task(None, name="untagged"), 1)
    assert len(policy.queues()) == 4  # two buckets of one queue per worker
    assert all(q.admission is control for q in policy.queues())
    assert control.stats.offered == 2


@pytest.mark.parametrize("overflow", ["block", "spill"])
def test_spill_depth_gauge_is_the_summed_deferred_lanes(overflow):
    control = AdmissionControl(
        AdmissionParams(max_depth=2, policy=overflow), now_fn=lambda: 0
    )
    registry = CounterRegistry()
    control.register_counters(registry)
    policy = PriorityLocalScheduler()
    policy.attach(Machine(HASWELL, 2), control)

    def gauge_matches_lanes() -> int:
        deferred = sum(q.deferred_len for q in policy.queues())
        gauge = registry.snapshot().get("/overload/count/spill-depth@gauge")
        assert gauge == deferred
        return deferred

    for k in range(8):
        policy.enqueue_staged(Task(None, name=f"t{k}"), k % 2)
        gauge_matches_lanes()
    assert gauge_matches_lanes() == 4  # two over the bound on each worker
    popped = 0
    while policy.find_work(popped % 2) is not None:
        popped += 1
        gauge_matches_lanes()
    assert popped == 8
    assert gauge_matches_lanes() == 0


# ---------------------------------------------------------------------------
# satellite: per-worker queue-depth gauges
# ---------------------------------------------------------------------------


class TestWorkerQueueDepthGauge:
    def test_single_runtime_exports_one_gauge_per_worker(self):
        rt = Runtime(platform="haswell", num_cores=3)
        for _ in range(6):
            rt.async_(lambda: 1, work=FixedWork(5_000))
        result = rt.run()
        names = [
            f"/threads{{locality#0/worker-thread#{w}}}/count/queue-depth@gauge"
            for w in range(3)
        ]
        for name in names:
            assert name in result.counters.values
            # Drained run: every hot queue finished empty.
            assert result.counters.get(name) == 0.0

    def test_dist_runtime_mirrors_the_gauge_per_locality(self):
        dist = DistRuntime(num_localities=2, cores_per_locality=2, seed=0)
        src = dist.async_(lambda: 1, locality=0, work=FixedWork(1_000))
        dist.dataflow(lambda x: x + 1, [src], locality=1, work=FixedWork(1_000))
        result = dist.run()
        for locality in range(2):
            for worker in range(2):
                name = (
                    f"/threads{{locality#{locality}/worker-thread#{worker}}}"
                    "/count/queue-depth@gauge"
                )
                assert name in result.counters.values


# ---------------------------------------------------------------------------
# a minimal two-port wire for transport-layer tests
# ---------------------------------------------------------------------------


def two_ports(
    *,
    retry: RetryParams | None = None,
    plan: FaultPlan | None = None,
    credits: CreditParams | None = None,
    breaker: BreakerParams | None = None,
    dead_letter_capacity: int = 1024,
):
    """A sender (locality 0, optionally faulty, optionally gated by
    ``sender.layers[0]``) wired to a receiver."""
    sim = Simulator()
    net = NetworkModel()
    registry = CounterRegistry()
    sender = Parcelport(
        0, sim, net, registry,
        retry=retry,
        injector=FaultInjector(plan) if plan is not None else None,
        dead_letter_capacity=dead_letter_capacity,
    )
    if credits is not None or breaker is not None:
        gate = SendGate(sender, credits=credits, breaker=breaker)
        gate.register_counters(registry)
        sender.layers = (gate,)
    receiver = Parcelport(1, sim, net, registry, retry=retry)
    ports = {0: sender, 1: receiver}
    sender.connect(ports)
    receiver.connect(ports)
    return sim, registry, sender, receiver


# ---------------------------------------------------------------------------
# credit-based flow control
# ---------------------------------------------------------------------------


class TestCreditFlowControl:
    def test_window_bounds_in_flight_and_delivers_everything(self):
        sim, registry, sender, _ = two_ports(
            retry=RetryParams(max_jitter_ns=0),
            credits=CreditParams(window=2),
        )
        delivered = []
        for _ in range(5):
            sender.send(1, "v", 256, delivered.append)
        sim.run()
        assert len(delivered) == 5
        assert sender.unacked_high_water(1) == 2
        snap = registry.snapshot(sim.now)
        assert snap.get(
            "/parcels{locality#0/total}/count/unacked-high-water@gauge"
        ) == 2
        assert sender.waiting_sends == 0  # lane drained
        # Three of the five sends had to park for a credit.
        assert snap.get("/overload{locality#0/total}/count/credit-waits") == 3
        assert snap.get("/overload{locality#0/total}/count/breaker-deferred") == 0
        assert (
            snap.get("/overload{locality#0/total}/time/credits-exhausted") > 0
        )

    def test_baseline_ledger_reports_high_water_without_gating(self):
        # Retry without credits: the unacked ledger still measures, so a
        # baseline run can report how wide the window would have needed to be.
        sim, registry, sender, _ = two_ports(retry=RetryParams(max_jitter_ns=0))
        delivered = []
        for _ in range(5):
            sender.send(1, "v", 256, delivered.append)
        sim.run()
        assert len(delivered) == 5
        snap = registry.snapshot(sim.now)
        assert snap.get(
            "/parcels{locality#0/total}/count/unacked-high-water@gauge"
        ) == 5
        # No gate, so nothing parked and no overload counters exist.
        assert sender.layers == ()
        assert not any(name.startswith("/overload") for name in snap.values)
        assert sender.waiting_sends == 0

    def test_retransmission_rides_the_same_credit(self):
        # Half the copies drop: retransmissions must not eat extra credits,
        # or a lossy link would leak the window shut.
        sim, _, sender, _ = two_ports(
            retry=RetryParams(
                ack_timeout_ns=60_000, max_jitter_ns=0, max_retries=6
            ),
            plan=FaultPlan(seed=9, drop_rate=0.5),
            credits=CreditParams(window=2),
        )
        delivered = []
        for _ in range(6):
            sender.send(1, "v", 256, delivered.append)
        sim.run()
        assert len(delivered) == 6
        assert sender.unacked_high_water(1) == 2


# ---------------------------------------------------------------------------
# circuit breakers
# ---------------------------------------------------------------------------


class TestCircuitBreakerStateMachine:
    PARAMS = BreakerParams(
        failure_threshold=2, cooldown_ns=100_000, max_jitter_ns=0
    )

    def test_trip_half_open_close_cycle(self):
        sim = Simulator()
        br = CircuitBreaker(self.PARAMS, sim, seed=0, source=0, destination=1)
        br.record_failure()
        assert br.state is BreakerState.CLOSED
        br.record_failure()
        assert br.state is BreakerState.OPEN
        assert not br.allows_send()
        assert br.opened_at_ns == 0
        sim.run()  # the half-open probe timer fires
        assert sim.now == 100_000
        assert br.state is BreakerState.HALF_OPEN
        assert br.allows_send()
        br.note_dispatch()  # the probe is on the wire
        assert not br.allows_send()  # exactly one probe at a time
        br.record_success()
        assert br.state is BreakerState.CLOSED
        assert br.consecutive_failures == 0
        assert [(t, a, b) for t, a, b in br.transitions] == [
            (0, "closed", "open"),
            (100_000, "open", "half-open"),
            (100_000, "half-open", "closed"),
        ]

    def test_reopen_escalates_the_cooldown_geometrically(self):
        sim = Simulator()
        br = CircuitBreaker(self.PARAMS, sim, seed=0, source=0, destination=1)
        br.record_failure()
        br.record_failure()  # open at t=0, cooldown 100us
        sim.run()
        assert br.state is BreakerState.HALF_OPEN
        br.record_failure()  # failed probe: re-open, cooldown 200us
        assert br.state is BreakerState.OPEN
        sim.run()
        assert sim.now == 300_000
        assert br.state is BreakerState.HALF_OPEN

    def test_transitions_are_seed_deterministic(self):
        jittery = BreakerParams(
            failure_threshold=1, cooldown_ns=100_000, max_jitter_ns=50_000
        )

        def drive():
            sim = Simulator()
            br = CircuitBreaker(jittery, sim, seed=7, source=0, destination=1)
            br.record_failure()
            sim.run()
            br.record_failure()
            sim.run()
            return br.transitions

        assert drive() == drive()


class TestBreakerOnTheWire:
    #: every copy doomed, no retransmissions: each send times out once
    LOSSY = FaultPlan(seed=1, doom_every=1)
    RETRY = RetryParams(ack_timeout_ns=50_000, max_jitter_ns=0, max_retries=0)

    def test_fail_fast_raises_before_booking_the_send(self):
        sim, registry, sender, _ = two_ports(
            retry=self.RETRY,
            plan=self.LOSSY,
            breaker=BreakerParams(
                failure_threshold=1,
                cooldown_ns=50_000_000,
                max_jitter_ns=0,
                fail_fast=True,
            ),
        )
        lost = []
        sender.send(1, "v", 64, lambda p: None, on_lost=lambda p, n: lost.append(p))
        sim.run_until(1_000_000)  # timeout fired, breaker open, loss declared
        assert len(lost) == 1
        with pytest.raises(CircuitOpenError) as info:
            sender.send(1, "v", 64, lambda p: None)
        assert info.value.source == 0
        assert info.value.destination == 1
        assert info.value.consecutive_failures == 1
        assert sender.layers[0].fast_failures == 1
        snap = registry.snapshot(sim.now)
        # The refused send was never booked: conservation is untouched.
        assert snap.get("/parcels{locality#0/total}/count/sent") == 1
        assert (
            snap.get("/overload{locality#0/total}/count/breaker-fast-failures")
            == 1
        )

    def test_open_breaker_parks_sends_instead_of_transmitting(self):
        sim, registry, sender, _ = two_ports(
            retry=self.RETRY,
            plan=self.LOSSY,
            breaker=BreakerParams(
                failure_threshold=1, cooldown_ns=50_000_000, max_jitter_ns=0
            ),
        )
        sender.send(1, "v", 64, lambda p: None, on_lost=lambda p, n: None)
        sim.run_until(1_000_000)
        assert sender.layers[0].breakers[1].state is BreakerState.OPEN
        sender.send(1, "v", 64, lambda p: None, on_lost=lambda p, n: None)
        sim.run_until(2_000_000)  # still inside the cooldown
        assert sender.waiting_sends == 1
        assert sender.waiting_for(1)[0].parcel_id == 2
        snap = registry.snapshot(sim.now)
        # Parked: counted as sent, but no wire copy yet (conservation says
        # one copy on the wire, from the first send only).
        assert snap.get("/parcels{locality#0/total}/count/sent") == 2
        assert snap.get("/overload{locality#0/total}/count/breaker-deferred") == 1
        assert snap.get("/overload{locality#0/total}/count/waiting-sends@gauge") == 1


# ---------------------------------------------------------------------------
# satellite: the bounded dead-letter ring
# ---------------------------------------------------------------------------


class TestDeadLetterRing:
    def test_overflow_evicts_oldest_and_counts(self):
        sim, registry, sender, _ = two_ports(
            plan=FaultPlan(seed=1, doom_every=1),  # every copy dies
            dead_letter_capacity=3,
        )
        for _ in range(8):
            sender.send(1, "v", 64, lambda p: None)
        sim.run()
        # The ring keeps the newest three; five were evicted, oldest first.
        assert [p.parcel_id for p in sender.dead_letters] == [6, 7, 8]
        assert sender.dead_letters_dropped == 5
        snap = registry.snapshot(sim.now)
        assert (
            snap.get("/parcels{locality#0/total}/count/dead-letters-dropped")
            == 5
        )

    def test_default_capacity_keeps_everything_small(self):
        sim, _, sender, _ = two_ports(plan=FaultPlan(seed=1, doom_every=1))
        for _ in range(8):
            sender.send(1, "v", 64, lambda p: None)
        sim.run()
        assert len(sender.dead_letters) == 8
        assert sender.dead_letters_dropped == 0


# ---------------------------------------------------------------------------
# the governor
# ---------------------------------------------------------------------------


def _signals(**overrides):
    base = dict(
        idle_rate=0.1,
        overhead_ratio=0.1,
        depth_per_worker=1.0,
        pending_miss_rate=0.1,
        shed_fraction=0.0,
    )
    base.update(overrides)
    return GovernorSignals(**base)


class TestGovernor:
    def test_high_qos_shed_forces_coarsen(self):
        # Premium-tier shedding coarsens even when overhead looks benign:
        # it is the one signal with no acceptable nonzero level.
        gov = OverloadGovernor(grain_ns=10_000)
        action = gov.observe(_signals(high_qos_shed_fraction=0.05))
        assert action.kind == "coarsen"
        assert "high-QoS" in action.reason
        assert gov.grain_ns == 20_000

    def test_high_qos_shed_at_max_grain_falls_through(self):
        gov = OverloadGovernor(grain_ns=4_000_000)
        action = gov.observe(_signals(high_qos_shed_fraction=0.05))
        assert action.kind == "hold"

    def test_from_run_reads_qos_aggregates(self):
        from repro.overload.admission import AdmissionParams
        from repro.overload.config import OverloadConfig
        from repro.qos import (
            PoissonArrivals,
            QosServiceConfig,
            Tenant,
            default_classes,
            run_qos_service,
        )

        batch, _, interactive = default_classes()
        # One core, a tight bound, and interactive offered at ~6x capacity:
        # even the premium tier must shed.
        tenants = [
            Tenant(0, "web", interactive, 4_000, PoissonArrivals(650.0)),
            Tenant(1, "etl", batch, 4_000, PoissonArrivals(650.0)),
        ]
        outcome = run_qos_service(
            tenants,
            QosServiceConfig(
                num_cores=1,
                window_ns=100_000,
                overload=OverloadConfig(
                    admission=AdmissionParams(max_depth=4, policy="shed")
                ),
            ),
        )
        signals = GovernorSignals.from_run(outcome.result)
        web = outcome.stats_for("web")
        assert web.shed > 0
        assert signals.high_qos_shed_fraction == pytest.approx(
            web.shed / web.arrived
        )

    def test_coarsens_under_overhead_and_backlog(self):
        gov = OverloadGovernor(grain_ns=10_000)
        action = gov.observe(_signals(overhead_ratio=0.8, shed_fraction=0.2))
        assert action.kind == "coarsen"
        assert gov.grain_ns == 20_000

    def test_coarsening_saturates_at_max_grain(self):
        gov = OverloadGovernor(grain_ns=MAX_GRAIN_NS)
        action = gov.observe(_signals(overhead_ratio=0.9, shed_fraction=0.5))
        assert action.kind == "hold"
        assert gov.grain_ns == MAX_GRAIN_NS

    def test_refines_when_starved_at_coarse_grain(self):
        gov = OverloadGovernor(grain_ns=100_000)
        action = gov.observe(
            _signals(idle_rate=0.6, pending_miss_rate=0.8)
        )
        assert action.kind == "refine"
        assert gov.grain_ns == 50_000

    def test_holds_inside_the_bounds(self):
        gov = OverloadGovernor(grain_ns=10_000)
        assert gov.observe(_signals()).kind == "hold"
        assert gov.grain_ns == 10_000
        assert len(gov.actions) == 1

    def test_initial_grain_validated(self):
        with pytest.raises(ValueError, match="outside"):
            OverloadGovernor(grain_ns=1)


# ---------------------------------------------------------------------------
# satellite: watchdog diagnosis under combined crash + drop
# ---------------------------------------------------------------------------


class TestWatchdogDiagnosis:
    def test_names_dead_cone_and_unacked_parcels(self):
        # Locality 0 crashes mid-producer while every parcel on the wire is
        # doomed: the diagnosis must name BOTH starvation causes — the
        # dependency cone that died with the crash, and the transport still
        # burning its retry budget.
        dist = DistRuntime(
            num_localities=2,
            cores_per_locality=2,
            seed=0,
            faults=FaultPlan(
                seed=1, doom_every=1, crashes=(CrashAt(0, 500_000),)
            ),
            retry=RetryParams(max_retries=10),
            watchdog_ns=2_000_000,
        )
        # A slow producer on locality 0 dies with the crash; its consumer's
        # proxy on locality 1 can never become ready.
        doomed_src = dist.async_(
            lambda: 7, locality=0, work=FixedWork(1_000_000)
        )
        dist.dataflow(
            lambda x: x + 1, [doomed_src], locality=1, work=FixedWork(1_000)
        )
        # A fast producer on locality 1 ships toward locality 0 over the
        # doomed wire: those copies retry until the watchdog fires.
        live_src = dist.async_(lambda: 3, locality=1, work=FixedWork(1_000))
        dist.dataflow(
            lambda x: x * x, [live_src], locality=0, work=FixedWork(1_000)
        )
        with pytest.raises(WatchdogTimeout) as info:
            dist.run()
        message = str(info.value)
        assert "awaiting ack" in message
        assert "depend on crashed locality 0" in message
