"""The differential harness: one spec, every backend, one verdict.

A :class:`WorkloadSpec` is lowered onto each runtime by the Task Bench
driver's own :func:`repro.taskbench.driver.build_taskbench_graph`, one
grid per phase, except that instead of computing the literal ``1`` every
task computes a **structural hash** of its own position and its parents'
values::

    value(step, i) = stream_u64(seed, ROLE, phase, step, i, *parent_values)

Fold those values over the whole grid and you get a *fingerprint* that
pins the entire dependency wiring: reorder, drop, or rewire one edge
anywhere and the fingerprint changes with probability ~1 - 2^-64.  The
fingerprint is also computable from the spec alone (:func:`expected_result`
— no runtime, just the recurrence), which turns "did the runtime wire the
graph the spec describes?" into an integer comparison.

:func:`verify_spec` then runs the ladder:

1. **sim** (``Runtime``) — canonical reference; fingerprint vs the model
   (PF403), task conservation (PF402);
2. **sim rerun** — bit-identical time and counters (PF406);
3. **sim with check=True** — the dynamic checker stays clean (PF405);
4. **thread** (``ThreadRuntime``) — real OS threads must produce the same
   structural result (PF407);
5. **dist@1** (``DistRuntime``, one locality) — must agree with sim
   *bit-exactly*: fingerprint, execution time, and every counter (PF407,
   PF406), plus parcel conservation (PF401, trivially 0 == 0);
6. **dist@N** (only when the spec says so) — the faulted multi-locality
   run: parcel conservation under drops/duplicates (PF401), task and
   dependency-order conservation end-to-end (PF402/PF403);
7. **dist@N-crash** (``use_recovery`` specs) — the last locality dies
   halfway through the clean dist@N run with crash recovery armed:
   heartbeat detection, checkpoint restore, and lineage re-execution
   must reproduce the exact structural fingerprint (PF403), conserve
   application tasks (PF402) and parcels (PF401), and balance the
   recovery ledger (PF408);
8. **rt** (``use_rt`` specs) — a small fixed task set runs twice through
   :func:`repro.rt.service.run_rt_service` with the protocol and grain
   drawn from the spec seed: the deadline ledger must balance, blocked
   time must imply contention, and the miss set must replay
   bit-identically (PF409), with the underlying runs themselves
   bit-identical (PF406);
9. **dist@N-tail** (``use_tail`` specs) — the multi-locality run repeats
   with the last locality a 4x straggler and :class:`repro.tail.TailConfig`
   armed: gray detection, hedged parcels and speculative re-execution must
   leave the structural fingerprint exact (PF403), conserve application
   tasks (PF402) and wire copies hedges included (PF401), balance the
   first-wins ledger (PF410), never let the crash quorum declare the
   straggler, and replay bit-identically (PF406);
10. **sim in reference mode** — the sim run again, built inside
    :func:`repro.fastpath.reference`, so every fast path runs the code it
    shortcuts and checks its own invariant: same execution time and the
    same value for every counter (PF411).

``mutate`` is the planted-discrepancy hook the shrinker tests use: it may
rewrite any backend's :class:`StructuralResult` before comparison, letting
a test inject a synthetic semantic divergence and watch the net catch it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from repro import fastpath
from repro.analysis.dynamic import CheckError
from repro.analysis.findings import Finding
from repro.collector import paused
from repro.dist.runtime import DistConfig, DistRuntime
from repro.faults.plan import CrashAt, FaultPlan, Straggler, stream_u64
from repro.faults.transport import RetryParams
from repro.recovery import RecoveryConfig
from repro.runtime.runtime import RunResult, Runtime, RuntimeConfig
from repro.runtime.task import Priority
from repro.runtime.thread_executor import ThreadRuntime
from repro.taskbench.driver import build_taskbench_graph, make_placement
from repro.verify.invariants import (
    ANALYSIS_CLEAN,
    BACKENDS_AGREE,
    DEPENDENCY_ORDER_CONSERVED,
    FASTPATH_EXACT,
    PARCELS_CONSERVED,
    RECOVERY_CONSERVED,
    RERUN_IDENTICAL,
    RT_CONSERVED,
    SPECULATION_CONSERVED,
    TASKS_CONSERVED,
)
from repro.verify.spec import WorkloadSpec

#: role tags for the structural hashes (disjoint from every other stream)
_ROLE_VALUE = 0x80
_ROLE_FOLD = 0x81
_ROLE_PRIORITY = 0x82
_ROLE_QOS = 0x83
_ROLE_RT = 0x84

#: wall-clock ceiling for the thread backend's wait_idle
THREAD_TIMEOUT_S = 60.0

#: the mutate hook: (backend label, result) -> possibly-rewritten result
MutateHook = Callable[[str, "StructuralResult"], "StructuralResult"]


@dataclass(frozen=True)
class StructuralResult:
    """What a backend *computed*, independent of when it computed it."""

    backend: str
    total_tasks: int
    #: futures that never became ready (0 on a correct run)
    unready: int
    #: XOR-fold of every task's position-keyed value hash
    fingerprint: int
    #: tasks the runtime reports having executed (== total_tasks when known)
    tasks_executed: int


@dataclass
class VerifyReport:
    """Everything :func:`verify_spec` learned about one spec."""

    spec: WorkloadSpec
    findings: list[Finding] = field(default_factory=list)
    results: dict[str, StructuralResult] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings


def _task_priority(seed: int, phase: int, step: int, index: int) -> Priority:
    return Priority(stream_u64(seed, _ROLE_PRIORITY, phase, step, index) % 3)


def qos_classes_for(spec: WorkloadSpec):
    """The class palette a ``use_qos`` spec draws from: the top
    ``num_qos_classes`` of the three default tiers (interactive always
    included, so warp-on-wakeup is always exercised)."""
    from repro.qos.classes import default_classes

    return default_classes()[-spec.num_qos_classes:]


def _task_qos(spec: WorkloadSpec, classes, phase: int, step: int, index: int):
    return classes[
        stream_u64(spec.seed, _ROLE_QOS, phase, step, index) % len(classes)
    ]


def _phase_task(spec: WorkloadSpec, phase: int, pattern_name: str, qos_classes):
    """Phase ``phase``'s per-task hook for :func:`build_taskbench_graph`:
    the position-keyed hash body, a phase-qualified name, and the task's
    drawn priority and QoS class when the spec uses them."""
    seed = spec.seed

    def task(step: int, i: int):
        def body(*parent_values: int) -> int:
            return stream_u64(seed, _ROLE_VALUE, phase, step, i, *parent_values)

        kwargs = {}
        if spec.use_priorities:
            kwargs["priority"] = _task_priority(seed, phase, step, i)
        if qos_classes is not None:
            kwargs["qos"] = _task_qos(spec, qos_classes, phase, step, i)
        return body, f"verify:{pattern_name}[{phase}][{step}][{i}]", kwargs

    return task


@paused()
def build_verify_graph(rt, spec: WorkloadSpec, *, placement=None):
    """Lower ``spec`` onto any runtime, each phase one Task Bench grid;
    returns ``[(phase, step, index, future), ...]`` so the fold knows each
    future's grid position."""
    entries = []
    qos_classes = qos_classes_for(spec) if spec.use_qos else None
    for phase, tb in enumerate(spec.taskbench_specs()):
        task = _phase_task(spec, phase, tb.pattern_name, qos_classes)
        futures = build_taskbench_graph(rt, tb, placement=placement, task=task)
        entries += [
            (phase, *divmod(k, tb.width), f) for k, f in enumerate(futures)
        ]
    return entries


def _fold(spec: WorkloadSpec, backend: str, entries, tasks_executed: int):
    fingerprint = 0
    unready = 0
    for phase, step, i, f in entries:
        if not f.is_ready:
            unready += 1
            continue
        fingerprint ^= stream_u64(
            spec.seed, _ROLE_FOLD, phase, step, i, f.value
        )
    return StructuralResult(
        backend=backend,
        total_tasks=len(entries),
        unready=unready,
        fingerprint=fingerprint,
        tasks_executed=tasks_executed,
    )


def expected_result(spec: WorkloadSpec) -> StructuralResult:
    """The model: what *every* backend must compute, derived from the spec
    alone by running the value recurrence in plain Python."""
    fingerprint = 0
    for phase, tb in enumerate(spec.taskbench_specs()):
        prev: list[int] = []
        for step in range(tb.steps):
            cur = []
            for i in range(tb.width):
                parents = (prev[j] for j in tb.dependencies(step, i))
                value = stream_u64(
                    spec.seed, _ROLE_VALUE, phase, step, i, *parents
                )
                cur.append(value)
                fingerprint ^= stream_u64(
                    spec.seed, _ROLE_FOLD, phase, step, i, value
                )
            prev = cur
    return StructuralResult(
        backend="model",
        total_tasks=spec.total_tasks,
        unready=0,
        fingerprint=fingerprint,
        tasks_executed=spec.total_tasks,
    )


# -- backend runners ------------------------------------------------------------


def _runtime_config(spec: WorkloadSpec, *, check: bool = False) -> RuntimeConfig:
    return RuntimeConfig(
        platform=spec.platform,
        num_cores=spec.num_cores,
        scheduler=spec.scheduler,
        seed=spec.runtime_seed,
        check=check,
    )


def run_sim(
    spec: WorkloadSpec, *, check: bool = False
) -> tuple[StructuralResult, RunResult]:
    rt = Runtime(_runtime_config(spec, check=check))
    entries = build_verify_graph(rt, spec)
    result = rt.run()
    return _fold(spec, "sim", entries, result.tasks_executed), result


def run_threads(spec: WorkloadSpec) -> StructuralResult:
    with ThreadRuntime(
        num_workers=spec.num_cores, scheduler=spec.scheduler
    ) as rt:
        entries = build_verify_graph(rt, spec)
        rt.wait_idle(timeout_s=THREAD_TIMEOUT_S)
    ready = sum(1 for _, _, _, f in entries if f.is_ready)
    return _fold(spec, "thread", entries, ready)


def _dist_config(spec: WorkloadSpec, num_localities: int) -> DistConfig:
    faulted = num_localities > 1 and spec.faults_active
    return DistConfig(
        num_localities=num_localities,
        platform=spec.platform,
        cores_per_locality=spec.num_cores,
        scheduler=spec.scheduler,
        seed=spec.runtime_seed,
        faults=_wire_faults(spec) if faulted else None,
        # a lossy wire needs the ack/retransmit protocol or it starves
        retry=RetryParams() if faulted else None,
    )


def _wire_faults(spec: WorkloadSpec, **events) -> FaultPlan:
    """The spec's drop and duplicate rates on its fault seed, plus
    ``events`` (crashes, stragglers)."""
    return FaultPlan(
        seed=spec.fault_seed,
        drop_rate=spec.drop_rate,
        duplicate_rate=spec.duplicate_rate,
        **events,
    )


def _recovery_config(spec: WorkloadSpec, **events) -> DistConfig:
    """The base of the crash and tail legs: every locality, the spec's
    wire faults plus ``events``, and crash recovery armed."""
    return replace(
        _dist_config(spec, spec.num_localities),
        faults=_wire_faults(spec, **events),
        # the crash and tail layers ride the ack protocol
        retry=RetryParams(),
        # fuzz workloads are tiny, so checkpoint well below the default
        # cadence or the restore path would never see a durable entry
        crash_recovery=RecoveryConfig(checkpoint_interval_ns=100_000),
    )


def _run_dist(spec: WorkloadSpec, config: DistConfig, backend: str):
    """Build ``spec`` on a fresh :class:`DistRuntime`, wait for every task
    and fold the result.

    With crash recovery armed, ``tasks_executed`` is the *application*
    completion count (checkpoint ticks and replacement double-completions
    netted out), so PF402 holds on exactly the spec's tasks.
    """
    dist = DistRuntime(config)
    placement = make_placement(
        spec.placement, spec.width, config.num_localities
    )
    entries = build_verify_graph(dist, spec, placement=placement)
    result = dist.wait([f for _, _, _, f in entries])
    completed = (
        result.tasks_executed
        if config.crash_recovery is None
        else result.app_tasks_completed
    )
    return _fold(spec, backend, entries, completed), result


def run_dist(spec: WorkloadSpec, num_localities: int):
    return _run_dist(
        spec, _dist_config(spec, num_localities), f"dist@{num_localities}"
    )


def run_dist_crash(spec: WorkloadSpec, crash_at_ns: int):
    """The recovery leg: the last locality fail-stops at ``crash_at_ns``
    with crash recovery armed; the survivors must detect it, restore the
    checkpointed results, and re-execute the lost lineage — producing the
    spec's exact structural answer.
    """
    n = spec.num_localities
    config = _recovery_config(spec, crashes=(CrashAt(n - 1, crash_at_ns),))
    return _run_dist(spec, config, f"dist@{n}-crash")


def run_dist_tail(spec: WorkloadSpec):
    """The tail-tolerance leg: the last locality runs 4x slow with
    ``TailConfig`` armed — gray detection, hedged parcels, speculation.

    The straggler factor sits deliberately *inside* the crash detector's
    adaptive tolerance (``suspicion_after`` x the observed gap) and above
    the gray threshold (``DEGRADED_FACTOR`` 3x), so the quorum never
    declares it while the tail layer both flags it and speculates its
    tasks onto healthy survivors.  First-completion-wins must leave the
    structural fingerprint exact (a winning clone computes the same pure
    value), the application task count conserved, and the PF410 ledger
    balanced.
    """
    from repro.tail import TailConfig

    n = spec.num_localities
    config = replace(
        _recovery_config(spec, stragglers=(Straggler(n - 1, 4.0),)),
        # sweep fast relative to the tiny fuzz workloads, and hedge
        # aggressively so the machinery actually engages at this scale
        tail=TailConfig(check_interval_ns=25_000, hedge_min_delay_ns=5_000),
    )
    return _run_dist(spec, config, f"dist@{n}-tail")


def run_rt(spec: WorkloadSpec):
    """The real-time leg: one fixed three-task window whose protocol and
    grain are drawn from the spec seed.

    The set is deliberately tiny (a 200 us window on 2 cores) — the PF409
    laws are structural, so they violate at trivial sizes if they violate
    at all, and the corpus optimizes for specs per second.  ``ctrl`` and
    ``log`` contend for one resource so every protocol branch (grant,
    park, boost, re-queue) actually executes.
    """
    from repro.rt.model import PeriodicTaskSpec, SporadicTaskSpec, TaskSet
    from repro.rt.resources import PROTOCOLS
    from repro.rt.service import RtServiceConfig, run_rt_service

    protocol = PROTOCOLS[stream_u64(spec.seed, _ROLE_RT, 0) % len(PROTOCOLS)]
    grain_ns = (1_000, 2_000, 4_000)[stream_u64(spec.seed, _ROLE_RT, 1) % 3]
    taskset = TaskSet(
        seed=spec.seed,
        tasks=(
            SporadicTaskSpec(
                name="ctrl",
                wcet_ns=8_000,
                # tight enough that resource waits push some (not all)
                # corpus seeds over it — the miss-set replay check of
                # PF409 must compare nonempty sets somewhere
                relative_deadline_ns=12_000,
                min_separation_ns=50_000,
                resource="bus",
                critical_section_ns=2_000,
            ),
            PeriodicTaskSpec(
                name="spin",
                wcet_ns=30_000,
                relative_deadline_ns=120_000,
                period_ns=80_000,
                exec_variation=0.2,
            ),
            PeriodicTaskSpec(
                name="log",
                wcet_ns=16_000,
                relative_deadline_ns=160_000,
                period_ns=160_000,
                phase_ns=1_000,
                resource="bus",
                critical_section_ns=8_000,
            ),
        ),
    ).with_grain(grain_ns)
    return run_rt_service(
        taskset,
        RtServiceConfig(
            platform=spec.platform,
            num_cores=2,
            seed=spec.runtime_seed,
            window_ns=200_000,
            protocol=protocol,
        ),
    )


# -- the differential ladder ----------------------------------------------------


def verify_spec(
    spec: WorkloadSpec, *, mutate: MutateHook | None = None
) -> VerifyReport:
    """Run ``spec`` through the whole backend ladder; every violated
    invariant becomes a PF4xx finding in the report."""
    report = VerifyReport(spec)
    model = expected_result(spec)

    def post(backend: str, structural: StructuralResult) -> StructuralResult:
        if mutate is not None:
            structural = mutate(backend, structural)
        report.results[backend] = structural
        return structural

    def check_distributed(structural: StructuralResult, run) -> None:
        """The conservation checks every multi-locality leg owes."""
        report.findings += TASKS_CONSERVED.check(
            spec.total_tasks, structural.unready, structural.tasks_executed
        )
        report.findings += DEPENDENCY_ORDER_CONSERVED.check(
            model.fingerprint, structural.fingerprint,
            backend=structural.backend,
        )
        report.findings += PARCELS_CONSERVED.check(run)

    # 1. canonical sim run: the reference every other backend must match
    sim, sim_run = run_sim(spec)
    sim = post("sim", sim)
    report.findings += TASKS_CONSERVED.check(
        spec.total_tasks, sim.unready, sim.tasks_executed
    )
    report.findings += DEPENDENCY_ORDER_CONSERVED.check(
        model.fingerprint, sim.fingerprint, backend="sim"
    )

    # 2. rerun: same config, same spec — must replay bit-identically
    rerun, rerun_run = run_sim(spec)
    rerun = post("sim-rerun", rerun)
    report.findings += RERUN_IDENTICAL.check(sim_run, rerun_run)
    report.findings += BACKENDS_AGREE.check(sim, rerun)

    # 3. the dynamic checker must stay clean on a well-formed graph
    try:
        run_sim(spec, check=True)
    except CheckError as exc:
        report.findings += ANALYSIS_CLEAN.check(str(exc), backend="sim")

    # 4. real OS threads: same structure, no timing promises
    thread = post("thread", run_threads(spec))
    report.findings += BACKENDS_AGREE.check(sim, thread)

    # 5. DistRuntime at one locality must agree with Runtime *bit-exactly*
    dist1, dist1_run = run_dist(spec, 1)
    dist1 = post("dist@1", dist1)
    report.findings += BACKENDS_AGREE.check(sim, dist1)
    report.findings += PARCELS_CONSERVED.check(dist1_run)
    if dist1_run.execution_time_ns != sim_run.execution_time_ns:
        report.findings.append(
            Finding(
                "PF407",
                "backend divergence: DistRuntime@1 finished at "
                f"{dist1_run.execution_time_ns} ns, Runtime at "
                f"{sim_run.execution_time_ns} ns — single-locality "
                "equivalence must be bit-exact",
                file="<invariant>",
            )
        )
    else:
        sim_counters = dict(sim_run.counters.values)
        dist_counters = dict(dist1_run.per_locality[0].values)
        if sim_counters != dist_counters:
            diff = sorted(
                k
                for k in set(sim_counters) | set(dist_counters)
                if sim_counters.get(k) != dist_counters.get(k)
            )
            report.findings.append(
                Finding(
                    "PF407",
                    "backend divergence: DistRuntime@1 counters differ "
                    f"from Runtime on {', '.join(diff[:3])}"
                    + (f" (+{len(diff) - 3} more)" if len(diff) > 3 else ""),
                    file="<invariant>",
                )
            )

    # 6. the faulted multi-locality leg (structure + conservation only:
    #    timing legitimately differs once parcels cross the wire)
    if spec.num_localities > 1:
        distn, distn_run = run_dist(spec, spec.num_localities)
        distn = post(f"dist@{spec.num_localities}", distn)
        check_distributed(distn, distn_run)

        # 7. kill a locality mid-run; recovery must restore the answer
        if spec.use_recovery:
            crash_at = max(1, distn_run.execution_time_ns // 2)
            distc, distc_run = run_dist_crash(spec, crash_at)
            distc = post(distc.backend, distc)
            check_distributed(distc, distc_run)
            report.findings += RECOVERY_CONSERVED.check(distc_run)
            if distc_run.crashes_detected != 1:
                report.findings.append(
                    Finding(
                        "PF408",
                        "recovery conservation violated: expected exactly "
                        "1 declared crash on the recovery leg, got "
                        f"{distc_run.crashes_detected}",
                        file="<invariant>",
                    )
                )

        # 9. slow a locality down with the tail layer armed: speculation's
        #    first-wins races must leave the structural answer exact, the
        #    ledgers balanced, and the straggler undeclared
        if spec.use_tail:
            distt, distt_run = run_dist_tail(spec)
            distt = post(distt.backend, distt)
            check_distributed(distt, distt_run)
            report.findings += SPECULATION_CONSERVED.check(distt_run)
            if distt_run.crashes_detected != 0:
                report.findings.append(
                    Finding(
                        "PF410",
                        "speculation conservation violated: the gray "
                        "detector's straggler was declared dead by the "
                        "crash quorum ("
                        f"{distt_run.crashes_detected} declaration(s)) — "
                        "degraded must never feed the crash declaration",
                        file="<invariant>",
                    )
                )
            distt2, distt2_run = run_dist_tail(spec)
            report.findings += RERUN_IDENTICAL.check(distt_run, distt2_run)
            report.findings += BACKENDS_AGREE.check(distt, distt2)

    # 8. the real-time leg: the deadline ledger balances and replays
    if spec.use_rt:
        rt_first = run_rt(spec)
        rt_second = run_rt(spec)
        report.findings += RT_CONSERVED.check(rt_first, rt_second)
        report.findings += RERUN_IDENTICAL.check(
            rt_first.result, rt_second.result
        )

    # 10. the sim run with every fast path off and checked: same numbers
    try:
        with fastpath.reference():
            _, reference_run = run_sim(spec)
    except fastpath.FastPathError as exc:
        reference_run = exc
    report.findings += FASTPATH_EXACT.check(sim_run, reference_run)

    return report


def flip_fingerprint(backend: str) -> MutateHook:
    """A canned synthetic discrepancy: corrupt ``backend``'s fingerprint.

    The planted-bug hook for tests and ``fuzz --plant``: proves the net
    catches a single-bit semantic divergence and shrinks it.
    """

    def hook(label: str, result: StructuralResult) -> StructuralResult:
        if label == backend:
            return replace(result, fingerprint=result.fingerprint ^ 1)
        return result

    return hook
