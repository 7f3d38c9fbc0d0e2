"""figO: overload control — goodput plateaus instead of collapsing.

The paper's task-size trade-off (Figs. 3-5) is measured closed-loop: the
stencil offers exactly as much work as the machine absorbs.  This figure
opens the loop — tasks arrive on a virtual-time schedule regardless of
completion — and asks what each overload-control layer buys when offered
load exceeds capacity:

- **admission control** (panel A): an unbounded runtime accepts every
  task, so its completion time diverges linearly with offered load while
  its queue depth grows without bound.  A bounded queue with the ``shed``
  policy keeps completion time pinned near the arrival window (excess is
  rejected with a typed :class:`~repro.overload.errors.TaskShedError`);
  ``block`` meters producer backpressure in simulated time; ``spill``
  parks the excess in an unbounded cold lane and re-admits it as the hot
  queue drains.  Goodput (useful execution per core-second) rises with
  load and then *plateaus* at capacity for every bounded policy.
- **credit-based flow control** (panel B): per-destination sender windows
  bound in-flight parcels on the distributed stencil's halo exchange; the
  baseline's unacked high-water mark exceeds the windows that the credit
  runs never violate.
- **breakers under degradation** (panel D): on a link degraded 60x, the
  retry transport retransmits every timed-out halo into the dead window;
  a circuit breaker opens after a few consecutive failures and parks
  traffic until a half-open probe succeeds, capping retransmissions.
- **graceful degradation** (panel E): the :class:`~repro.overload.
  governor.OverloadGovernor` watches idle-rate (Eq. 1), overhead ratio
  and queue depth across epochs of sustained 3x overload, coarsens the
  grain, and drives goodput from the overhead-collapse regime to a
  plateau an ungoverned fine-grain run never reaches.

Every claim is asserted by :func:`shape_checks`; panel C additionally
runs the Task Bench ``spread`` pattern distributed under tight credit
windows to show flow control composes with an irregular communication
pattern (the run self-verifies its dependency sums), and the summary
panel asserts bit-identical reruns of the heaviest configurations plus
the admission conservation identity ``offered == completed + shed``.
"""

from __future__ import annotations

from repro.apps.stencil1d_dist import DistStencilConfig, run_dist_stencil
from repro.dist import DistConfig, DistRunResult, FaultPlan, RetryParams
from repro.experiments.config import Scale
from repro.experiments.report import FigureResult, Series
from repro.faults.plan import LinkDegradation
from repro.overload import (
    AdmissionParams,
    BreakerParams,
    CreditParams,
    GovernorSignals,
    OverloadConfig,
    OverloadGovernor,
)
from repro.qos import (
    PeriodicArrivals,
    QosServiceConfig,
    QosServiceOutcome,
    Tenant,
    run_qos_service,
)
from repro.taskbench import TaskBenchSpec, run_taskbench_dist
from repro.verify.invariants import (
    ADMISSION_CONSERVED,
    PARCELS_CONSERVED,
    RERUN_IDENTICAL,
    SPILL_CONSERVED,
)

FIGURE_ID = "figO"
TITLE = "Overload control: admission, credits, breakers, graceful degradation"
PAPER_CLAIMS = [
    "an unbounded runtime's completion time diverges with offered load "
    "while every bounded admission policy keeps queue depth at its bound "
    "and goodput plateaus at capacity",
    "credit-based flow control bounds in-flight parcels per destination "
    "at the configured window; the uncontrolled baseline exceeds it",
    "a per-link circuit breaker caps the retransmission storm a degraded "
    "link otherwise provokes from the retry transport",
    "the overload governor coarsens grain under sustained overload until "
    "goodput plateaus, beating the ungoverned fine-grain configuration",
    "the whole control stack is bit-reproducible and conserves work: "
    "offered == completed + shed, and every wire copy meets one fate",
]

PLATFORM = "haswell"
NUM_CORES = 8
#: offered load as a multiple of machine capacity (panel A's x axis)
UTILIZATIONS = (0.5, 1.0, 2.0, 4.0)
#: hot-queue bound for every bounded admission policy
ADMISSION_BOUND = 64
#: admission overflow policies swept against the unbounded baseline
POLICIES = ("unbounded", "block", "shed", "spill")
#: per-destination credit windows swept in panel B (0 = uncontrolled)
CREDIT_WINDOWS = (4, 8)
RETRY = RetryParams(max_retries=8)
BREAKER = BreakerParams(failure_threshold=2, cooldown_ns=400_000)
GOVERNOR_UTILIZATION = 3.0


def _arrival_window_ns(scale: Scale) -> int:
    # The window must dwarf the bounded policies' O(bound) drain tail, or
    # the shed-stays-bounded check drowns in the tail; 300 us is cheap
    # enough to keep even at smoke scale.
    del scale
    return 300_000


def _stencil_steps(scale: Scale) -> int:
    return 8 if scale.name == "smoke" else 12


def _governor_epochs(scale: Scale) -> int:
    return 5 if scale.name == "smoke" else 6


def _admission_config(policy: str) -> OverloadConfig:
    if policy == "unbounded":
        # max_depth=None observes (offered/peak-depth counters) but never
        # rejects: the collapse baseline.
        return OverloadConfig(admission=AdmissionParams())
    return OverloadConfig(
        admission=AdmissionParams(max_depth=ADMISSION_BOUND, policy=policy)
    )


def _offered_run(
    scale: Scale,
    utilization: float,
    policy: str,
    *,
    grain_ns: int = 2_500,
    seed: int = 0,
) -> QosServiceOutcome:
    # Unclassed, so no /qos counter feeds the governor's high-QoS signal;
    # a gap of grain / (cores * u) offers u times the machine's capacity.
    offered = Tenant(
        0, "offered", None, grain_ns,
        PeriodicArrivals(grain_ns / (NUM_CORES * utilization)),
    )
    config = QosServiceConfig(
        platform=PLATFORM,
        num_cores=NUM_CORES,
        seed=seed,
        window_ns=_arrival_window_ns(scale),
        overload=_admission_config(policy),
        scheduler="priority-local",
    )
    return run_qos_service([offered], config)


def _dist_stencil(
    scale: Scale,
    *,
    credits: CreditParams | None = None,
    breaker: BreakerParams | None = None,
    faults: FaultPlan | None = None,
) -> DistRunResult:
    overload = None
    if credits is not None or breaker is not None:
        overload = OverloadConfig(credits=credits, breaker=breaker)
    dist_config = DistConfig(
        num_localities=2,
        platform=PLATFORM,
        cores_per_locality=4,
        retry=RETRY,
        faults=faults,
        overload=overload,
    )
    outcome = run_dist_stencil(
        dist_config,
        DistStencilConfig(
            total_points=16_384,
            partition_points=1_024,
            time_steps=_stencil_steps(scale),
            # Cyclic decomposition crosses the network on every adjacent
            # pair: the halo traffic that makes windows and breakers bite.
            decomposition="cyclic",
        ),
    )
    PARCELS_CONSERVED.require(outcome.result)
    return outcome.result


def _degradation_plan() -> FaultPlan:
    """A 3 ms window in which the 0->1 link runs at 60x latency."""
    return FaultPlan(
        degradations=(
            LinkDegradation(
                start_ns=50_000,
                end_ns=3_050_000,
                latency_factor=60.0,
                src=0,
                dst=1,
            ),
        )
    )


def run(scale: Scale) -> FigureResult:
    fig = FigureResult(
        figure_id=FIGURE_ID,
        title=TITLE,
        xlabel="offered load (x capacity) / window / epoch",
        ylabel="goodput, time (s), depth, parcel counts",
        logx=False,
    )
    window_ns = _arrival_window_ns(scale)
    fig.notes.append(
        f"scale={scale.name}; {PLATFORM} x{NUM_CORES} cores; open-loop "
        f"arrivals over a {window_ns / 1e3:.0f} us window; admission bound "
        f"{ADMISSION_BOUND}; credit windows {CREDIT_WINDOWS}; breaker "
        f"threshold {BREAKER.failure_threshold} on a 60x-degraded link"
    )

    # -- panel A: admission policies under an offered-load sweep -----------
    conservation_violations = 0
    for policy in POLICIES:
        goodput: list[tuple[float, float]] = []
        times: list[tuple[float, float]] = []
        peaks: list[tuple[float, float]] = []
        shed: list[tuple[float, float]] = []
        backpressure: list[tuple[float, float]] = []
        readmitted: list[tuple[float, float]] = []
        for utilization in UTILIZATIONS:
            out = _offered_run(scale, utilization, policy)
            result = out.result
            offered = out.stats[0]
            if not ADMISSION_CONSERVED.holds(
                offered.arrived, offered.completed, offered.shed
            ):
                conservation_violations += 1
            if policy == "spill" and not SPILL_CONSERVED.holds(result):
                conservation_violations += 1
            goodput.append((utilization, out.goodput))
            times.append((utilization, result.execution_time_s))
            peaks.append((utilization, result.peak_queue_depth))
            shed.append((utilization, float(offered.shed)))
            backpressure.append(
                (utilization, result.backpressure_wait_ns / 1e9)
            )
            readmitted.append((utilization, result.tasks_readmitted))
        fig.add_series("A admission: goodput", Series(policy, goodput))
        fig.add_series(
            "A admission: completion time (s)", Series(policy, times)
        )
        fig.add_series("A admission: peak queue depth", Series(policy, peaks))
        if policy == "shed":
            fig.add_series("A admission: accounting", Series("shed", shed))
        if policy == "block":
            fig.add_series(
                "A admission: accounting",
                Series("backpressure wait (s)", backpressure),
            )
        if policy == "spill":
            fig.add_series(
                "A admission: accounting", Series("readmitted", readmitted)
            )

    # -- panel B: credit windows on the distributed stencil ----------------
    hwm_points: list[tuple[float, float]] = []
    credit_times: list[tuple[float, float]] = []
    baseline = _dist_stencil(scale)
    hwm_points.append((0.0, float(baseline.max_unacked_in_flight)))
    credit_times.append((0.0, baseline.execution_time_s))
    for window in CREDIT_WINDOWS:
        result = _dist_stencil(scale, credits=CreditParams(window=window))
        hwm_points.append((float(window), float(result.max_unacked_in_flight)))
        credit_times.append((float(window), result.execution_time_s))
    fig.add_series(
        "B credits (dist stencil)",
        Series("max unacked in flight", hwm_points),
    )
    fig.add_series(
        "B credits (dist stencil)", Series("completion time (s)", credit_times)
    )

    # -- panel C: credits compose with an irregular pattern ----------------
    spread_spec = TaskBenchSpec(
        pattern="spread",
        width=16 if scale.name == "smoke" else 24,
        steps=8 if scale.name == "smoke" else 12,
    )
    spread = run_taskbench_dist(
        DistConfig(
            num_localities=2,
            platform=PLATFORM,
            cores_per_locality=4,
            retry=RETRY,
            overload=OverloadConfig(credits=CreditParams(window=4)),
        ),
        spread_spec,
    )
    PARCELS_CONSERVED.require(spread)
    fig.add_series(
        "C taskbench spread + credits",
        Series(
            "tasks executed / max unacked",
            [
                (0.0, float(spread.tasks_executed)),
                (1.0, float(spread.max_unacked_in_flight)),
            ],
        ),
    )

    # -- panel D: breaker vs no breaker on a degraded link -----------------
    degraded_base = _dist_stencil(scale, faults=_degradation_plan())
    degraded_breaker = _dist_stencil(
        scale, breaker=BREAKER, faults=_degradation_plan()
    )
    fig.add_series(
        "D breaker under 60x degradation",
        Series(
            "retransmissions",
            [
                (0.0, float(degraded_base.parcels_retransmitted)),
                (1.0, float(degraded_breaker.parcels_retransmitted)),
            ],
        ),
    )
    fig.add_series(
        "D breaker under 60x degradation",
        Series(
            "breaker transitions",
            [
                (0.0, float(degraded_base.breaker_transitions)),
                (1.0, float(degraded_breaker.breaker_transitions)),
            ],
        ),
    )
    fig.add_series(
        "D breaker under 60x degradation",
        Series(
            "completion time (s)",
            [
                (0.0, degraded_base.execution_time_s),
                (1.0, degraded_breaker.execution_time_s),
            ],
        ),
    )

    # -- panel E: the governor closes the loop ------------------------------
    governor = OverloadGovernor(grain_ns=1_000)
    governed: list[tuple[float, float]] = []
    grains: list[tuple[float, float]] = []
    epochs = _governor_epochs(scale)
    for epoch in range(epochs):
        out = _offered_run(
            scale,
            GOVERNOR_UTILIZATION,
            "shed",
            grain_ns=governor.grain_ns,
            seed=epoch,
        )
        signals = GovernorSignals.from_run(out.result)
        action = governor.observe(signals)
        governed.append((float(epoch), out.goodput))
        grains.append((float(epoch), float(action.grain_ns)))
    ungoverned = _offered_run(
        scale, GOVERNOR_UTILIZATION, "shed", grain_ns=1_000, seed=0
    )
    fig.add_series("E governor epochs", Series("governed goodput", governed))
    fig.add_series("E governor epochs", Series("grain (ns)", grains))
    fig.add_series(
        "E governor epochs",
        Series(
            "ungoverned goodput (fine grain)",
            [(float(e), ungoverned.goodput) for e in range(epochs)],
        ),
    )
    fig.notes.append(
        "governor actions: "
        + ", ".join(f"{a.kind}@{a.grain_ns}ns" for a in governor.actions)
    )

    # -- summary: determinism and conservation ------------------------------
    shed_a = _offered_run(scale, max(UTILIZATIONS), "shed")
    shed_b = _offered_run(scale, max(UTILIZATIONS), "shed")
    admission_deterministic = RERUN_IDENTICAL.holds(shed_a.result, shed_b.result)
    breaker_rerun = _dist_stencil(
        scale, breaker=BREAKER, faults=_degradation_plan()
    )
    breaker_deterministic = RERUN_IDENTICAL.holds(breaker_rerun, degraded_breaker)
    summary = "summary"
    fig.add_series(
        summary,
        Series(
            "determinism (1 = bit-identical rerun)",
            [
                (0.0, 1.0 if admission_deterministic else 0.0),
                (1.0, 1.0 if breaker_deterministic else 0.0),
            ],
        ),
    )
    fig.add_series(
        summary,
        Series(
            "conservation violations",
            [(0.0, float(conservation_violations))],
        ),
    )
    return fig


def shape_checks(fig: FigureResult) -> list[str]:
    problems: list[str] = []

    def series_map(panel: str) -> dict[str, dict[float, float]]:
        if panel not in fig.panels:
            problems.append(f"{fig.figure_id}: panel {panel!r} missing")
            return {}
        return {s.label: dict(s.points) for s in fig.panels[panel]}

    lo, mid, hi = UTILIZATIONS[0], 2.0, max(UTILIZATIONS)

    # -- A: divergence vs plateau ------------------------------------------
    times = series_map("A admission: completion time (s)")
    goodput = series_map("A admission: goodput")
    peaks = series_map("A admission: peak queue depth")
    accounting = series_map("A admission: accounting")
    if times:
        unbounded = times["unbounded"]
        if unbounded[hi] < 3.0 * unbounded[1.0]:
            problems.append(
                f"{fig.figure_id}: unbounded completion time at {hi}x load "
                f"({unbounded[hi]:.6f} s) did not diverge vs 1x "
                f"({unbounded[1.0]:.6f} s)"
            )
        shed_t = times["shed"]
        if shed_t[hi] > 1.5 * shed_t[1.0]:
            problems.append(
                f"{fig.figure_id}: shed completion time at {hi}x load "
                f"({shed_t[hi]:.6f} s) not bounded near the 1x time "
                f"({shed_t[1.0]:.6f} s)"
            )
    if goodput:
        for policy in POLICIES:
            g = goodput[policy]
            if g[hi] < g[lo]:
                problems.append(
                    f"{fig.figure_id}: {policy} goodput fell below the "
                    f"underloaded point ({g[hi]:.3f} < {g[lo]:.3f})"
                )
            if abs(g[hi] - g[mid]) > 0.1 * max(g[mid], 1e-9):
                problems.append(
                    f"{fig.figure_id}: {policy} goodput did not plateau "
                    f"({g[mid]:.3f} at {mid}x vs {g[hi]:.3f} at {hi}x)"
                )
    if peaks:
        for policy in ("block", "shed", "spill"):
            peak = peaks[policy][hi]
            if peak > ADMISSION_BOUND:
                problems.append(
                    f"{fig.figure_id}: {policy} peak queue depth {peak:.0f} "
                    f"exceeds the admission bound {ADMISSION_BOUND}"
                )
        if peaks["unbounded"][hi] <= 2 * ADMISSION_BOUND:
            problems.append(
                f"{fig.figure_id}: unbounded peak depth "
                f"({peaks['unbounded'][hi]:.0f}) stayed near the bound — "
                "the overload sweep is not actually overloading"
            )
    if accounting:
        if accounting["shed"][hi] <= 0:
            problems.append(
                f"{fig.figure_id}: shed policy shed nothing at {hi}x load"
            )
        if accounting["backpressure wait (s)"][hi] <= 0:
            problems.append(
                f"{fig.figure_id}: block policy metered no backpressure "
                f"at {hi}x load"
            )
        if accounting["readmitted"][hi] <= 0:
            problems.append(
                f"{fig.figure_id}: spill policy re-admitted nothing at "
                f"{hi}x load"
            )

    # -- B: credit windows bound in-flight parcels -------------------------
    credits = series_map("B credits (dist stencil)")
    if credits:
        hwm = credits["max unacked in flight"]
        for window in CREDIT_WINDOWS:
            if hwm[float(window)] > window:
                problems.append(
                    f"{fig.figure_id}: credit window {window} violated — "
                    f"max unacked in flight {hwm[float(window)]:.0f}"
                )
        if hwm[0.0] <= max(CREDIT_WINDOWS):
            problems.append(
                f"{fig.figure_id}: uncontrolled baseline high-water "
                f"({hwm[0.0]:.0f}) does not exceed the largest window "
                f"({max(CREDIT_WINDOWS)}) — the workload cannot show "
                "flow control working"
            )

    # -- C: credits compose with the spread pattern ------------------------
    spread = series_map("C taskbench spread + credits")
    if spread:
        points = spread["tasks executed / max unacked"]
        if points[0.0] <= 0:
            problems.append(
                f"{fig.figure_id}: taskbench spread under credits executed "
                "no tasks"
            )
        if points[1.0] > 4:
            problems.append(
                f"{fig.figure_id}: taskbench spread violated its credit "
                f"window (max unacked {points[1.0]:.0f} > 4)"
            )

    # -- D: the breaker caps the storm -------------------------------------
    breaker = series_map("D breaker under 60x degradation")
    if breaker:
        retx = breaker["retransmissions"]
        if retx[1.0] >= retx[0.0]:
            problems.append(
                f"{fig.figure_id}: breaker did not reduce retransmissions "
                f"({retx[1.0]:.0f} with vs {retx[0.0]:.0f} without)"
            )
        if breaker["breaker transitions"][1.0] < 2:
            problems.append(
                f"{fig.figure_id}: breaker never cycled "
                f"({breaker['breaker transitions'][1.0]:.0f} transitions)"
            )

    # -- E: governed goodput plateaus above the ungoverned baseline --------
    governor = series_map("E governor epochs")
    if governor:
        governed = sorted(governor["governed goodput"].items())
        ungoverned = governor["ungoverned goodput (fine grain)"][0.0]
        first, last = governed[0][1], governed[-1][1]
        prev = governed[-2][1]
        if last < 1.2 * ungoverned:
            problems.append(
                f"{fig.figure_id}: governed goodput ({last:.3f}) did not "
                f"beat the ungoverned fine grain ({ungoverned:.3f}) by 20%"
            )
        if last < first:
            problems.append(
                f"{fig.figure_id}: governed goodput regressed across "
                f"epochs ({first:.3f} -> {last:.3f})"
            )
        if abs(last - prev) > 0.1 * max(prev, 1e-9):
            problems.append(
                f"{fig.figure_id}: governed goodput still moving at the "
                f"final epoch ({prev:.3f} -> {last:.3f}) — no plateau"
            )

    # -- summary: determinism and conservation ------------------------------
    summary = series_map("summary")
    if summary:
        determinism = summary["determinism (1 = bit-identical rerun)"]
        if determinism[0.0] != 1.0:
            problems.append(
                f"{fig.figure_id}: two runs of the shed configuration "
                "disagreed — admission control broke determinism"
            )
        if determinism[1.0] != 1.0:
            problems.append(
                f"{fig.figure_id}: two runs of the breaker configuration "
                "disagreed — breaker jitter is not a pure function of seed"
            )
        if summary["conservation violations"][0.0] != 0:
            problems.append(
                f"{fig.figure_id}: admission conservation violated "
                "(offered != completed + shed, or spill leaked tasks)"
            )
    return problems
