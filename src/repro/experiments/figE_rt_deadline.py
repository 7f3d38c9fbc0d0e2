"""figE: deadline-miss rate vs grain — the task-size trade-off as timeliness.

The paper measures grain against *throughput*: execution time of one
stencil sweep.  This figure asks the real-time question instead: a
four-task set (one urgent sporadic controller, two heavy aligned
periodic spinners, one low-priority logger sharing a bus with the
controller) runs on the simulated HPX runtime, and every job either
meets its deadline or misses it.  Subtask grain is the *preemption
granularity* — cooperative tasks yield only at chunk boundaries — so
the grain axis trades the same two walls as the paper's Fig. 3, in
deadline units:

- **fine wall**: every chunk pays the full task-management overhead;
  at small grains the inflated demand exceeds capacity and *everything*
  misses (the paper's fine-grain wall, priced in deadlines);
- **coarse wall**: with monolithic chunks there are no preemption
  points; the urgent task waits behind whole in-flight spinner jobs
  longer than its deadline budget (the starvation wall — lost
  parallelism here is lost *urgency*).

Between them sits a valley of near-zero miss rate, and the valley moves:
scaling ``task_overhead_ns`` up (the overhead regimes) pushes the fine
wall right, so the best grain strictly coarsens — the figure's headline
claim, and the paper's "bigger overhead wants bigger tasks" restated
for deadlines.

A second panel fixes the valley grain and sweeps the resource protocol:
with protocol ``none`` the LOW-priority logger holds the bus while
starved behind the spinners and the urgent task's wait exceeds its
whole deadline budget (priority inversion, counted against a threshold
equal to that budget); priority inheritance re-queues the boosted
holder and bounds the wait below the threshold; the immediate priority
ceiling never lets the inversion begin.

Every claim is asserted by :func:`shape_checks`, including per-task
conservation (``released == on_time + missed``) on every cell and a
bit-identical rerun.
"""

from __future__ import annotations

from repro.experiments.config import Scale
from repro.experiments.report import FigureResult, Series
from repro.rt import (
    PeriodicTaskSpec,
    RtServiceConfig,
    RtServiceOutcome,
    SporadicTaskSpec,
    TaskSet,
    run_rt_service,
)
from repro.verify.invariants import RERUN_IDENTICAL

FIGURE_ID = "figE"
TITLE = "Deadline-miss rate vs task grain across overhead regimes"
PAPER_CLAIMS = [
    "deadline-miss rate is U-shaped in grain: too-fine grains drown in "
    "per-chunk task-management overhead, too-coarse grains leave the "
    "urgent task stuck behind whole in-flight jobs",
    "the best grain strictly coarsens as task-management overhead grows "
    "— the paper's overhead/starvation trade-off priced in deadlines",
    "with no resource protocol the urgent task's blocked wait exceeds "
    "its whole deadline budget (priority inversion observed); priority "
    "inheritance bounds the wait below that budget and the priority "
    "ceiling prevents the inversion outright",
    "per-task conservation holds on every cell: every released job "
    "completes, on time or late — none are lost",
    "the configuration is bit-reproducible: miss sets, lateness samples "
    "and counters are identical across reruns",
]

PLATFORM = "haswell"
NUM_CORES = 2
WINDOW_NS = 2_400_000
#: grain sweep (ns); the full sweep spans both walls at every regime
GRAINS_FULL = (2_000, 4_000, 8_000, 16_000, 32_000, 64_000, 128_000)
GRAINS_SMOKE = (2_000, 8_000, 32_000, 128_000)
#: task-management overhead multipliers (the regimes)
FACTORS_FULL = (1.0, 4.0, 16.0)
FACTORS_SMOKE = (1.0, 16.0)
SCHEDULERS_FULL = ("rm", "rt-edf", "global-queue")
SCHEDULERS_SMOKE = ("rm", "rt-edf")
#: valley grain used by the protocol panel and the determinism rerun
VALLEY_GRAIN_NS = 8_000
#: a blocked wait longer than the urgent task's whole relative deadline
#: is, by itself, a guaranteed miss — the natural inversion threshold
INVERSION_THRESHOLD_NS = 48_000
PROTOCOLS_SWEPT = ("none", "inherit", "ceiling")


def taskset() -> TaskSet:
    """The figE task set (total utilization ~1.55 of 2 cores).

    ``ctrl`` is the urgent task: sporadic, tight deadline, needs the
    ``bus`` briefly.  The two ``spin`` tasks are deliberately released
    *in phase* so both cores are busy simultaneously — the coarse-grain
    wall needs whole in-flight jobs covering every core.  ``logger`` is
    the classic inversion ingredient: lowest rate (hence LOW priority
    under rate-monotonic assignment) with a long critical section on
    the bus the urgent task shares.
    """
    return TaskSet(
        tasks=(
            SporadicTaskSpec(
                name="ctrl",
                wcet_ns=12_000,
                relative_deadline_ns=48_000,
                min_separation_ns=100_000,
                resource="bus",
                critical_section_ns=4_000,
            ),
            PeriodicTaskSpec(
                name="spin-a",
                wcet_ns=104_000,
                relative_deadline_ns=640_000,
                period_ns=160_000,
                phase_ns=0,
                exec_variation=0.15,
            ),
            PeriodicTaskSpec(
                name="spin-b",
                wcet_ns=104_000,
                relative_deadline_ns=640_000,
                period_ns=160_000,
                phase_ns=0,
                exec_variation=0.15,
            ),
            PeriodicTaskSpec(
                name="logger",
                wcet_ns=40_000,
                relative_deadline_ns=800_000,
                period_ns=320_000,
                phase_ns=4_000,
                resource="bus",
                critical_section_ns=24_000,
            ),
        ),
        seed=3,
    )


def _small(scale: Scale) -> bool:
    return scale.name in ("smoke", "bench")


def _cell(
    ts: TaskSet,
    grain_ns: int,
    *,
    scheduler: str | None,
    overhead_factor: float = 1.0,
    protocol: str = "inherit",
) -> RtServiceOutcome:
    return run_rt_service(
        ts.with_grain(grain_ns),
        RtServiceConfig(
            platform=PLATFORM,
            num_cores=NUM_CORES,
            seed=1,
            window_ns=WINDOW_NS,
            protocol=protocol,
            scheduler=None if scheduler == "rt-edf" else scheduler,
            overhead_factor=overhead_factor,
            inversion_threshold_ns=INVERSION_THRESHOLD_NS,
        ),
    )


def run(scale: Scale) -> FigureResult:
    fig = FigureResult(
        figure_id=FIGURE_ID,
        title=TITLE,
        xlabel="subtask grain (ns)",
        ylabel="deadline-miss rate",
        logx=True,
    )
    grains = GRAINS_SMOKE if _small(scale) else GRAINS_FULL
    factors = FACTORS_SMOKE if _small(scale) else FACTORS_FULL
    schedulers = SCHEDULERS_SMOKE if _small(scale) else SCHEDULERS_FULL
    ts = taskset()
    fig.notes.append(
        f"scale={scale.name}; {PLATFORM} x{NUM_CORES} cores; task set "
        f"utilization {ts.utilization():.2f} over a {WINDOW_NS / 1e6:.1f} ms "
        f"window; overhead regimes x{', x'.join(f'{f:g}' for f in factors)}; "
        f"protocol panel at grain {VALLEY_GRAIN_NS} ns with inversion "
        f"threshold {INVERSION_THRESHOLD_NS} ns (= ctrl's relative deadline)"
    )

    conservation_violations = 0

    # -- panels A..: miss rate vs grain, one panel per scheduler -----------
    for scheduler in schedulers:
        panel = f"miss rate vs grain ({scheduler})"
        for factor in factors:
            points: list[tuple[float, float]] = []
            for grain_ns in grains:
                out = _cell(
                    ts, grain_ns, scheduler=scheduler, overhead_factor=factor
                )
                if not out.conserved():
                    conservation_violations += 1
                points.append((float(grain_ns), out.miss_rate()))
            fig.add_series(panel, Series(f"overhead x{factor:g}", points))

    # -- panel: resource protocols at the valley grain ---------------------
    inversions: list[tuple[float, float]] = []
    max_blocked: list[tuple[float, float]] = []
    ctrl_missed: list[tuple[float, float]] = []
    for index, protocol in enumerate(PROTOCOLS_SWEPT):
        out = _cell(
            ts, VALLEY_GRAIN_NS, scheduler="rm", protocol=protocol
        )
        if not out.conserved():
            conservation_violations += 1
        inversions.append((float(index), float(out.resources.inversions)))
        max_blocked.append(
            (float(index), float(out.resources.max_blocked_ns))
        )
        ctrl_missed.append(
            (float(index), float(out.stats_for("ctrl").missed))
        )
    panel = "resource protocols at valley grain"
    fig.add_series(panel, Series("inversions", inversions))
    fig.add_series(panel, Series("max blocked (ns)", max_blocked))
    fig.add_series(panel, Series("ctrl deadline misses", ctrl_missed))
    fig.notes.append(
        "protocol panel x axis: 0 = none, 1 = inherit, 2 = ceiling "
        "(rate-monotonic priorities on the priority-local scheduler)"
    )

    # -- summary: determinism and conservation -----------------------------
    first = _cell(ts, VALLEY_GRAIN_NS, scheduler="rm", protocol="none")
    rerun = _cell(ts, VALLEY_GRAIN_NS, scheduler="rm", protocol="none")
    deterministic = (
        first.missed_jobs() == rerun.missed_jobs()
        and RERUN_IDENTICAL.holds(first.result, rerun.result)
        and all(
            first.stats[i].lateness_ns == rerun.stats[i].lateness_ns
            for i in first.stats
        )
    )
    fig.add_series(
        "summary",
        Series(
            "determinism (1 = bit-identical rerun)",
            [(0.0, 1.0 if deterministic else 0.0)],
        ),
    )
    fig.add_series(
        "summary",
        Series(
            "conservation violations",
            [(0.0, float(conservation_violations))],
        ),
    )
    return fig


def _argmin_grain(points: list[tuple[float, float]]) -> float:
    """Grain with the lowest miss rate; ties break toward the finest."""
    best = min(m for _, m in points)
    return min(g for g, m in points if m == best)


def shape_checks(fig: FigureResult) -> list[str]:
    problems: list[str] = []

    def series_map(panel: str) -> dict[str, list[tuple[float, float]]]:
        if panel not in fig.panels:
            problems.append(f"{fig.figure_id}: panel {panel!r} missing")
            return {}
        return {s.label: sorted(s.points) for s in fig.panels[panel]}

    # -- the grain sweep panels --------------------------------------------
    sweep_panels = [p for p in fig.panels if p.startswith("miss rate vs grain")]
    if not sweep_panels:
        problems.append(f"{fig.figure_id}: no grain-sweep panels at all")
    for panel in sweep_panels:
        sweeps = series_map(panel)
        by_factor: list[tuple[float, list[tuple[float, float]]]] = []
        for label, points in sweeps.items():
            by_factor.append((float(label.rsplit("x", 1)[1]), points))
        by_factor.sort()
        if len(by_factor) < 2:
            problems.append(
                f"{fig.figure_id}: {panel}: need >= 2 overhead regimes to "
                "show the valley moving"
            )
            continue

        # U-shape at the baseline regime: both walls strictly above the
        # valley floor.
        _, base = by_factor[0]
        floor = min(m for _, m in base)
        if base[0][1] <= floor:
            problems.append(
                f"{fig.figure_id}: {panel}: no fine-grain wall at the "
                f"baseline regime (finest miss rate {base[0][1]:.2f} is "
                "the minimum)"
            )
        if base[-1][1] <= floor:
            problems.append(
                f"{fig.figure_id}: {panel}: no coarse-grain wall at the "
                f"baseline regime (coarsest miss rate {base[-1][1]:.2f} is "
                "the minimum)"
            )

        # Fine wall persists at the heaviest regime.
        _, heavy = by_factor[-1]
        if heavy[0][1] <= min(m for _, m in heavy):
            problems.append(
                f"{fig.figure_id}: {panel}: no fine-grain wall at the "
                "heaviest overhead regime"
            )

        # The headline: the best grain strictly coarsens with overhead.
        argmins = [_argmin_grain(points) for _, points in by_factor]
        if any(b <= a for a, b in zip(argmins, argmins[1:])):
            problems.append(
                f"{fig.figure_id}: {panel}: best grain does not strictly "
                f"coarsen with overhead (argmins {argmins})"
            )

    # -- the protocol panel -------------------------------------------------
    proto = series_map("resource protocols at valley grain")
    if proto:
        inversions = dict(proto["inversions"])
        blocked = dict(proto["max blocked (ns)"])
        missed = dict(proto["ctrl deadline misses"])
        none_x, inherit_x, ceiling_x = 0.0, 1.0, 2.0
        if inversions[none_x] <= 0:
            problems.append(
                f"{fig.figure_id}: protocol 'none' produced no priority "
                "inversion — there is nothing for inheritance to fix"
            )
        if inversions[inherit_x] != 0:
            problems.append(
                f"{fig.figure_id}: priority inheritance left "
                f"{inversions[inherit_x]:.0f} inversions"
            )
        if inversions[ceiling_x] != 0:
            problems.append(
                f"{fig.figure_id}: the priority ceiling left "
                f"{inversions[ceiling_x]:.0f} inversions"
            )
        if blocked[inherit_x] > INVERSION_THRESHOLD_NS:
            problems.append(
                f"{fig.figure_id}: inheritance did not bound blocking "
                f"(max wait {blocked[inherit_x]:.0f} ns > threshold "
                f"{INVERSION_THRESHOLD_NS} ns)"
            )
        if blocked[none_x] <= blocked[inherit_x]:
            problems.append(
                f"{fig.figure_id}: 'none' max blocked wait "
                f"({blocked[none_x]:.0f} ns) is not worse than "
                f"inheritance ({blocked[inherit_x]:.0f} ns)"
            )
        if blocked[ceiling_x] > blocked[inherit_x]:
            problems.append(
                f"{fig.figure_id}: the ceiling blocked longer "
                f"({blocked[ceiling_x]:.0f} ns) than inheritance "
                f"({blocked[inherit_x]:.0f} ns)"
            )
        if missed[none_x] < missed[inherit_x]:
            problems.append(
                f"{fig.figure_id}: ctrl missed fewer deadlines under "
                "'none' than under inheritance — the inversion is free?"
            )

    # -- summary -------------------------------------------------------------
    summary = series_map("summary")
    if summary:
        if dict(summary["determinism (1 = bit-identical rerun)"])[0.0] != 1.0:
            problems.append(
                f"{fig.figure_id}: two runs of the same cell disagreed — "
                "the RT stack broke determinism"
            )
        if dict(summary["conservation violations"])[0.0] != 0:
            problems.append(
                f"{fig.figure_id}: per-task conservation violated "
                "(released != on_time + missed)"
            )
    return problems
