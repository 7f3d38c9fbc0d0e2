"""figH: tail tolerance — grain size × straggler severity.

The paper's U-curve prices task-management overhead against starvation on
a healthy machine.  Gray failure changes the coarse end of that bargain:
a straggling locality does not crash — its heartbeats still arrive, just
late — so the crash detector (correctly) never fires, and every
synchronization point that crosses the slow locality is stretched by the
straggler factor.  The finer the grain, the more synchronization points
per unit of work, so *without* tail tolerance the execution-time-optimal
grain coarsens as stragglers get worse: coarse tasks expose fewer
rendezvous to the slow node.

``repro.tail`` attacks the same tail from the other side: the gray
detector flags the straggler ``degraded`` (a third state — never a crash
declaration), hedged parcels insure individual sends, and speculative
re-execution clones the degraded locality's pending tasks onto healthy
survivors, first completion wins.  The sweep runs task grain × straggler
severity with both legs — tail tolerance on and off — over a ring of
dependency chains with constant total work per cell, and asserts:

- **hedged p99 stays bounded** — at every severity the best-grain p99
  makespan of the tail-on leg is within ``P99_BOUND``× the fault-free
  best, while the tail-off leg diverges beyond it at the top severity;
- **the unprotected optimum coarsens monotonically** — the tail-off best
  grain is non-decreasing in severity and strictly coarser at the top
  severity than fault-free, while the tail-on leg *restores* the
  fault-free optimum (speculation absorbs the synchronization tax that
  was pushing the minimum coarser);
- **work amplification respects the budget** — every cell's speculated
  clones stay within ``MAX_SPECULATION_FRAC`` of completed work
  (the PF410 ledger's budget term, asserted per cell);
- **reruns are bit-identical** — a straggled, hedged, speculating cell
  re-run from the same seed reproduces values, makespan, and every
  counter exactly, and all final values match a serial reference.

The gray/crash boundary is part of the claim: every cell must report
``crashes_detected == 0`` (stragglers are degraded, never declared) and
every straggled tail-on cell must have actually flagged the straggler.
"""

from __future__ import annotations

from repro.collector import paused
from repro.dist import (
    DistConfig,
    DistRunResult,
    DistRuntime,
    FaultPlan,
    RetryParams,
    TailConfig,
)
from repro.experiments.config import Scale
from repro.experiments.report import FigureResult, Series
from repro.faults.plan import Straggler
from repro.recovery import RecoveryConfig
from repro.runtime.future import Future
from repro.runtime.work import FixedWork
from repro.verify.invariants import (
    PARCELS_CONSERVED,
    RERUN_IDENTICAL,
    SPECULATION_CONSERVED,
)

FIGURE_ID = "figH"
TITLE = "Tail tolerance: grain vs straggler severity (simulated Haswell)"
PAPER_CLAIMS = [
    "a straggling locality is a gray failure: its heartbeats arrive late "
    "but arrive, so the crash quorum never fires and every cross-locality "
    "synchronization point is stretched by the straggler factor",
    "without tail tolerance the execution-time-optimal grain coarsens "
    "monotonically with straggler severity — fine grains multiply the "
    "rendezvous that expose the slow node",
    "with hedged parcels and speculative re-execution the p99 makespan at "
    "the best grain stays within a small constant of fault-free while the "
    "unprotected leg diverges, and the fault-free optimum grain is restored",
    "speculation is budgeted: cloned work never exceeds "
    "MAX_SPECULATION_FRAC of completed tasks, and a rerun of the same "
    "seed is bit-identical",
]

NUM_LOCALITIES = 4
CORES_PER_LOCALITY = 2
PLATFORM = "haswell"
SEED = 19
#: the locality that straggles (never crashes)
STRAGGLER_LOCALITY = NUM_LOCALITIES - 1
#: straggler severities swept: healthy, bad, pathological
SEVERITIES = (1.0, 8.0, 32.0)
#: per-step per-locality work (ns), held constant across the grain sweep
STEP_WORK_NS = 200_000
#: chain widths swept; grain = STEP_WORK_NS / width, so fine grains mean
#: many small synchronized tasks and width 1 starves one of the two cores
WIDTHS = (8, 4, 2, 1)
#: a small parcel-drop rate so hedged sends genuinely race retransmits
DROP_RATE = 0.02
#: hedged-leg p99 must stay within this multiple of the fault-free best
#: while the unhedged leg at top severity must exceed it
P99_BOUND = 2.0
#: severe stragglers must stay *gray*: the crash detector's adaptive
#: threshold is lifted far above the worst heartbeat stretch so suspicion
#: never reaches quorum (the figH claim is about the third state)
SUSPICION_AFTER = 64.0
TAIL = TailConfig(check_interval_ns=25_000, hedge_min_delay_ns=5_000)
RECOVERY = RecoveryConfig(
    checkpoint_interval_ns=200_000, suspicion_after=SUSPICION_AFTER
)


def chain_steps(scale: Scale) -> int:
    """Ring-chain depth: enough steps that the straggler's tax and the
    speculation rescue both repeat many times per cell."""
    return max(10, scale.time_steps * 2)


def p99_samples(scale: Scale) -> int:
    """Runs per cell (distinct runtime seeds); the p99 of a handful of
    deterministic samples is their maximum."""
    return max(2, scale.repetitions)


def _step_fn(t: int, i: int, j: int):
    return lambda a, b: a * 0.5 + b * 0.25 + t * 0.001 + i + j * 0.01


def serial_reference(steps: int, width: int) -> list[float]:
    """The workload's answer, computed serially with the same arithmetic."""
    vals = [
        [float(i + j) for j in range(width)] for i in range(NUM_LOCALITIES)
    ]
    for t in range(steps):
        vals = [
            [
                _step_fn(t, i, j)(
                    vals[i][j], vals[(i + 1) % NUM_LOCALITIES][j]
                )
                for j in range(width)
            ]
            for i in range(NUM_LOCALITIES)
        ]
    return [v for row in vals for v in row]


@paused()
def build_workload(
    runtime: DistRuntime, steps: int, width: int, *, grain_ns: int | None = None
) -> list[Future]:
    """``width`` ring-coupled chains per locality: chain ``j``'s step ``t``
    on locality ``i`` consumes its own step ``t-1`` and the right
    neighbour's (one halo parcel per chain per step), each step costing
    ``grain_ns``.  By default that is ``STEP_WORK_NS / width``, so total
    work per cell is grain-invariant."""
    grain = STEP_WORK_NS // width if grain_ns is None else grain_ns
    prev = [
        [
            runtime.make_ready_future(
                float(i + j), locality=i, name=f"root{i}c{j}"
            )
            for j in range(width)
        ]
        for i in range(NUM_LOCALITIES)
    ]
    for t in range(steps):
        prev = [
            [
                runtime.dataflow(
                    _step_fn(t, i, j),
                    [prev[i][j], prev[(i + 1) % NUM_LOCALITIES][j]],
                    locality=i,
                    work=FixedWork(grain),
                    name=f"s{t}l{i}c{j}",
                )
                for j in range(width)
            ]
            for i in range(NUM_LOCALITIES)
        ]
    return [f for row in prev for f in row]


def _config(*, severity: float, tail_on: bool, seed: int) -> DistConfig:
    stragglers = (
        (Straggler(STRAGGLER_LOCALITY, severity),) if severity > 1.0 else ()
    )
    return DistConfig(
        num_localities=NUM_LOCALITIES,
        platform=PLATFORM,
        cores_per_locality=CORES_PER_LOCALITY,
        seed=seed,
        faults=FaultPlan(
            seed=seed + 7, drop_rate=DROP_RATE, stragglers=stragglers
        ),
        retry=RetryParams(),
        crash_recovery=RECOVERY,
        tail=TAIL if tail_on else None,
    )


def run_cell(
    steps: int, width: int, *, severity: float, tail_on: bool, seed: int
) -> tuple[DistRunResult, list[float]]:
    """One sweep cell: build, run, return (result, final values)."""
    runtime = DistRuntime(
        _config(severity=severity, tail_on=tail_on, seed=seed)
    )
    finals = build_workload(runtime, steps, width)
    result = runtime.wait(finals)
    return result, [f.value for f in finals]


def _check_cell(
    result: DistRunResult,
    values: list[float],
    reference: list[float],
    steps: int,
    width: int,
    *,
    severity: float,
    tail_on: bool,
    problems: list[str],
    label: str,
) -> None:
    """Per-cell claims every run of the sweep must satisfy."""
    PARCELS_CONSERVED.require(result)
    SPECULATION_CONSERVED.require(result)
    if values != reference:
        problems.append(
            f"{FIGURE_ID}: {label}: final values differ from the serial "
            "reference — speculation or hedging changed the answer"
        )
    if result.crashes_detected != 0:
        problems.append(
            f"{FIGURE_ID}: {label}: {result.crashes_detected} crash(es) "
            "declared — a straggler is a gray failure and must never "
            "reach the crash quorum"
        )
    expected = NUM_LOCALITIES * width * steps
    if result.app_tasks_completed != expected:
        problems.append(
            f"{FIGURE_ID}: {label}: {result.app_tasks_completed} "
            f"application task(s) completed, workload defines {expected}"
        )
    if not tail_on:
        if result.tasks_speculated or result.hedges_armed:
            problems.append(
                f"{FIGURE_ID}: {label}: tail-off run reports tail work "
                f"({result.tasks_speculated} speculations, "
                f"{result.hedges_armed} hedges armed)"
            )
        return
    if severity > 1.0 and result.degraded_events == 0:
        problems.append(
            f"{FIGURE_ID}: {label}: a {severity:g}x straggler was never "
            "flagged degraded by the gray detector"
        )
    if severity == 1.0 and result.degraded_events != 0:
        problems.append(
            f"{FIGURE_ID}: {label}: fault-free run flagged a locality "
            f"degraded {result.degraded_events} time(s)"
        )


def run(scale: Scale) -> FigureResult:
    fig = FigureResult(
        figure_id=FIGURE_ID,
        title=TITLE,
        xlabel="task grain (ns)",
        ylabel="p99 makespan (s)",
    )
    steps = chain_steps(scale)
    samples = p99_samples(scale)
    problems: list[str] = []
    fig.notes.append(
        f"scale={scale.name}; {NUM_LOCALITIES} localities x "
        f"{CORES_PER_LOCALITY} cores; {steps}-step ring chains; constant "
        f"{STEP_WORK_NS} ns work per locality-step across the grain sweep; "
        f"locality {STRAGGLER_LOCALITY} straggles at factors "
        f"{tuple(int(s) for s in SEVERITIES)}; p99 over {samples} seeded "
        f"runs per cell; drop rate {DROP_RATE:g} keeps hedging honest; "
        f"suspicion_after={SUSPICION_AFTER:g} so gray never becomes crash"
    )

    best_on: list[tuple[float, float]] = []
    best_off: list[tuple[float, float]] = []
    best_on_p99: dict[float, float] = {}
    best_off_p99: dict[float, float] = {}
    spec_totals: list[tuple[float, float]] = []
    budget_totals: list[tuple[float, float]] = []
    hedge_wins: list[tuple[float, float]] = []
    for severity in SEVERITIES:
        panel = f"{PLATFORM} straggler {severity:g}x"
        curves = {True: [], False: []}
        speculated = budget = won = 0
        for width in WIDTHS:
            grain = STEP_WORK_NS // width
            reference = serial_reference(steps, width)
            for tail_on in (True, False):
                makespans: list[int] = []
                for rep in range(samples):
                    result, values = run_cell(
                        steps, width,
                        severity=severity, tail_on=tail_on,
                        seed=SEED + rep,
                    )
                    _check_cell(
                        result, values, reference, steps, width,
                        severity=severity, tail_on=tail_on,
                        problems=problems,
                        label=(
                            f"severity {severity:g}, grain {grain}, "
                            f"{'tail' if tail_on else 'no-tail'}, "
                            f"seed {SEED + rep}"
                        ),
                    )
                    makespans.append(result.execution_time_ns)
                    if tail_on:
                        speculated += result.tasks_speculated
                        budget += result.speculation_budget
                        won += result.hedges_won
                curves[tail_on].append((grain, max(makespans) / 1e9))
        fig.add_series(
            panel, Series("tail tolerance on: p99 makespan (s)", curves[True])
        )
        fig.add_series(
            panel,
            Series("tail tolerance off: p99 makespan (s)", curves[False]),
        )
        for tail_on, best, best_p99 in (
            (True, best_on, best_on_p99),
            (False, best_off, best_off_p99),
        ):
            grain, p99 = min(curves[tail_on], key=lambda point: point[1])
            best.append((severity, float(grain)))
            best_p99[severity] = p99
        spec_totals.append((severity, float(speculated)))
        budget_totals.append((severity, float(budget)))
        hedge_wins.append((severity, float(won)))

    summary = "summary (x = straggler severity)"
    fig.add_series(summary, Series("best grain, tail on (ns)", best_on))
    fig.add_series(summary, Series("best grain, tail off (ns)", best_off))
    fig.add_series(
        summary,
        Series(
            "best-grain p99 / fault-free best, tail on",
            [
                (s, best_on_p99[s] / best_on_p99[SEVERITIES[0]])
                for s in SEVERITIES
            ],
        ),
    )
    fig.add_series(
        summary,
        Series(
            "best-grain p99 / fault-free best, tail off",
            [
                (s, best_off_p99[s] / best_on_p99[SEVERITIES[0]])
                for s in SEVERITIES
            ],
        ),
    )
    fig.add_series(summary, Series("tasks speculated", spec_totals))
    fig.add_series(summary, Series("speculation budget", budget_totals))
    fig.add_series(summary, Series("hedge wins", hedge_wins))

    # Bit-identical rerun of the nastiest cell: finest grain, top severity,
    # tail on — hedges, speculation, and the gray detector all active.
    first, v1 = run_cell(
        steps, WIDTHS[0],
        severity=SEVERITIES[-1], tail_on=True, seed=SEED,
    )
    second, v2 = run_cell(
        steps, WIDTHS[0],
        severity=SEVERITIES[-1], tail_on=True, seed=SEED,
    )
    deterministic = (
        v1 == v2
        and RERUN_IDENTICAL.holds(first, second)
        and first.tasks_speculated == second.tasks_speculated
        and first.hedges_sent == second.hedges_sent
    )
    fig.add_series(
        summary,
        Series(
            "determinism (1 = bit-identical rerun)",
            [(SEVERITIES[-1], 1.0 if deterministic else 0.0)],
        ),
    )
    fig.add_series(
        summary,
        Series(
            "per-cell checks passed (1 = all)",
            [(SEVERITIES[0], 0.0 if problems else 1.0)],
        ),
    )
    fig.notes.extend(problems)
    fig.notes.append(
        "best grain per severity, tail off: "
        + ", ".join(f"{s:g}x→{int(g)}" for s, g in best_off)
        + "; tail on: "
        + ", ".join(f"{s:g}x→{int(g)}" for s, g in best_on)
    )
    return fig


def shape_checks(fig: FigureResult) -> list[str]:
    problems: list[str] = []
    summary = next((p for p in fig.panels if p.startswith("summary")), None)
    if summary is None:
        return [f"{fig.figure_id}: summary panel missing"]
    series = {s.label: dict(s.points) for s in fig.panels[summary]}

    if series["per-cell checks passed (1 = all)"][SEVERITIES[0]] != 1.0:
        problems.extend(
            note for note in fig.notes if note.startswith(f"{fig.figure_id}:")
        )
    if series["determinism (1 = bit-identical rerun)"][SEVERITIES[-1]] != 1.0:
        problems.append(
            f"{fig.figure_id}: two runs of the worst straggled cell "
            "disagreed — tail tolerance is not a pure function of the seed"
        )

    # Claim 1: tail-on p99 at the best grain stays within P99_BOUND of the
    # fault-free best at every severity; the unprotected leg diverges past
    # it at the top severity.
    on_ratio = series["best-grain p99 / fault-free best, tail on"]
    off_ratio = series["best-grain p99 / fault-free best, tail off"]
    for severity in SEVERITIES:
        if on_ratio[severity] > P99_BOUND:
            problems.append(
                f"{fig.figure_id}: tail-on best-grain p99 at severity "
                f"{severity:g}x is {on_ratio[severity]:.2f}x fault-free, "
                f"beyond the {P99_BOUND:g}x bound"
            )
    if off_ratio[SEVERITIES[-1]] <= P99_BOUND:
        problems.append(
            f"{fig.figure_id}: tail-off best-grain p99 at severity "
            f"{SEVERITIES[-1]:g}x is only "
            f"{off_ratio[SEVERITIES[-1]]:.2f}x fault-free — the "
            "unprotected leg did not diverge"
        )
    for lower, upper in zip(SEVERITIES, SEVERITIES[1:]):
        if off_ratio[upper] < off_ratio[lower]:
            problems.append(
                f"{fig.figure_id}: tail-off p99 ratio improved from "
                f"severity {lower:g}x ({off_ratio[lower]:.2f}) to "
                f"{upper:g}x ({off_ratio[upper]:.2f}) — worse stragglers "
                "cannot speed up an unprotected run"
            )

    # Claim 2: the unprotected optimum coarsens monotonically with
    # severity, strictly so from healthy to pathological; the protected
    # leg keeps the fault-free optimum.
    best_off = series["best grain, tail off (ns)"]
    for lower, upper in zip(SEVERITIES, SEVERITIES[1:]):
        if best_off[upper] < best_off[lower]:
            problems.append(
                f"{fig.figure_id}: tail-off best grain at severity "
                f"{upper:g}x ({int(best_off[upper])} ns) finer than at "
                f"{lower:g}x ({int(best_off[lower])} ns) — not monotone"
            )
    if best_off[SEVERITIES[-1]] <= best_off[SEVERITIES[0]]:
        problems.append(
            f"{fig.figure_id}: tail-off best grain at severity "
            f"{SEVERITIES[-1]:g}x ({int(best_off[SEVERITIES[-1]])} ns) not "
            "strictly coarser than fault-free "
            f"({int(best_off[SEVERITIES[0]])} ns)"
        )
    best_on = series["best grain, tail on (ns)"]
    for severity in SEVERITIES[1:]:
        if best_on[severity] != best_on[SEVERITIES[0]]:
            problems.append(
                f"{fig.figure_id}: tail-on best grain moved from "
                f"{int(best_on[SEVERITIES[0]])} ns (fault-free) to "
                f"{int(best_on[severity])} ns at severity {severity:g}x — "
                "tail tolerance should restore the fault-free optimum"
            )

    # Claim 3: speculation happened where it should and stayed budgeted.
    speculated = series["tasks speculated"]
    budget = series["speculation budget"]
    if speculated[SEVERITIES[0]] != 0:
        problems.append(
            f"{fig.figure_id}: {int(speculated[SEVERITIES[0]])} tasks "
            "speculated with no straggler present"
        )
    for severity in SEVERITIES[1:]:
        if speculated[severity] <= 0:
            problems.append(
                f"{fig.figure_id}: no speculation at severity "
                f"{severity:g}x — the rescue path never ran"
            )
        if speculated[severity] > budget[severity]:
            problems.append(
                f"{fig.figure_id}: severity {severity:g}x speculated "
                f"{int(speculated[severity])} tasks against a summed "
                f"budget of {int(budget[severity])}"
            )
    if all(series["hedge wins"][s] <= 0 for s in SEVERITIES):
        problems.append(
            f"{fig.figure_id}: no hedged parcel ever won across the whole "
            "sweep — hedging was never exercised"
        )
    return problems
