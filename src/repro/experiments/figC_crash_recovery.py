"""figC: grain size × checkpoint interval — surviving a locality crash.

The paper's U-curve prices task management against starvation; figR added
parcel faults; figC adds the classic resilience trade-off on top: how often
should a locality checkpoint its completed task results?

Two forces, both functions of the grain:

- **checkpointing costs a tick** — every ``checkpoint_interval_ns`` each
  locality runs a visible checkpoint task (``CHECKPOINT_BASE_NS`` plus the
  serialization of the entries it persists) that competes with application
  work.  An interval shorter than the grain's task-completion period buys
  *nothing*: most ticks persist zero entries and are pure overhead, so the
  useful interval floor rises with the grain;
- **a long interval concentrates loss** — when the heartbeat detector
  declares a locality dead, every result completed since its last durable
  checkpoint must be *re-executed* from lineage on the survivors, and each
  re-execution costs the grain.  Expected lost work grows linearly with
  the interval.

Young's approximation puts the optimum near ``sqrt(2 x runtime x
per-checkpoint cost)`` — and since the runtime of a fixed-depth chain
scales with the grain, the best interval coarsens as the grain does.  The
sweep runs grain × checkpoint interval with a mid-run crash of the last
locality and asserts exactly that, plus the recovery-correctness claims:

- every crashed cell *completes* and its final values are bit-identical to
  a crash-free serial reference (checkpoint/restore moves results, it never
  recomputes them differently);
- recovered-task conservation: ``reexecuted == lost`` and the application
  task count matches the crash-free run's;
- time-to-recover decomposes exactly into detection + restore +
  re-execution, and is bounded by the crash-free runtime;
- a crashed cell re-run from the same seed is bit-identical;
- the same crash with ``crash_recovery=None`` still dies with the legacy
  :class:`~repro.faults.LocalityCrashError` diagnosis.
"""

from __future__ import annotations

from repro.dist import (
    CrashAt,
    DistConfig,
    DistRunResult,
    DistRuntime,
    FaultPlan,
    LocalityCrashError,
    ParcelLostError,
    RetryParams,
)
from repro.experiments.config import Scale
from repro.experiments.figH_tail_tolerance import (
    NUM_LOCALITIES,
    build_workload,
    serial_reference,
)
from repro.experiments.report import FigureResult, Series
from repro.recovery import RecoveryConfig
from repro.verify.invariants import (
    PARCELS_CONSERVED,
    RECOVERY_CONSERVED,
    RERUN_IDENTICAL,
)

FIGURE_ID = "figC"
TITLE = "Crash recovery: best checkpoint interval vs grain (simulated Haswell)"
PAPER_CLAIMS = [
    "checkpoint ticks shorter than the grain's completion period are pure "
    "overhead, so the useful interval floor rises with the grain",
    "a longer interval loses more completed work to a crash, and every "
    "lost task is re-executed at the cost of one grain",
    "the execution-time-optimal checkpoint interval therefore coarsens "
    "as the grain coarsens (Young's sqrt(runtime x cost) scaling)",
    "a crashed run completes with values bit-identical to a crash-free "
    "serial reference, with lost work conserved (reexecuted == lost)",
]

#: one core per locality so checkpoint ticks genuinely compete with the
#: chain (a second core would hide them entirely and flatten the sweep)
CORES_PER_LOCALITY = 1
PLATFORM = "haswell"
SEED = 11
#: the locality that dies
CRASH_LOCALITY = NUM_LOCALITIES - 1
#: crash times as fractions of the measured crash-free runtime; a single
#: crash sample quantizes the lost-work term at grain granularity, so each
#: cell averages over these
CRASH_FRACTIONS = (0.35, 0.5, 0.65)
#: task grains swept (virtual ns per chain step)
GRAINS_NS = (10_000, 160_000, 640_000)
#: checkpoint intervals swept (virtual ns); wide enough that every grain's
#: U-curve minimum is interior to the grid
INTERVALS_NS = (
    100_000, 160_000, 250_000, 400_000, 650_000, 1_000_000, 2_500_000
)
#: ceiling on how much a recovered run may cost relative to crash-free
SLOWDOWN_BOUND = 3.0
RETRY = RetryParams()


def chain_depth(scale: Scale) -> int:
    """Chain steps per locality; deep enough that a mid-run crash loses
    real work at every grain and the interval sweep is not dominated by
    single-task quantization."""
    return max(24, scale.time_steps * 8)


def _mean(values) -> float:
    vals = list(values)
    return sum(vals) / len(vals)


def _config(
    *,
    crash_at_ns: int | None,
    checkpoint_interval_ns: int | None,
) -> DistConfig:
    faults = None
    if crash_at_ns is not None:
        faults = FaultPlan(
            seed=SEED, crashes=(CrashAt(CRASH_LOCALITY, crash_at_ns),)
        )
    recovery = None
    if checkpoint_interval_ns is not None:
        recovery = RecoveryConfig(
            checkpoint_interval_ns=checkpoint_interval_ns
        )
    return DistConfig(
        num_localities=NUM_LOCALITIES,
        platform=PLATFORM,
        cores_per_locality=CORES_PER_LOCALITY,
        seed=SEED,
        retry=RETRY,
        faults=faults,
        crash_recovery=recovery,
    )


def run_cell(
    steps: int,
    grain_ns: int,
    *,
    crash_at_ns: int | None = None,
    checkpoint_interval_ns: int | None = None,
) -> tuple[DistRunResult, list[float]]:
    """One sweep cell: build, run, return (result, final values)."""
    runtime = DistRuntime(
        _config(
            crash_at_ns=crash_at_ns,
            checkpoint_interval_ns=checkpoint_interval_ns,
        )
    )
    # figH's ring of dependency chains, one chain per locality
    finals = build_workload(runtime, steps, 1, grain_ns=grain_ns)
    result = runtime.wait(finals)
    return result, [f.value for f in finals]


def _check_recovered_cell(
    result: DistRunResult,
    values: list[float],
    reference: list[float],
    clean: DistRunResult,
    problems: list[str],
    label: str,
) -> None:
    """The per-cell correctness claims every crashed run must satisfy."""
    if values != reference:
        problems.append(
            f"{FIGURE_ID}: {label}: recovered values {values} differ from "
            f"the crash-free serial reference {reference}"
        )
    if result.crashes_detected != 1:
        problems.append(
            f"{FIGURE_ID}: {label}: expected exactly 1 detected crash, "
            f"got {result.crashes_detected}"
        )
    if result.app_tasks_completed != clean.app_tasks_completed:
        problems.append(
            f"{FIGURE_ID}: {label}: {result.app_tasks_completed} "
            "application task(s) completed, crash-free run completed "
            f"{clean.app_tasks_completed}"
        )
    # PF408: lost work re-executed exactly once, restores from durable
    # checkpoints, and time-to-recover decomposing exactly.
    problems.extend(
        f"{FIGURE_ID}: {label}: {finding.message}"
        for finding in RECOVERY_CONSERVED.check(result)
    )
    # Bounded: the recovery window sits inside the run, and the whole run
    # (including re-executing the dead locality's chain on survivors) stays
    # within a small multiple of the crash-free runtime.
    if not 0 < result.recovery_total_ns < result.execution_time_ns:
        problems.append(
            f"{FIGURE_ID}: {label}: time-to-recover "
            f"{result.recovery_total_ns} ns not within (0, run time "
            f"{result.execution_time_ns} ns)"
        )
    if result.execution_time_ns > SLOWDOWN_BOUND * clean.execution_time_ns:
        problems.append(
            f"{FIGURE_ID}: {label}: recovered run time "
            f"{result.execution_time_ns} ns exceeds {SLOWDOWN_BOUND:g}x "
            f"the crash-free {clean.execution_time_ns} ns"
        )


def run(scale: Scale) -> FigureResult:
    fig = FigureResult(
        figure_id=FIGURE_ID,
        title=TITLE,
        xlabel="checkpoint interval (ns)",
        ylabel="execution time (s)",
    )
    steps = chain_depth(scale)
    reference = serial_reference(steps, 1)
    problems: list[str] = []
    fig.notes.append(
        f"scale={scale.name}; {NUM_LOCALITIES} localities x "
        f"{CORES_PER_LOCALITY} core; chain depth {steps}; locality "
        f"{CRASH_LOCALITY} crashes at fractions {CRASH_FRACTIONS} of the "
        "crash-free runtime (cells average over crash times); heartbeat "
        "detection, checkpoint/restore and lineage re-execution as "
        "configured by repro.recovery.RecoveryConfig"
    )

    best_by_grain: list[tuple[float, float]] = []
    sample: DistRunResult | None = None
    sample_clean: DistRunResult | None = None
    for grain in GRAINS_NS:
        clean, clean_values = run_cell(steps, grain)
        if clean_values != reference:
            problems.append(
                f"{FIGURE_ID}: grain {grain}: crash-free run diverged from "
                "the serial reference"
            )
        # The app-task yardstick for a crash-free run: recovery enabled but
        # no crash, so app_tasks_completed is populated on the same basis.
        clean_rec, _ = run_cell(
            steps, grain, checkpoint_interval_ns=INTERVALS_NS[-1]
        )
        panel = f"{PLATFORM} grain {grain} ns"
        times: list[tuple[float, float]] = []
        recovery_times: list[tuple[float, float]] = []
        lost: list[tuple[float, float]] = []
        for interval in INTERVALS_NS:
            cell: list[DistRunResult] = []
            for fraction in CRASH_FRACTIONS:
                crash_at = int(clean.execution_time_ns * fraction)
                result, values = run_cell(
                    steps, grain,
                    crash_at_ns=crash_at,
                    checkpoint_interval_ns=interval,
                )
                PARCELS_CONSERVED.require(result)
                _check_recovered_cell(
                    result, values, reference, clean_rec, problems,
                    f"grain {grain}, interval {interval}, "
                    f"crash at {fraction:g}T",
                )
                cell.append(result)
                if sample is None:
                    sample, sample_clean = result, clean
            times.append(
                (interval, _mean(r.execution_time_s for r in cell))
            )
            recovery_times.append(
                (interval, _mean(r.recovery_total_ns / 1e9 for r in cell))
            )
            lost.append((interval, _mean(float(r.tasks_lost) for r in cell)))
        fig.add_series(panel, Series("mean execution time (s)", times))
        fig.add_series(
            panel, Series("mean time-to-recover (s)", recovery_times)
        )
        fig.add_series(panel, Series("mean tasks lost to the crash", lost))
        best_interval = min(times, key=lambda point: point[1])[0]
        best_by_grain.append((grain, best_interval))

    summary = "summary (x = grain ns)"
    fig.add_series(
        summary, Series("best checkpoint interval (ns)", best_by_grain)
    )
    assert sample is not None and sample_clean is not None
    fig.add_series(
        summary,
        Series(
            "finest-grain recovery decomposition (ns)",
            [
                (1.0, float(sample.detection_ns)),
                (2.0, float(sample.restore_ns)),
                (3.0, float(sample.reexecution_ns)),
            ],
        ),
    )

    # Bit-identical rerun of one crashed cell.
    grain = GRAINS_NS[0]
    crash_at = int(sample_clean.execution_time_ns * CRASH_FRACTIONS[1])
    first, v1 = run_cell(
        steps, grain, crash_at_ns=crash_at,
        checkpoint_interval_ns=INTERVALS_NS[1],
    )
    second, v2 = run_cell(
        steps, grain, crash_at_ns=crash_at,
        checkpoint_interval_ns=INTERVALS_NS[1],
    )
    deterministic = v1 == v2 and RERUN_IDENTICAL.holds(first, second)
    fig.add_series(
        summary,
        Series(
            "determinism (1 = bit-identical rerun)",
            [(float(grain), 1.0 if deterministic else 0.0)],
        ),
    )

    # The same crash without crash_recovery still dies the legacy death:
    # either the watchdog's LocalityCrashError or a retry-exhausted
    # ParcelLostError, both ending in "no recovery possible".
    try:
        run_cell(steps, grain, crash_at_ns=crash_at)
    except (LocalityCrashError, ParcelLostError) as exc:
        legacy = 1.0 if "no recovery possible" in str(exc) else 0.0
    else:
        legacy = 0.0
    fig.add_series(
        summary,
        Series(
            "disabled recovery dies the legacy death (1 = yes)",
            [(float(grain), legacy)],
        ),
    )
    fig.add_series(
        summary,
        Series(
            "per-cell checks passed (1 = all)",
            [(float(grain), 0.0 if problems else 1.0)],
        ),
    )
    fig.notes.extend(problems)
    fig.notes.append(
        "best interval per grain: "
        + ", ".join(f"{int(g)}→{int(c)}" for g, c in best_by_grain)
    )
    return fig


def shape_checks(fig: FigureResult) -> list[str]:
    problems: list[str] = []
    summary = next((p for p in fig.panels if p.startswith("summary")), None)
    if summary is None:
        return [f"{fig.figure_id}: summary panel missing"]
    series = {s.label: dict(s.points) for s in fig.panels[summary]}
    grain_f = float(GRAINS_NS[0])

    if series["per-cell checks passed (1 = all)"][grain_f] != 1.0:
        problems.extend(
            note for note in fig.notes if note.startswith(f"{fig.figure_id}:")
        )
    if series["determinism (1 = bit-identical rerun)"][grain_f] != 1.0:
        problems.append(
            f"{fig.figure_id}: two runs of the same crashed cell disagreed "
            "— recovery is not a pure function of the seed"
        )
    if series["disabled recovery dies the legacy death (1 = yes)"][grain_f] != 1.0:
        problems.append(
            f"{fig.figure_id}: with crash_recovery=None the crash did not "
            "surface through the legacy 'no recovery possible' terminal "
            "path"
        )

    # The headline: the optimal checkpoint interval coarsens with the grain.
    best = [
        series["best checkpoint interval (ns)"][float(g)] for g in GRAINS_NS
    ]
    for fine, coarse in zip(best, best[1:]):
        if coarse < fine:
            problems.append(
                f"{fig.figure_id}: best interval sequence {best} is not "
                "monotone non-decreasing over coarsening grains"
            )
            break
    if best[-1] <= best[0]:
        problems.append(
            f"{fig.figure_id}: best interval at the coarsest grain "
            f"({int(best[-1])} ns) not strictly larger than at the finest "
            f"({int(best[0])} ns)"
        )
    return problems
