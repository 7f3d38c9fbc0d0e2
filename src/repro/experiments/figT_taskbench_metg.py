"""figT: Task Bench METG(50%) across dependence patterns (Haswell model).

The paper's grain story is told on one application (the 1-d stencil).  Task
Bench (arXiv:1908.05790; applied to HPX by Wu et al., arXiv:2207.12127)
asks the same question pattern-by-pattern: parameterize the *dependence
structure* of the workload and report **METG(50%)** — the minimum task
granularity at which the runtime still spends half the core-time budget in
task bodies.  In this repro, efficiency is literally ``1 - idle-rate``
(Eq. 1), so METG(50%) is the grain where the paper's headline counter
crosses 50 % — the two methodologies meet in one number.

The figure plots the efficiency-vs-grain curve per pattern at 8 cores, the
METG(50%) catalogue comparison, and METG vs core count for the stencil
pattern.  Shape checks assert the claims instead of eyeballing them:

- dependence structure costs grain: ``trivial`` (no edges) has the finest
  METG, strictly finer than ``stencil_1d``, which is no coarser than the
  denser ``fft`` butterfly;
- METG is monotone non-decreasing in core count (more cores, more
  contention, coarser minimum grain) — the Task Bench strong-scaling wall;
- the paper's own selection rule (idle-rate <= 30 %) lands *inside* the
  METG(50 %)-acceptable region: the chosen grain is coarser than METG and
  its efficiency clears the 50 % bar with margin;
- a full rerun of the stencil characterization is bit-identical — the METG
  harness inherits the simulator's determinism.
"""

from __future__ import annotations

from repro.core.characterize import characterize, default_partition_sweep
from repro.core.selection import select_by_idle_rate
from repro.experiments.config import Scale
from repro.experiments.report import FigureResult, Series
from repro.taskbench.driver import taskbench_run_fn
from repro.taskbench.metg import metg
from repro.taskbench.patterns import TaskBenchSpec

FIGURE_ID = "figT"
TITLE = "Task Bench: METG(50%) by dependence pattern (simulated Haswell)"
PAPER_CLAIMS = [
    "dependence structure costs granularity: METG(50%) orders trivial < "
    "stencil_1d <= fft at a fixed core count (Task Bench / Wu et al.)",
    "METG(50%) is monotone non-decreasing in core count — the "
    "strong-scaling overhead wall",
    "the idle-rate<=30% selection rule (Sec. IV-A) picks a grain inside "
    "the METG(50%)-acceptable region",
    "the METG harness is bit-reproducible for a fixed seed",
]

PLATFORM = "haswell"
SCHEDULER = "priority-local"
#: fixed grid width: wide enough that the pattern orderings resolve
#: (narrower grids blur the stencil-vs-fft separation into the bisection
#: tolerance); steps shrink with scale instead
WIDTH = 64
#: catalogue compared at the fixed core count, in plotting order
METG_PATTERNS = ("trivial", "serial_chain", "stencil_1d", "fft", "spread")
CORES = 8
METG_TARGET = 0.5
IDLE_THRESHOLD = 0.30
SEED = 0


def _steps(scale: Scale) -> int:
    return 8 if scale.name == "smoke" else 16


def _core_counts(scale: Scale) -> tuple[int, ...]:
    return (1, 2, CORES) if scale.name == "smoke" else (1, 2, 4, CORES)


def grain_sweep(scale: Scale) -> list[int]:
    """200 ns .. 100 us: brackets the Haswell overhead wall (~1-2 us) from
    both sides with room for the idle-rate rule to clear 30 %."""
    per_decade = 2 if scale.name == "smoke" else max(3, scale.points_per_decade)
    return default_partition_sweep(
        100_000, finest=200, points_per_decade=per_decade
    )


def _spec(pattern: str, scale: Scale) -> TaskBenchSpec:
    return TaskBenchSpec(
        pattern=pattern, width=WIDTH, steps=_steps(scale), seed=SEED
    )


def run(scale: Scale) -> FigureResult:
    fig = FigureResult(
        figure_id=FIGURE_ID,
        title=TITLE,
        xlabel="task grain (ns of compute)",
        ylabel="efficiency (1 - idle-rate) / METG (ns)",
    )
    grains = grain_sweep(scale)
    steps = _steps(scale)
    fig.notes.append(
        f"scale={scale.name}; platform={PLATFORM}; grid {WIDTH}x{steps}; "
        f"grains {grains[0]}..{grains[-1]} ns; METG target "
        f"{METG_TARGET:.0%}; seed={SEED}"
    )

    # Per-pattern efficiency curves and METG at the fixed core count.
    curves_panel = f"efficiency vs grain ({CORES} cores)"
    metg_by_pattern: dict[str, object] = {}
    catalogue_points: list[tuple[float, float]] = []
    for position, pattern in enumerate(METG_PATTERNS, start=1):
        result = metg(
            _spec(pattern, scale),
            target=METG_TARGET,
            grains=grains,
            platform=PLATFORM,
            num_cores=CORES,
            scheduler=SCHEDULER,
            seed=SEED,
        )
        metg_by_pattern[pattern] = result
        fig.add_series(
            curves_panel,
            Series(pattern, [(p.grain, p.efficiency) for p in result.curve]),
        )
        catalogue_points.append((position, result.interpolated_grain))
        fig.notes.append(result.summary())

    # METG vs core count on the stencil pattern (the paper's application).
    stencil_spec = _spec("stencil_1d", scale)
    metg_vs_cores: list[tuple[float, float]] = []
    for cores in _core_counts(scale):
        if cores == CORES:
            result = metg_by_pattern["stencil_1d"]
        else:
            result = metg(
                stencil_spec,
                target=METG_TARGET,
                grains=grains,
                platform=PLATFORM,
                num_cores=cores,
                scheduler=SCHEDULER,
                seed=SEED,
            )
        metg_vs_cores.append((cores, result.interpolated_grain))

    # The paper's selection rule, applied through the shared methodology
    # driver, must land inside the METG-acceptable region.
    report = characterize(
        taskbench_run_fn(stencil_spec),
        grains,
        platform=PLATFORM,
        num_cores=CORES,
        scheduler=SCHEDULER,
        repetitions=1,
        seed=SEED,
        measure_single_core_reference=False,
    )
    outcome = select_by_idle_rate(report, IDLE_THRESHOLD)
    chosen_idle = report.point_at(outcome.grain).idle_rate.mean
    fig.notes.append(
        f"idle-rate<={IDLE_THRESHOLD:.0%} rule on stencil_1d @ {CORES} "
        f"cores: grain={outcome.grain} ns (idle {chosen_idle:.3f}); "
        + outcome.summary()
    )

    # Determinism: the whole stencil METG characterization, rerun.
    rerun = metg(
        stencil_spec,
        target=METG_TARGET,
        grains=grains,
        platform=PLATFORM,
        num_cores=CORES,
        scheduler=SCHEDULER,
        seed=SEED,
    )
    identical = rerun == metg_by_pattern["stencil_1d"]

    summary = "summary"
    fig.add_series(
        summary,
        Series("METG(50%) by pattern (x = catalogue index)", catalogue_points),
    )
    fig.add_series(
        summary, Series("METG(50%) vs cores (stencil_1d)", metg_vs_cores)
    )
    fig.add_series(
        summary,
        Series(
            f"selected grain (idle<={IDLE_THRESHOLD:.0%}, stencil_1d)",
            [(float(CORES), float(outcome.grain))],
        ),
    )
    fig.add_series(
        summary,
        Series(
            "idle-rate at selected grain", [(float(CORES), chosen_idle)]
        ),
    )
    fig.add_series(
        summary,
        Series(
            "bit-identical rerun (1 = yes)",
            [(float(CORES), 1.0 if identical else 0.0)],
        ),
    )
    fig.notes.append(
        "catalogue index: "
        + ", ".join(f"{i}={p}" for i, p in enumerate(METG_PATTERNS, start=1))
    )
    return fig


def shape_checks(fig: FigureResult) -> list[str]:
    problems: list[str] = []
    if "summary" not in fig.panels:
        return [f"{fig.figure_id}: summary panel missing"]
    series = {s.label: dict(s.points) for s in fig.panels["summary"]}

    catalogue = series["METG(50%) by pattern (x = catalogue index)"]
    by_pattern = {
        pattern: catalogue[float(i)]
        for i, pattern in enumerate(METG_PATTERNS, start=1)
    }

    # The headline ordering: structure costs grain.
    if not by_pattern["trivial"] < by_pattern["stencil_1d"]:
        problems.append(
            f"{fig.figure_id}: METG(trivial) {by_pattern['trivial']:.0f} "
            f"not strictly finer than METG(stencil_1d) "
            f"{by_pattern['stencil_1d']:.0f}"
        )
    if not by_pattern["stencil_1d"] <= by_pattern["fft"]:
        problems.append(
            f"{fig.figure_id}: METG(stencil_1d) "
            f"{by_pattern['stencil_1d']:.0f} coarser than METG(fft) "
            f"{by_pattern['fft']:.0f}"
        )
    # trivial is the catalogue's floor, up to the bisection tolerance.
    floor = by_pattern["trivial"] * 0.97
    for pattern, value in by_pattern.items():
        if value < floor:
            problems.append(
                f"{fig.figure_id}: METG({pattern}) {value:.0f} below the "
                f"dependence-free floor {by_pattern['trivial']:.0f}"
            )

    # Strong scaling: METG never improves with more cores.
    vs_cores = sorted(series["METG(50%) vs cores (stencil_1d)"].items())
    for (c_lo, m_lo), (c_hi, m_hi) in zip(vs_cores, vs_cores[1:]):
        if m_hi < m_lo:
            problems.append(
                f"{fig.figure_id}: METG fell from {m_lo:.0f} at "
                f"{int(c_lo)} cores to {m_hi:.0f} at {int(c_hi)} cores"
            )

    # The idle-rate rule lands inside the METG-acceptable region.
    selected = next(
        v for k, v in series.items() if k.startswith("selected grain")
    )
    chosen = selected[float(CORES)]
    idle = series["idle-rate at selected grain"][float(CORES)]
    metg_at_cores = dict(vs_cores)[float(CORES)]
    if chosen < metg_at_cores:
        problems.append(
            f"{fig.figure_id}: idle-rate rule chose grain {chosen:.0f} "
            f"finer than METG(50%) {metg_at_cores:.0f}"
        )
    if idle > IDLE_THRESHOLD:
        problems.append(
            f"{fig.figure_id}: selected grain's idle-rate {idle:.3f} "
            f"exceeds the {IDLE_THRESHOLD:.0%} threshold (sweep never "
            "cleared the walls)"
        )
    if 1.0 - idle < METG_TARGET:
        problems.append(
            f"{fig.figure_id}: selected grain's efficiency "
            f"{1.0 - idle:.3f} below the METG target {METG_TARGET:.0%}"
        )

    if series["bit-identical rerun (1 = yes)"][float(CORES)] != 1.0:
        problems.append(
            f"{fig.figure_id}: rerun of the stencil_1d METG "
            "characterization was not bit-identical"
        )

    # Efficiency curves are probabilities, and the dependence-free pattern
    # dominates every structured one wherever both were sampled.
    curves = fig.panels.get(f"efficiency vs grain ({CORES} cores)", [])
    efficiencies = {s.label: dict(s.points) for s in curves}
    for label, points in efficiencies.items():
        if any(not 0.0 <= e <= 1.0 for e in points.values()):
            problems.append(
                f"{fig.figure_id}: {label} efficiency outside [0, 1]"
            )
    trivial_curve = efficiencies.get("trivial", {})
    for label, points in efficiencies.items():
        if label == "trivial":
            continue
        for grain, eff in points.items():
            reference = trivial_curve.get(grain)
            if reference is not None and eff > reference + 1e-9:
                problems.append(
                    f"{fig.figure_id}: {label} beats trivial at grain "
                    f"{grain} ({eff:.4f} > {reference:.4f})"
                )
                break
    return problems
