"""figR: resilience vs grain size — faults move the execution-time minimum.

The paper's U-curve balances per-task overhead against starvation on a
perfect machine.  On a lossy one a third force appears, and it pulls both
ends of the curve at once:

- **fine grains multiply fault exposure** — the cyclic-decomposed stencil
  ships 2 halo parcels per partition per step, so the parcel count (and
  with it drops, retransmissions, and retry-timer stalls) scales with
  ``1/grain``; a dropped halo stalls its consumer for a full ack-timeout,
  and a doomed parcel's exhaustion stall propagates down the dependency
  cone of every later step;
- **coarse grains concentrate recovery cost** — when a parcel exhausts its
  retry budget, ``recovery="reexecute"`` re-runs the producing partition
  update before re-sending, and the producing task's cost *is* the grain;
  re-running a quarter-domain partition costs six orders more virtual time
  than re-running a 1 Ki-point one.

The sweep runs grain × drop-rate with the reliable transport on
(ack/timeout/retransmit with exponential backoff and seeded jitter) and a
deterministic ``doom_every`` schedule guaranteeing retry exhaustion — and
hence measurable recoveries — at every grain.  Claims asserted by
:func:`shape_checks`, not just plotted:

- retransmissions under a given drop rate are far higher at the finest
  grain than at the coarsest (exposure scales with parcel count);
- the *per-fault* recovery time at the coarsest grain dwarfs the finest
  (recovery cost scales with the grain);
- the execution-time minimum under the heaviest faults sits at a strictly
  coarser grain than the fault-free minimum;
- a faulted run is bit-reproducible from its seed (same execution time,
  same counters, run after run), and a faulted validated run still matches
  the serial NumPy reference exactly — at-least-once transmission with
  receiver dedup never corrupts data;
- wire-copy conservation holds at every point of the sweep.
"""

from __future__ import annotations

import numpy as np

from repro.apps.stencil1d import initial_condition, serial_reference
from repro.apps.stencil1d_dist import DistStencilConfig, run_dist_stencil
from repro.core.characterize import default_partition_sweep
from repro.dist import DistConfig, DistRunResult, FaultPlan, RetryParams
from repro.experiments.config import Scale
from repro.experiments.report import FigureResult, Series
from repro.verify.invariants import PARCELS_CONSERVED, RERUN_IDENTICAL

FIGURE_ID = "figR"
TITLE = "Resilience vs grain: faults move the U-curve minimum (simulated Haswell)"
PAPER_CLAIMS = [
    "fine grains multiply fault exposure: retransmissions scale with the "
    "parcel count, i.e. with 1/grain",
    "coarse grains concentrate recovery: re-executing a lost parcel's "
    "producer costs the grain itself, so per-fault recovery time grows "
    "with partition size",
    "under faults the execution-time minimum moves to a coarser grain "
    "than the fault-free optimum",
    "the whole fault schedule is reproducible from its seed, and faulted "
    "runs still compute bit-correct results",
]

NUM_LOCALITIES = 4
CORES_PER_LOCALITY = 8
PLATFORM = "haswell"
#: per-wire-transmission drop probabilities swept (0 = the clean baseline)
DROP_RATES = (0.0, 0.02, 0.05)
#: every 16th parcel id is doomed (all its transmissions drop), forcing
#: deterministic retry exhaustion even at the coarsest grain, whose whole
#: run ships only a few dozen parcels
DOOM_EVERY = 16
FAULT_SEED = 2026
#: modest retry budget: exhaustion (and with it recovery) is reachable
#: without the exponential backoff stall swamping every other effect
RETRY = RetryParams(
    ack_timeout_ns=120_000,
    backoff_factor=2.0,
    max_jitter_ns=10_000,
    max_retries=2,
)


def _fault_plan(drop_rate: float) -> FaultPlan | None:
    """The fault schedule for one drop-rate column (None = clean)."""
    if drop_rate == 0.0:
        return None
    return FaultPlan(
        seed=FAULT_SEED,
        drop_rate=drop_rate,
        duplicate_rate=drop_rate / 2.0,
        doom_every=DOOM_EVERY,
    )


def _dist_config(drop_rate: float) -> DistConfig:
    return DistConfig(
        num_localities=NUM_LOCALITIES,
        platform=PLATFORM,
        cores_per_locality=CORES_PER_LOCALITY,
        seed=0,
        faults=_fault_plan(drop_rate),
        retry=RETRY,
        recovery="reexecute",
        # A recovery parcel draws a fresh id that can itself be doomed
        # (probability 1/DOOM_EVERY per re-send); the default budget of 3
        # re-executions is reachable at fine grains shipping tens of
        # thousands of parcels, so give the sweep enough headroom that it
        # completes at every point.
        max_recoveries=8,
    )


def _stencil_config(
    scale: Scale, grain: int, steps: int, *, validate: bool = False
) -> DistStencilConfig:
    return DistStencilConfig(
        total_points=scale.total_points,
        partition_points=grain,
        time_steps=steps,
        validate=validate,
        # Cyclic decomposition makes the cross-network parcel count scale
        # with the partition count — the communication-heavy regime where
        # per-parcel faults can be told apart from per-task overhead.
        decomposition="cyclic",
    )


def grain_sweep(scale: Scale) -> list[int]:
    """figR's grain grid: fine enough to expose parcel-count scaling.

    The coarsest grain leaves exactly one partition per locality (the
    largest grain the decomposition admits), so the recovery-cost end of
    the trade-off is actually sampled.
    """
    finest = max(scale.finest_partition, 1024)
    per_decade = max(scale.points_per_decade, 2)
    coarsest = scale.total_points // NUM_LOCALITIES
    grains = [
        g
        for g in default_partition_sweep(
            scale.total_points, finest=finest, points_per_decade=per_decade
        )
        if g <= coarsest
    ]
    if grains[-1] != coarsest:
        grains.append(coarsest)
    return grains


def _run_one(
    scale: Scale, drop_rate: float, grain: int, steps: int
) -> DistRunResult:
    outcome = run_dist_stencil(
        _dist_config(drop_rate), _stencil_config(scale, grain, steps)
    )
    PARCELS_CONSERVED.require(outcome.result)
    return outcome.result


def run(scale: Scale) -> FigureResult:
    fig = FigureResult(
        figure_id=FIGURE_ID,
        title=TITLE,
        xlabel="partition size (grid points)",
        ylabel="execution time (s) / parcel counts",
    )
    steps = scale.time_steps_for(PLATFORM)
    grains = grain_sweep(scale)
    fig.notes.append(
        f"scale={scale.name}; platform={PLATFORM}; {NUM_LOCALITIES} "
        f"localities x {CORES_PER_LOCALITY} cores; {steps} time steps; "
        f"cyclic decomposition; reliable transport (timeout "
        f"{RETRY.ack_timeout_ns} ns, {RETRY.max_retries} retries); "
        f"doomed parcel every {DOOM_EVERY} ids on faulted runs; "
        "recovery by producer re-execution"
    )

    best_by_rate: list[tuple[float, float]] = []
    retx_finest: list[tuple[float, float]] = []
    retx_coarsest: list[tuple[float, float]] = []
    recovery_per_fault_finest: list[tuple[float, float]] = []
    recovery_per_fault_coarsest: list[tuple[float, float]] = []
    for drop_rate in DROP_RATES:
        panel = f"{PLATFORM} drop rate {drop_rate:g}"
        times: list[tuple[float, float]] = []
        retx: list[tuple[float, float]] = []
        recovered: list[tuple[float, float]] = []
        per_grain: dict[int, DistRunResult] = {}
        for grain in grains:
            result = _run_one(scale, drop_rate, grain, steps)
            per_grain[grain] = result
            times.append((grain, result.execution_time_s))
            retx.append((grain, float(result.parcels_retransmitted)))
            recovered.append((grain, float(result.parcels_recovered)))
        fig.add_series(panel, Series("execution time (s)", times))
        fig.add_series(panel, Series("parcels retransmitted", retx))
        fig.add_series(panel, Series("parcels recovered", recovered))

        best_grain = min(times, key=lambda point: point[1])[0]
        best_by_rate.append((drop_rate, best_grain))
        finest_r = per_grain[grains[0]]
        coarsest_r = per_grain[grains[-1]]
        retx_finest.append((drop_rate, float(finest_r.parcels_retransmitted)))
        retx_coarsest.append(
            (drop_rate, float(coarsest_r.parcels_retransmitted))
        )
        for dest, res in (
            (recovery_per_fault_finest, finest_r),
            (recovery_per_fault_coarsest, coarsest_r),
        ):
            per_fault = (
                res.recovery_ns / res.parcels_recovered / 1e9
                if res.parcels_recovered
                else 0.0
            )
            dest.append((drop_rate, per_fault))

    summary = "summary (x = drop rate)"
    fig.add_series(summary, Series("best grain (points)", best_by_rate))
    fig.add_series(summary, Series("retransmissions at finest", retx_finest))
    fig.add_series(
        summary, Series("retransmissions at coarsest", retx_coarsest)
    )
    fig.add_series(
        summary,
        Series("recovery s/fault at finest", recovery_per_fault_finest),
    )
    fig.add_series(
        summary,
        Series("recovery s/fault at coarsest", recovery_per_fault_coarsest),
    )

    # Seed-exact reproducibility: the heaviest faulted config, run twice,
    # must agree on the execution time and on every counter.
    mid_grain = grains[len(grains) // 2]
    first = _run_one(scale, max(DROP_RATES), mid_grain, steps)
    second = _run_one(scale, max(DROP_RATES), mid_grain, steps)
    deterministic = RERUN_IDENTICAL.holds(first, second)
    fig.add_series(
        summary,
        Series(
            "determinism (1 = bit-identical rerun)",
            [(max(DROP_RATES), 1.0 if deterministic else 0.0)],
        ),
    )

    # Correctness under faults: a validated faulted run computes the same
    # answer as the serial NumPy reference despite drops, duplicates,
    # doomed parcels and re-executed producers.
    validated_outcome = run_dist_stencil(
        _dist_config(max(DROP_RATES)),
        _stencil_config(scale, mid_grain, steps, validate=True),
    )
    reference = serial_reference(
        initial_condition(scale.total_points),
        steps,
        validated_outcome.config.heat_coefficient,
    )
    validated = bool(
        np.allclose(validated_outcome.final_array(), reference)
    )
    fig.add_series(
        summary,
        Series(
            "validated (1 = matches serial reference)",
            [(max(DROP_RATES), 1.0 if validated else 0.0)],
        ),
    )
    fig.notes.append(
        "best grain per drop rate: "
        + ", ".join(f"{rate:g}→{int(g)}" for rate, g in best_by_rate)
    )
    return fig


def shape_checks(fig: FigureResult) -> list[str]:
    problems: list[str] = []
    summary = next((p for p in fig.panels if p.startswith("summary")), None)
    if summary is None:
        return [f"{fig.figure_id}: summary panel missing"]
    series = {s.label: dict(s.points) for s in fig.panels[summary]}
    best = series["best grain (points)"]
    max_rate = max(DROP_RATES)

    # Reproducibility and correctness are pass/fail, not trends.
    if series["determinism (1 = bit-identical rerun)"][max_rate] != 1.0:
        problems.append(
            f"{fig.figure_id}: two runs of the same faulted config "
            "disagreed — the fault schedule is not a pure function of "
            "its seed"
        )
    if series["validated (1 = matches serial reference)"][max_rate] != 1.0:
        problems.append(
            f"{fig.figure_id}: a faulted validated run diverged from the "
            "serial reference — the transport corrupted or lost data"
        )

    # Exposure scales with the parcel count: the finest grain retransmits
    # far more than the coarsest under every nonzero drop rate.
    for rate in DROP_RATES:
        fine = series["retransmissions at finest"][rate]
        coarse = series["retransmissions at coarsest"][rate]
        if rate == 0.0:
            if fine != 0 or coarse != 0:
                problems.append(
                    f"{fig.figure_id}: retransmissions on the clean "
                    f"baseline (finest={int(fine)}, coarsest={int(coarse)})"
                )
        elif fine <= coarse:
            problems.append(
                f"{fig.figure_id}: drop rate {rate:g}: finest grain "
                f"retransmitted {int(fine)} parcels, not more than the "
                f"coarsest ({int(coarse)})"
            )

    # Recovery cost scales with the grain: per-fault recovery time at the
    # coarsest grain must dwarf the finest.
    fine_rec = series["recovery s/fault at finest"][max_rate]
    coarse_rec = series["recovery s/fault at coarsest"][max_rate]
    if fine_rec <= 0.0 or coarse_rec <= 0.0:
        problems.append(
            f"{fig.figure_id}: no recoveries measured at drop rate "
            f"{max_rate:g} (finest {fine_rec}, coarsest {coarse_rec}) — "
            "doom_every failed to force retry exhaustion"
        )
    elif coarse_rec <= fine_rec:
        problems.append(
            f"{fig.figure_id}: per-fault recovery at the coarsest grain "
            f"({coarse_rec:.6f} s) not larger than at the finest "
            f"({fine_rec:.6f} s)"
        )

    # The headline: faults move the minimum to a coarser grain.
    if best[max_rate] <= best[0.0]:
        problems.append(
            f"{fig.figure_id}: best grain under drop rate {max_rate:g} "
            f"({int(best[max_rate])}) not strictly coarser than the "
            f"fault-free best ({int(best[0.0])})"
        )
    for rate in DROP_RATES[1:]:
        if best[rate] < best[0.0]:
            problems.append(
                f"{fig.figure_id}: best grain under drop rate {rate:g} "
                f"({int(best[rate])}) finer than the fault-free best "
                f"({int(best[0.0])})"
            )
    return problems
