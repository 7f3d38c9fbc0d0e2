"""figQ: QoS priority isolation — tail latency survives a 4x overload.

The paper's task-size study is single-tenant: one stencil owns the
machine and the only question is how big its tasks should be.  This
figure multi-tenants the same simulated runtime and asks the service
operator's question instead: when the *background* tenants offer far
more work than the machine can absorb, what happens to the p99 sojourn
time of the small interactive tenant that never asked for the overload?

Three tenants share one 8-core runtime over a fixed arrival window:

- **web** — the protected tenant: ``interactive`` class, Poisson
  arrivals pinned at 15% of machine capacity at *every* swept load, so
  its own demand never confounds the sweep;
- **api** — ``standard`` class, diurnal (sinusoidal-rate) arrivals;
- **etl** — ``batch`` class, bursty MMPP arrivals.

The background pair is scaled so total offered load sweeps 1x -> 4x
capacity.  Under the QoS stack (class-aware shedding that never picks
the ineligible interactive class as victim, plus the Clutch-style EDF
bucket scheduler with warp on wakeup), web's p99 stays pinned near its
uncontended value while the batch tenant absorbs the shedding.  The
ablation panel reruns the 4x point with the class-blind
``priority-local`` scheduler: same tenants, same arrivals, same
admission bound — only the QoS bucket scheduler removed — and web's
tail inflates by an order of magnitude.

Every claim is asserted by :func:`shape_checks`, including per-tenant
conservation (``arrived == completed + shed``) and a bit-identical
rerun of the heaviest configuration.
"""

from __future__ import annotations

from repro.experiments.config import Scale
from repro.experiments.report import FigureResult, Series
from repro.overload import AdmissionParams, OverloadConfig
from repro.qos import (
    BurstyArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    QosServiceConfig,
    QosServiceOutcome,
    Tenant,
    default_classes,
    run_qos_service,
)
from repro.verify.invariants import RERUN_IDENTICAL

FIGURE_ID = "figQ"
TITLE = "QoS priority isolation: interactive p99 under background overload"
PAPER_CLAIMS = [
    "the interactive tenant's p99 sojourn time at 4x offered load stays "
    "within 1.5x of its value at 1x load — the QoS stack isolates it "
    "from the background overload",
    "overload lands on the least-protected class: the batch tenant sheds "
    "a growing fraction of its arrivals while the interactive tenant "
    "sheds none",
    "removing the QoS bucket scheduler (class-blind priority-local "
    "baseline, same admission bound) inflates the interactive tail — "
    "isolation comes from the QoS machinery, not the admission bound "
    "alone",
    "per-tenant conservation holds at every load: every arrival is "
    "either completed with an exact sojourn sample or shed with a typed "
    "error",
    "the heaviest configuration is bit-reproducible: counters and "
    "simulated completion time are identical across reruns",
]

PLATFORM = "haswell"
NUM_CORES = 8
#: total offered load as a multiple of machine capacity (the x axis)
UTILIZATIONS = (1.0, 2.0, 4.0)
#: the protected tenant's share of capacity, constant across the sweep
WEB_UTILIZATION = 0.15
#: request grain for every tenant (ns)
GRAIN_NS = 2_000
#: hot-queue bound for the shed admission policy
ADMISSION_BOUND = 64

BATCH, STANDARD, INTERACTIVE = default_classes()

SHED = OverloadConfig(
    admission=AdmissionParams(max_depth=ADMISSION_BOUND, policy="shed")
)


def _arrival_window_ns(scale: Scale) -> int:
    # Fixed window, same reasoning as figO: long enough that per-tenant
    # percentiles rest on hundreds of samples, cheap enough for smoke.
    del scale
    return 300_000


def _gap_ns(utilization: float) -> float:
    """Mean interarrival that offers ``utilization`` x capacity."""
    return GRAIN_NS / (NUM_CORES * utilization)


def _tenants(total_utilization: float) -> list[Tenant]:
    """web pinned at 15% capacity; api/etl scaled to fill the rest."""
    m = (total_utilization - WEB_UTILIZATION) / 0.85
    return [
        Tenant(
            0, "web", INTERACTIVE, GRAIN_NS,
            PoissonArrivals(_gap_ns(WEB_UTILIZATION)),
        ),
        Tenant(
            1, "api", STANDARD, GRAIN_NS,
            DiurnalArrivals(_gap_ns(0.3 * m)),
        ),
        Tenant(
            2, "etl", BATCH, GRAIN_NS,
            BurstyArrivals(_gap_ns(0.5 * m)),
        ),
    ]


def _service_run(
    scale: Scale, utilization: float, *, scheduler: str | None = None
) -> QosServiceOutcome:
    config = QosServiceConfig(
        platform=PLATFORM,
        num_cores=NUM_CORES,
        window_ns=_arrival_window_ns(scale),
        overload=SHED,
        scheduler=scheduler,
    )
    return run_qos_service(_tenants(utilization), config)


def _p99_us(out: QosServiceOutcome, tenant: str) -> float:
    stats = out.stats_for(tenant)
    if stats.completed == 0:
        return 0.0
    return stats.p(0.99) / 1e3


def run(scale: Scale) -> FigureResult:
    fig = FigureResult(
        figure_id=FIGURE_ID,
        title=TITLE,
        xlabel="offered load (x capacity) / configuration",
        ylabel="p99 sojourn (us), shed fraction",
        logx=False,
    )
    window_ns = _arrival_window_ns(scale)
    fig.notes.append(
        f"scale={scale.name}; {PLATFORM} x{NUM_CORES} cores; web pinned at "
        f"{WEB_UTILIZATION:.0%} capacity with grain {GRAIN_NS} ns over a "
        f"{window_ns / 1e3:.0f} us window; shed admission bound "
        f"{ADMISSION_BOUND}; classes interactive/standard/batch"
    )

    # -- panels A/B: the load sweep under the QoS stack --------------------
    conservation_violations = 0
    p99 = {name: [] for name in ("web", "api", "etl")}
    shed = {name: [] for name in ("web", "api", "etl")}
    heaviest: QosServiceOutcome | None = None
    for utilization in UTILIZATIONS:
        out = _service_run(scale, utilization)
        if not out.conserved():
            conservation_violations += 1
        for name in p99:
            p99[name].append((utilization, _p99_us(out, name)))
            shed[name].append((utilization, out.stats_for(name).shed_fraction))
        if utilization == max(UTILIZATIONS):
            heaviest = out
    for name in p99:
        fig.add_series("A p99 sojourn (us)", Series(name, p99[name]))
        fig.add_series("B shed fraction", Series(name, shed[name]))

    # -- panel C: ablate the QoS scheduler at the heaviest load ------------
    assert heaviest is not None
    baseline = _service_run(
        scale, max(UTILIZATIONS), scheduler="priority-local"
    )
    if not baseline.conserved():
        conservation_violations += 1
    fig.add_series(
        "C scheduler ablation at 4x",
        Series(
            "web p99 (us)",
            [(0.0, _p99_us(heaviest, "web")), (1.0, _p99_us(baseline, "web"))],
        ),
    )
    fig.add_series(
        "C scheduler ablation at 4x",
        Series(
            "etl shed fraction",
            [
                (0.0, heaviest.stats_for("etl").shed_fraction),
                (1.0, baseline.stats_for("etl").shed_fraction),
            ],
        ),
    )
    fig.notes.append(
        "ablation: 0 = qos bucket scheduler, 1 = class-blind priority-local"
    )

    # -- summary: determinism and conservation ------------------------------
    rerun = _service_run(scale, max(UTILIZATIONS))
    deterministic = (
        RERUN_IDENTICAL.holds(rerun.result, heaviest.result)
        and all(
            rerun.stats[tid].sojourn_ns == heaviest.stats[tid].sojourn_ns
            for tid in rerun.stats
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


def shape_checks(fig: FigureResult) -> list[str]:
    problems: list[str] = []

    def series_map(panel: str) -> dict[str, dict[float, float]]:
        if panel not in fig.panels:
            problems.append(f"{fig.figure_id}: panel {panel!r} missing")
            return {}
        return {s.label: dict(s.points) for s in fig.panels[panel]}

    lo, hi = min(UTILIZATIONS), max(UTILIZATIONS)

    # -- A: the protected tenant's tail stays pinned -----------------------
    p99 = series_map("A p99 sojourn (us)")
    if p99:
        web = p99["web"]
        if web[lo] <= 0:
            problems.append(
                f"{fig.figure_id}: web completed nothing at {lo}x load"
            )
        elif web[hi] > 1.5 * web[lo]:
            problems.append(
                f"{fig.figure_id}: web p99 at {hi}x load ({web[hi]:.1f} us) "
                f"exceeds 1.5x its {lo}x value ({web[lo]:.1f} us) — "
                "isolation failed"
            )
        if p99["etl"][hi] <= web[hi]:
            problems.append(
                f"{fig.figure_id}: batch p99 ({p99['etl'][hi]:.1f} us) did "
                f"not exceed interactive p99 ({web[hi]:.1f} us) at {hi}x — "
                "the classes are not differentiated"
            )

    # -- B: overload lands on the least-protected class --------------------
    shed = series_map("B shed fraction")
    if shed:
        if shed["web"][hi] != 0:
            problems.append(
                f"{fig.figure_id}: the interactive tenant shed "
                f"{shed['web'][hi]:.2%} of arrivals at {hi}x load — "
                "class-aware victim selection is not protecting it"
            )
        if shed["etl"][hi] <= 0:
            problems.append(
                f"{fig.figure_id}: the batch tenant shed nothing at {hi}x "
                "load — the sweep is not actually overloading"
            )
        etl = [shed["etl"][u] for u in UTILIZATIONS]
        if any(b < a for a, b in zip(etl, etl[1:])):
            problems.append(
                f"{fig.figure_id}: batch shed fraction is not monotone in "
                f"offered load ({etl})"
            )

    # -- C: isolation comes from the QoS machinery --------------------------
    ablation = series_map("C scheduler ablation at 4x")
    if ablation:
        web_p99 = ablation["web p99 (us)"]
        if web_p99[1.0] <= 1.5 * web_p99[0.0]:
            problems.append(
                f"{fig.figure_id}: class-blind baseline web p99 "
                f"({web_p99[1.0]:.1f} us) is not clearly worse than the QoS "
                f"stack ({web_p99[0.0]:.1f} us) — the scheduler is not "
                "earning its keep"
            )

    # -- summary -------------------------------------------------------------
    summary = series_map("summary")
    if summary:
        if summary["determinism (1 = bit-identical rerun)"][0.0] != 1.0:
            problems.append(
                f"{fig.figure_id}: two runs of the heaviest configuration "
                "disagreed — the QoS stack broke determinism"
            )
        if summary["conservation violations"][0.0] != 0:
            problems.append(
                f"{fig.figure_id}: per-tenant conservation violated "
                "(arrived != completed + shed)"
            )
    return problems
