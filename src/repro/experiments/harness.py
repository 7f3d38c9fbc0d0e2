"""Shared sweep machinery for the figure experiments.

Every figure is some projection of the same underlying experiment — the
paper's Sec. II methodology: HPX-Stencil over a grain-size sweep at several
core counts.  :func:`stencil_report` runs one (platform, cores) cell and
returns the :class:`CharacterizationReport`; figure modules project the
quantities they plot out of it, and :func:`run_panel_figure` is that
projection for the per-core panels of Figs. 4/5, 7/8 and 9/10.

Shape-checking helpers encode the qualitative claims ("U-shaped", "rises at
the fine end", ...) that EXPERIMENTS.md verifies; they return human-readable
violation strings instead of raising so a report can list every miss.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.characterize import (
    CharacterizationReport,
    characterize,
    default_partition_sweep,
)
from repro.apps.stencil1d import stencil_run_fn
from repro.experiments.config import Scale
from repro.experiments.report import FigureResult, Series


def sweep_for(scale: Scale, total_points: int | None = None) -> list[int]:
    """The grain-size sweep (points per partition) at this scale."""
    total = total_points if total_points is not None else scale.total_points
    return default_partition_sweep(
        total,
        finest=min(scale.finest_partition, total),
        points_per_decade=scale.points_per_decade,
    )


def stencil_report(
    scale: Scale,
    platform: str,
    num_cores: int,
    *,
    grains: list[int] | None = None,
    total_points: int | None = None,
    measure_single_core_reference: bool = True,
) -> CharacterizationReport:
    """Characterize HPX-Stencil for one (platform, cores) configuration."""
    total = total_points if total_points is not None else scale.total_points
    run_fn = stencil_run_fn(total, scale.time_steps_for(platform))
    return characterize(
        run_fn,
        grains if grains is not None else sweep_for(scale, total),
        platform=platform,
        num_cores=num_cores,
        repetitions=scale.repetitions,
        measure_single_core_reference=measure_single_core_reference,
    )


def run_panel_figure(
    scale: Scale,
    platform: str,
    cores: tuple[int, ...],
    figure_id: str,
    title: str,
    ylabel: str,
    series: Sequence[tuple[str, str]],
    *,
    single_core_reference: bool = False,
) -> FigureResult:
    """One panel per core count, plotting each ``(label, quantity)`` of
    ``series`` from that count's :func:`stencil_report` against partition
    size.  ``single_core_reference`` measures ``t_d1``, which the
    wait-time quantities need."""
    fig = FigureResult(
        figure_id=figure_id,
        title=title,
        xlabel="partition size (grid points)",
        ylabel=ylabel,
    )
    fig.notes.append(f"scale={scale.name}; platform={platform}")
    for nc in cores:
        report = stencil_report(
            scale, platform, nc,
            measure_single_core_reference=single_core_reference,
        )
        panel = f"{platform} {nc} cores"
        for label, quantity in series:
            fig.add_series(panel, Series(label, report.series(quantity)))
    return fig


# -- qualitative shape checks -----------------------------------------------------


def check_u_shape(
    points: list[tuple[float, float]], label: str, tolerance: float = 1.05
) -> list[str]:
    """The curve falls from its left end to its minimum and rises to its
    right end (each by more than ``tolerance``)."""
    if len(points) < 3:
        return [f"{label}: too few points for a shape check"]
    ys = [y for _, y in points]
    lo = min(ys)
    problems = []
    if ys[0] < lo * tolerance:
        problems.append(
            f"{label}: no fine-grained wall (left end {ys[0]:.4g} vs min {lo:.4g})"
        )
    if ys[-1] < lo * tolerance:
        problems.append(
            f"{label}: no coarse-grained wall (right end {ys[-1]:.4g} vs min {lo:.4g})"
        )
    imin = ys.index(lo)
    if imin in (0, len(ys) - 1):
        problems.append(f"{label}: minimum sits at the sweep boundary")
    return problems


def check_high_at_fine_end(
    points: list[tuple[float, float]], label: str, floor: float
) -> list[str]:
    """The first (finest-grain) value exceeds ``floor``."""
    if not points:
        return [f"{label}: empty series"]
    if points[0][1] < floor:
        return [f"{label}: fine end {points[0][1]:.4g} below expected {floor:.4g}"]
    return []


def check_monotone_increase(
    points: list[tuple[float, float]], label: str, slack: float = 0.05
) -> list[str]:
    """y grows (allowing ``slack`` relative dips) along the series."""
    problems = []
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if y1 < y0 * (1.0 - slack) - 1e-12:
            problems.append(
                f"{label}: decreases from {y0:.4g}@{x0:g} to {y1:.4g}@{x1:g}"
            )
    return problems


def check_negative_tail(
    points: list[tuple[float, float]], label: str
) -> list[str]:
    """The last (coarsest) value is negative — the paper's negative wait
    time for very coarse grain."""
    if not points:
        return [f"{label}: empty series"]
    if points[-1][1] >= 0:
        return [f"{label}: coarse tail {points[-1][1]:.4g} is not negative"]
    return []


def check_tracks(
    a: list[tuple[float, float]],
    b: list[tuple[float, float]],
    label: str,
    min_correlation: float = 0.85,
) -> list[str]:
    """Series ``a`` and ``b`` rank-correlate (Fig. 7/8's "mimics" claim)."""
    xa = dict(a)
    xb = dict(b)
    shared = sorted(set(xa) & set(xb))
    if len(shared) < 4:
        return [f"{label}: fewer than 4 shared x values"]
    ya = [xa[x] for x in shared]
    yb = [xb[x] for x in shared]

    def ranks(ys: list[float]) -> list[float]:
        order = sorted(range(len(ys)), key=lambda i: ys[i])
        r = [0.0] * len(ys)
        for rank, i in enumerate(order):
            r[i] = float(rank)
        return r

    ra, rb = ranks(ya), ranks(yb)
    n = len(shared)
    d2 = sum((x - y) ** 2 for x, y in zip(ra, rb))
    rho = 1.0 - 6.0 * d2 / (n * (n * n - 1))
    if rho < min_correlation:
        return [f"{label}: rank correlation {rho:.3f} < {min_correlation}"]
    return []
