"""Cost-model calibration from measurable anchors.

The shipped :mod:`repro.sim.platforms` constants were derived by hand from
the paper's text (per-point time from "12,500 grid points take 21 µs",
bandwidth from the strong-scaling ceiling, contention from the fine-grain
idle-rates).  This module makes that derivation a function, so a user can
point the simulator at a *new* machine by supplying the same three anchors
measured on it:

1. **single-core kernel anchor** — one partition size and its measured
   single-core task duration → ``per_point_ns``;
2. **strong-scaling anchor** — the speedup observed at ``n`` cores in the
   medium-grain region → effective memory bandwidth (by inverting the
   bandwidth-inflation formula);
3. **fine-grain idle anchor** — the idle-rate observed at ``n`` cores for a
   known small grain → the convex contention coefficient (by inverting the
   management-cost scaling).

The round-trip property (a platform calibrated from anchors reproduces
those anchors in simulation) is tested in ``tests/test_calibrate.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.sim.costmodel import (
    BYTES_PER_POINT,
    CONTENTION_EXP,
    MEM_BOUND_FRAC,
    SOLO_INTERFERENCE_FRAC,
    CostModel,
)
from repro.sim.platforms import PlatformSpec


@dataclass(frozen=True)
class KernelAnchor:
    """Measured single-core duration of one stencil partition update."""

    points: int
    duration_ns: float

    def __post_init__(self) -> None:
        if self.points < 1 or self.duration_ns <= 0:
            raise ValueError("need points >= 1 and duration_ns > 0")


@dataclass(frozen=True)
class ScalingAnchor:
    """Observed medium-grain strong-scaling: ``speedup`` at ``cores``."""

    cores: int
    speedup: float

    def __post_init__(self) -> None:
        if self.cores < 2:
            raise ValueError("scaling anchor needs >= 2 cores")
        if not 1.0 <= self.speedup <= self.cores:
            raise ValueError(
                f"speedup must lie in [1, cores]; got {self.speedup} at "
                f"{self.cores} cores"
            )


@dataclass(frozen=True)
class ContentionAnchor:
    """Observed fine-grain idle-rate at ``cores`` for ``grain_points``."""

    cores: int
    grain_points: int
    idle_rate: float

    def __post_init__(self) -> None:
        if self.cores < 2:
            raise ValueError("contention anchor needs >= 2 cores")
        if not 0.0 < self.idle_rate < 1.0:
            raise ValueError("idle_rate must be in (0, 1)")


def calibrate(
    base: PlatformSpec,
    kernel: KernelAnchor,
    scaling: ScalingAnchor | None = None,
    contention: ContentionAnchor | None = None,
) -> PlatformSpec:
    """A copy of ``base`` whose cost constants satisfy the anchors.

    Anchors are applied independently: omitted ones leave the corresponding
    base constants untouched.  The kernel anchor is solved exactly
    (accounting for the cache tier the anchor partition occupies and the
    single-core housekeeping interference); the scaling and contention
    anchors invert the closed-form inflation formulas.
    """
    params = base.costs

    # 1. per-point time: duration = points * per_point * cache_factor *
    #    (1 + solo_interference) on one fully-busy core.
    probe = CostModel(base, 1, seed=0)
    factor = probe.cache_factor(kernel.points)
    per_point = kernel.duration_ns / (
        kernel.points * factor * (1.0 + SOLO_INTERFERENCE_FRAC)
    )
    params = replace(params, per_point_ns=per_point)

    # 2. bandwidth from the strong-scaling ceiling: at saturation,
    #    speedup = cores / inflation and
    #    inflation = 1 + mem_bound * (demand_ratio - 1).
    if scaling is not None:
        inflation = scaling.cores / scaling.speedup
        if inflation > 1.0 + 1e-9:
            ratio = 1.0 + (inflation - 1.0) / MEM_BOUND_FRAC
            demand = BYTES_PER_POINT / per_point  # bytes/ns/core
            bandwidth = demand * scaling.cores / ratio
            params = replace(params, mem_bandwidth_bytes_per_ns=bandwidth)
        # speedup == cores: never saturates at this count; keep base value.

    # 3. contention from the fine-grain idle-rate: with n_t >> cores and
    #    negligible bandwidth pressure (duty-cycled), idle ~= to / (to + td)
    #    where to = task_overhead * (1 + coef * (cores-1)^exp) + timer.
    if contention is not None:
        td = (
            contention.grain_points
            * per_point
            * probe.cache_factor(contention.grain_points)
        )
        needed_to = contention.idle_rate / (1.0 - contention.idle_rate) * td
        # Timing counters are on in the paper's measurements.
        base_to = params.task_overhead_ns + params.timer_overhead_ns
        scale = needed_to / base_to
        if scale > 1.0:
            coef = (scale - 1.0) / (contention.cores - 1) ** CONTENTION_EXP
            params = replace(params, contention_coef=coef)

    return replace(base, costs=params)
