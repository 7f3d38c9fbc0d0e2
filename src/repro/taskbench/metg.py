"""METG: minimum effective task granularity (Task Bench's scalar).

For a given workload shape and machine, sweep the kernel granularity and
measure **efficiency** at each grain.  Efficiency here is exactly
``1 - idle-rate`` — the complement of the paper's Eq. 1: the fraction of the
core-time budget spent inside task bodies.  That identification is the whole
point of the subsystem: METG(50%) is the grain at which the paper's
headline counter crosses 50 %, so the idle-rate selection rule
(:func:`repro.core.selection.select_by_idle_rate`, threshold 30 %) *must*
land inside the METG-acceptable region — a claim figT checks by machine.

``metg()`` runs a geometric sweep, then bisects (in log-grain space)
between the coarsest failing and finest passing grain until the bracket is
within ``rel_tol``.  Everything is seeded and the simulator deterministic,
so the returned :class:`MetgResult` is bit-reproducible per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.core.characterize import default_partition_sweep
from repro.dist.runtime import DistConfig
from repro.runtime.runtime import RuntimeConfig
from repro.taskbench.driver import run_taskbench, run_taskbench_dist
from repro.taskbench.patterns import TaskBenchSpec


#: the default sweep (ns or points, per the kernel): 200 .. 100,000 at
#: three grains per decade
DEFAULT_GRAINS = tuple(
    default_partition_sweep(100_000, finest=200, points_per_decade=3)
)


@dataclass(frozen=True)
class EfficiencyPoint:
    """One measured (grain, efficiency) sample."""

    grain: int
    efficiency: float
    idle_rate: float
    execution_time_ns: int
    tasks_executed: int


@dataclass(frozen=True)
class MetgResult:
    """The efficiency-vs-grain characterization plus its METG scalar."""

    pattern_name: str
    platform_name: str
    num_cores: int
    num_localities: int
    target: float
    #: finest *measured* grain meeting the target; None if no grain did
    grain: int | None
    #: log-interpolated crossing between the bracketing measurements —
    #: continuous, so cross-pattern orderings are not quantized to the grid
    interpolated_grain: float | None
    #: every measured sample (sweep + bisection), sorted by grain
    curve: tuple[EfficiencyPoint, ...]

    @property
    def achieved(self) -> bool:
        return self.grain is not None

    def efficiency_at(self, grain: int) -> float:
        """The measured efficiency at ``grain`` (must be a swept grain)."""
        for p in self.curve:
            if p.grain == grain:
                return p.efficiency
        raise KeyError(
            f"grain {grain} was not measured for {self.pattern_name}"
        )

    def summary(self) -> str:
        where = (
            f"{self.num_localities} localities x " if self.num_localities > 1
            else ""
        )
        metg = (
            f"{self.interpolated_grain:.0f}" if self.interpolated_grain
            is not None else "not reached"
        )
        return (
            f"METG({self.target:.0%})[{self.pattern_name} @ {where}"
            f"{self.num_cores} cores {self.platform_name}] = {metg}"
        )


def measure_efficiency(
    spec: TaskBenchSpec,
    grain: int,
    *,
    platform: str = "haswell",
    num_cores: int = 8,
    scheduler: str = "priority-local",
    seed: int = 0,
    num_localities: int = 1,
) -> EfficiencyPoint:
    """Run one grain point and read efficiency = 1 - idle-rate off it."""
    sized = spec.with_grain(grain)
    if num_localities > 1:
        result = run_taskbench_dist(
            DistConfig(
                num_localities=num_localities,
                platform=platform,
                cores_per_locality=num_cores,
                scheduler=scheduler,
                seed=seed,
            ),
            sized,
        )
    else:
        result = run_taskbench(
            RuntimeConfig(
                platform=platform,
                num_cores=num_cores,
                scheduler=scheduler,
                seed=seed,
            ),
            sized,
        )
    idle = result.idle_rate
    return EfficiencyPoint(
        grain=grain,
        efficiency=1.0 - idle,
        idle_rate=idle,
        execution_time_ns=result.execution_time_ns,
        tasks_executed=result.tasks_executed,
    )


def efficiency_curve(
    spec: TaskBenchSpec,
    grains: Sequence[int] = DEFAULT_GRAINS,
    **kwargs,
) -> list[EfficiencyPoint]:
    """Measure efficiency over a grain sweep (see :func:`measure_efficiency`
    for the keyword knobs)."""
    return [measure_efficiency(spec, g, **kwargs) for g in grains]


def _interpolate_crossing(
    below: EfficiencyPoint, above: EfficiencyPoint, target: float
) -> float:
    """Log-grain-linear efficiency crossing between two bracketing points."""
    if above.efficiency == below.efficiency:
        return float(above.grain)
    frac = (target - below.efficiency) / (above.efficiency - below.efficiency)
    frac = min(1.0, max(0.0, frac))
    lo, hi = math.log(below.grain), math.log(above.grain)
    return math.exp(lo + frac * (hi - lo))


def metg(
    spec: TaskBenchSpec,
    *,
    target: float = 0.5,
    grains: Sequence[int] = DEFAULT_GRAINS,
    rel_tol: float = 0.02,
    platform: str = "haswell",
    num_cores: int = 8,
    scheduler: str = "priority-local",
    seed: int = 0,
    num_localities: int = 1,
) -> MetgResult:
    """Sweep + bisect for the minimum grain with efficiency >= ``target``.

    The sweep locates the coarsest failing / finest passing bracket; the
    bisection narrows it (geometric midpoints) until ``hi <= lo * (1 +
    rel_tol)``.  With the finest swept grain already passing, METG is
    reported *at* that grain (the true METG may be finer — widen the sweep);
    with no grain passing, ``grain`` is None.
    """
    if not 0.0 < target < 1.0:
        raise ValueError(f"target must be in (0, 1), got {target}")
    if rel_tol <= 0.0:
        raise ValueError("rel_tol must be positive")
    kwargs = dict(
        platform=platform,
        num_cores=num_cores,
        scheduler=scheduler,
        seed=seed,
        num_localities=num_localities,
    )
    curve = [measure_efficiency(spec, g, **kwargs) for g in grains]
    samples = {p.grain: p for p in curve}

    crossing = next(
        (i for i, p in enumerate(curve) if p.efficiency >= target), None
    )
    if crossing is None:
        return _result(spec, kwargs, target, None, None, samples)
    if crossing == 0:
        # No failing grain below: the sweep never saw the overhead wall.
        first = curve[0]
        return _result(
            spec, kwargs, target, first.grain, float(first.grain), samples
        )

    below, above = curve[crossing - 1], curve[crossing]
    while above.grain > int(below.grain * (1.0 + rel_tol)) + 1:
        mid = int(round(math.sqrt(below.grain * above.grain)))
        if mid <= below.grain or mid >= above.grain:
            break
        point = measure_efficiency(spec, mid, **kwargs)
        samples[mid] = point
        if point.efficiency >= target:
            above = point
        else:
            below = point
    return _result(
        spec,
        kwargs,
        target,
        above.grain,
        _interpolate_crossing(below, above, target),
        samples,
    )


def _result(
    spec: TaskBenchSpec,
    kwargs: dict,
    target: float,
    grain: int | None,
    interpolated: float | None,
    samples: dict[int, EfficiencyPoint],
) -> MetgResult:
    return MetgResult(
        pattern_name=spec.pattern_name,
        platform_name=str(kwargs["platform"]),
        num_cores=int(kwargs["num_cores"]),
        num_localities=int(kwargs["num_localities"]),
        target=target,
        grain=grain,
        interpolated_grain=interpolated,
        curve=tuple(samples[g] for g in sorted(samples)),
    )
