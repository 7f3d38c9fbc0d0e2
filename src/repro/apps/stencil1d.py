"""HPX-Stencil: the futurized 1-D heat-diffusion benchmark (paper Sec. I-C).

"The calculation simulates the diffusion of heat across a ring by breaking
the ring up into discrete points and using the temperature of the point and
the temperatures of the neighboring points to calculate the temperature of
the next time step. [...] the data points have been split into partitions,
and each partition is represented with a future.  By changing the number of
data points in each partition [...] we can change the number of calculations
contained in each future.  In this way, we are able to control the grain
size of the problem."

The dependency structure is the paper's Fig. 2: to compute partition *j* at
time *t+1*, the three closest partitions (*j−1*, *j*, *j+1*, with ring
wraparound) from time *t* must be ready.  Each update is one
:func:`repro.runtime.future.dataflow` node carrying a
:class:`repro.runtime.work.StencilWork` descriptor, so the simulated duration
scales with the partition's point count while the *scheduling* is fully real.

Two execution payloads:

- ``validate=False`` (default, used by all sweeps): partition values are
  lightweight tokens; only the dependency graph and the cost model matter.
- ``validate=True``: partitions are NumPy arrays and each task applies the
  real heat kernel; :func:`serial_reference` recomputes the result without
  the runtime, and the two must agree to machine precision.  This pins the
  task graph to the mathematics it claims to implement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.collector import paused
from repro.runtime.future import Future, make_ready_future
from repro.runtime.runtime import RunResult, Runtime, RuntimeConfig
from repro.runtime.work import StencilWork

if TYPE_CHECKING:
    from repro.dist.result import DistRunResult


@dataclass(frozen=True)
class StencilConfig:
    """Problem definition.

    The paper computes 100 million grid points for 50 time steps (5 on the
    Xeon Phi).  Defaults here are scaled down (see DESIGN.md's substitution
    table); the *structure* — a ring of ``ceil(total/partition)`` partitions
    re-launched every step — is identical at any scale.
    """

    total_points: int = 1 << 20
    partition_points: int = 4096
    time_steps: int = 50
    #: k·dt/dx² of the explicit heat update; must stay below 0.5 for
    #: numerical stability of the scheme.
    heat_coefficient: float = 0.25
    #: compute real NumPy partitions and check against the serial reference
    validate: bool = False

    def __post_init__(self) -> None:
        if self.total_points < 1:
            raise ValueError("total_points must be >= 1")
        if not 1 <= self.partition_points <= self.total_points:
            raise ValueError(
                f"partition_points={self.partition_points} outside "
                f"1..{self.total_points}"
            )
        if self.time_steps < 0:
            raise ValueError("time_steps must be >= 0")
        if not 0.0 < self.heat_coefficient <= 0.5:
            raise ValueError("heat_coefficient must be in (0, 0.5]")

    @property
    def num_partitions(self) -> int:
        return math.ceil(self.total_points / self.partition_points)

    def partition_sizes(self) -> list[int]:
        """Point counts per partition; only the last may be smaller."""
        sizes = [self.partition_points] * (self.num_partitions - 1)
        sizes.append(self.total_points - self.partition_points * (self.num_partitions - 1))
        return sizes

    @property
    def total_tasks(self) -> int:
        """Task count of the full run: one per partition per time step."""
        return self.num_partitions * self.time_steps


def initial_condition(total_points: int) -> np.ndarray:
    """Deterministic initial temperatures (a jagged sawtooth so diffusion is
    visible and asymmetric around the ring)."""
    x = np.arange(total_points, dtype=np.float64)
    return (x % 97.0) + 0.5 * (x % 13.0)


def heat_partition(
    left: Any, mid: np.ndarray, right: Any, coefficient: float
) -> np.ndarray:
    """One explicit heat step on a partition given its ring neighbours.

    Only the last point of ``left`` and the first of ``right`` are read —
    exactly the halo a distributed HPX partition receives — so each
    neighbour may be its whole partition or just that edge point.
    """
    ext = np.concatenate(
        (np.atleast_1d(left)[-1:], mid, np.atleast_1d(right)[:1])
    )
    return mid + coefficient * (ext[:-2] - 2.0 * mid + ext[2:])


def initial_partitions(config: StencilConfig) -> list[Any]:
    """Every partition's step-0 payload: its slice of
    :func:`initial_condition` with ``validate=True``, else its index as a
    token standing in for the data."""
    if not config.validate:
        return list(range(config.num_partitions))
    u0 = initial_condition(config.total_points)
    bounds = np.cumsum([0] + config.partition_sizes())
    return [u0[bounds[i]:bounds[i + 1]] for i in range(config.num_partitions)]


def serial_reference(
    u0: np.ndarray, time_steps: int, coefficient: float
) -> np.ndarray:
    """Runtime-free reference: the same scheme on the whole ring at once."""
    u = u0.copy()
    for _ in range(time_steps):
        u = u + coefficient * (np.roll(u, 1) - 2.0 * u + np.roll(u, -1))
    return u


@paused()
def build_stencil_graph(
    runtime: Runtime, config: StencilConfig
) -> list[Future]:
    """Construct the full futurized dependency tree (paper Fig. 2).

    Returns the futures of the final time step's partitions.  As in
    ``1d_stencil_4``, the whole tree for every step is expressed up front;
    tasks become runnable wave by wave as their dependencies complete.
    """
    sizes = config.partition_sizes()
    np_count = config.num_partitions
    coeff = config.heat_coefficient

    current = [
        make_ready_future(payload, name=f"U[0][{i}]")
        for i, payload in enumerate(initial_partitions(config))
    ]

    for step in range(1, config.time_steps + 1):
        nxt: list[Future] = []
        for i in range(np_count):
            deps = [
                current[(i - 1) % np_count],
                current[i],
                current[(i + 1) % np_count],
            ]
            if config.validate:
                body: Any = (
                    lambda left, mid, right: heat_partition(left, mid, right, coeff)
                )
            else:
                body = lambda _left, mid, _right: mid
            nxt.append(
                runtime.dataflow(
                    body,
                    deps,
                    work=StencilWork(points=sizes[i]),
                    name=f"U[{step}][{i}]",
                )
            )
        current = nxt
    return current


@dataclass(frozen=True)
class StencilOutcome:
    """A finished stencil run, single-node or distributed: the runtime
    result plus (optionally) data."""

    result: RunResult | DistRunResult
    config: StencilConfig
    final_partitions: list[np.ndarray] | None

    @classmethod
    def collect(
        cls,
        result: RunResult | DistRunResult,
        config: StencilConfig,
        finals: list[Future],
    ) -> StencilOutcome:
        """The outcome of a run whose last step produced ``finals``."""
        # Even token runs must have completed every final future.
        unready = sum(1 for f in finals if not f.is_ready)
        if unready:
            raise RuntimeError(f"{unready} final partitions never completed")
        partitions = [f.value for f in finals] if config.validate else None
        return cls(result=result, config=config, final_partitions=partitions)

    def final_array(self) -> np.ndarray:
        if self.final_partitions is None:
            raise ValueError("run with validate=True to collect data")
        return np.concatenate(self.final_partitions)


@paused()
def run_stencil(
    runtime_config: RuntimeConfig, config: StencilConfig
) -> StencilOutcome:
    """Run HPX-Stencil to completion on a fresh simulated runtime."""
    runtime = Runtime(runtime_config)
    finals = build_stencil_graph(runtime, config)
    return StencilOutcome.collect(runtime.run(), config, finals)


def stencil_run_fn(
    total_points: int,
    time_steps: int,
    *,
    validate: bool = False,
):
    """A ``(RuntimeConfig, grain) -> RunResult`` closure for the
    characterization driver (:mod:`repro.core.characterize`), with the grain
    expressed as points-per-partition, as in the paper's sweeps."""

    def run(runtime_config: RuntimeConfig, partition_points: int) -> RunResult:
        config = StencilConfig(
            total_points=total_points,
            partition_points=partition_points,
            time_steps=time_steps,
            validate=validate,
        )
        return run_stencil(runtime_config, config).result

    return run
