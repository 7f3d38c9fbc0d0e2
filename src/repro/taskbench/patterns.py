"""Dependence-pattern generators: the Task Bench task grid.

A workload is a grid of ``width x steps`` tasks.  Task ``(step, i)`` may
depend only on tasks of step ``step - 1`` — the Task Bench construction —
so every generated graph is acyclic **by construction**; the property tests
verify the invariant over the whole catalogue anyway.

Each :class:`Pattern` is a pure function ``(width, step, index, seed) ->
parent columns``: no state, no RNG objects.  ``random_nearest`` draws its
neighbours through the SplitMix64 streams of :mod:`repro.faults.plan`, so
the same seed reproduces the same edge set in any process, independent of
``PYTHONHASHSEED`` or call order.

The catalogue (densities are the maximum in-degree ``d``):

=====================  ===  ==============================================
pattern                 d   structure
=====================  ===  ==============================================
``trivial``             0   no edges; width x steps independent tasks
``serial_chain``        1   column ``i`` is an isolated chain through time
``stencil_1d``          3   left/self/right neighbours, clipped at edges
``stencil_1d_periodic`` 3   left/self/right on a ring
``tree``                2   alternating binary fan-in / fan-out sweeps
``fft``                 2   butterfly: partner distance ``2^(s mod log2 w)``
``random_nearest``      3   self + 2 seeded draws within distance 3
``spread``              3   3 parents spread across the width, shifting
                            one column per step
=====================  ===  ==============================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.faults.plan import stream_u64
from repro.taskbench.kernels import ComputeKernel, KernelSpec

#: ``random_nearest``: how far a drawn neighbour may sit from the task
NEAREST_RADIUS = 3
#: ``random_nearest``: seeded draws per task (on top of the self edge)
NEAREST_DRAWS = 2
#: ``spread``: parents per task
SPREAD_DEGREE = 3
#: role tag keeping taskbench draws disjoint from the fault injector's
_ROLE_NEAREST = 0x7B


@dataclass(frozen=True)
class Pattern:
    """One dependence pattern; see the module docstring's catalogue."""

    name: str
    description: str
    #: maximum in-degree a task of this pattern can have
    max_deps: int
    #: ``(width, step, index, seed) -> sorted unique parent columns``;
    #: only consulted for ``step >= 1``
    deps_fn: Callable[[int, int, int, int], tuple[int, ...]]
    #: butterfly-style patterns need a power-of-two width
    requires_pow2_width: bool = False

    def validate(self, width: int) -> None:
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        if self.requires_pow2_width and width & (width - 1):
            raise ValueError(
                f"pattern {self.name!r} needs a power-of-two width, "
                f"got {width}"
            )

    def dependencies(
        self, width: int, step: int, index: int, *, seed: int = 0
    ) -> tuple[int, ...]:
        """Parent columns (in step ``step - 1``) of task ``(step, index)``."""
        if not 0 <= index < width:
            raise ValueError(f"index {index} outside width {width}")
        if step <= 0:
            return ()
        return self.deps_fn(width, step, index, seed)


# -- the catalogue ------------------------------------------------------------------


def _trivial(width: int, step: int, index: int, seed: int) -> tuple[int, ...]:
    return ()


def _serial_chain(width: int, step: int, index: int, seed: int) -> tuple[int, ...]:
    return (index,)


def _stencil_1d(width: int, step: int, index: int, seed: int) -> tuple[int, ...]:
    return tuple(
        sorted({max(0, index - 1), index, min(width - 1, index + 1)})
    )


def _stencil_1d_periodic(
    width: int, step: int, index: int, seed: int
) -> tuple[int, ...]:
    return tuple(
        sorted({(index - 1) % width, index, (index + 1) % width})
    )


def _levels(width: int) -> int:
    """Sweep length of the tree/fft phases: ``ceil(log2(width))``, >= 1."""
    return max(1, math.ceil(math.log2(width))) if width > 1 else 1


def _tree(width: int, step: int, index: int, seed: int) -> tuple[int, ...]:
    """Alternating binary fan-in and fan-out sweeps.

    The first ``levels`` steps reduce: at distance ``d = 2^k`` the surviving
    columns (``index % 2d == 0``) combine with their ``index + d`` partner,
    every other column just carries itself forward.  The next ``levels``
    steps broadcast the same shape in reverse.  Density alternates between
    1 and 2 — the sparsest genuinely-coupled pattern in the catalogue.
    """
    levels = _levels(width)
    phase = (step - 1) % (2 * levels)
    if phase < levels:  # fan-in, distance doubling
        d = 1 << phase
        if index % (2 * d) == 0 and index + d < width:
            return (index, index + d)
        return (index,)
    # fan-out, distance halving: the mirror image of the fan-in step
    d = 1 << (2 * levels - 1 - phase)
    if index % (2 * d) == d:
        return (index - d, index)
    return (index,)


def _fft(width: int, step: int, index: int, seed: int) -> tuple[int, ...]:
    levels = _levels(width)
    d = 1 << ((step - 1) % levels)
    partner = index ^ d
    if partner >= width:  # width == 1
        return (index,)
    return tuple(sorted({index, partner}))


def _random_nearest(
    width: int, step: int, index: int, seed: int
) -> tuple[int, ...]:
    deps = {index}
    for draw in range(NEAREST_DRAWS):
        u = stream_u64(seed, _ROLE_NEAREST, step, index, draw)
        offset = (u % (2 * NEAREST_RADIUS + 1)) - NEAREST_RADIUS
        deps.add((index + offset) % width)
    return tuple(sorted(deps))


def _spread(width: int, step: int, index: int, seed: int) -> tuple[int, ...]:
    k = min(SPREAD_DEGREE, width)
    stride = max(1, width // k)
    return tuple(
        sorted({(index + j * stride + (step - 1)) % width for j in range(k)})
    )


PATTERNS: dict[str, Pattern] = {
    p.name: p
    for p in (
        Pattern("trivial", "no dependencies at all", 0, _trivial),
        Pattern("serial_chain", "independent per-column chains", 1,
                _serial_chain),
        Pattern("stencil_1d", "left/self/right, clipped at the boundary", 3,
                _stencil_1d),
        Pattern("stencil_1d_periodic", "left/self/right on a ring", 3,
                _stencil_1d_periodic),
        Pattern("tree", "alternating binary fan-in/fan-out sweeps", 2, _tree),
        Pattern("fft", "butterfly with doubling partner distance", 2, _fft,
                requires_pow2_width=True),
        Pattern("random_nearest",
                "self + 2 seeded draws within distance "
                f"{NEAREST_RADIUS}", NEAREST_DRAWS + 1, _random_nearest),
        Pattern("spread", f"{SPREAD_DEGREE} parents spread across the "
                "width, shifting each step", SPREAD_DEGREE, _spread),
    )
}


def get_pattern(name: str) -> Pattern:
    try:
        return PATTERNS[name]
    except KeyError:
        raise KeyError(
            f"unknown pattern {name!r}; expected one of {sorted(PATTERNS)}"
        ) from None


# -- the workload spec ---------------------------------------------------------------


@dataclass(frozen=True)
class TaskBenchSpec:
    """One parameterized task-graph workload: pattern x grid x kernel.

    ``seed`` feeds both the pattern (``random_nearest`` edges) and the
    kernel (``imbalanced`` per-task jitter); it is *distinct* from the
    runtime seed, so the same workload can be replayed on differently
    seeded runtimes.
    """

    pattern: str | Pattern = "stencil_1d"
    width: int = 64
    steps: int = 16
    kernel: KernelSpec = field(default_factory=lambda: ComputeKernel(2_000))
    seed: int = 0

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        self.resolve_pattern().validate(self.width)

    def resolve_pattern(self) -> Pattern:
        if isinstance(self.pattern, Pattern):
            return self.pattern
        return get_pattern(self.pattern)

    @property
    def pattern_name(self) -> str:
        return self.resolve_pattern().name

    @property
    def total_tasks(self) -> int:
        return self.width * self.steps

    def dependencies(self, step: int, index: int) -> tuple[int, ...]:
        """Parent columns (at ``step - 1``) of task ``(step, index)``."""
        return self.resolve_pattern().dependencies(
            self.width, step, index, seed=self.seed
        )

    def edges(self) -> Iterator[tuple[tuple[int, int], tuple[int, int]]]:
        """Every ``((step - 1, parent), (step, child))`` edge of the graph."""
        for step in range(1, self.steps):
            for index in range(self.width):
                for parent in self.dependencies(step, index):
                    yield ((step - 1, parent), (step, index))

    def edge_count(self) -> int:
        """The number of dependence edges.  Tests read it to check each
        pattern's edge law against its closed-form count."""
        return sum(1 for _ in self.edges())

    def with_grain(self, grain: int) -> "TaskBenchSpec":
        """The same workload at a different task granularity."""
        from dataclasses import replace

        return replace(self, kernel=self.kernel.with_grain(grain))
