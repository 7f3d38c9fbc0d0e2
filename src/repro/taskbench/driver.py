"""Lowering a :class:`TaskBenchSpec` onto every runtime this repo has.

One mapper, three substrates:

- :func:`run_taskbench` — the simulated single-node
  :class:`repro.runtime.runtime.Runtime`; returns the ordinary
  :class:`RunResult`, so every run yields the paper's counters (idle-rate,
  t_d, t_o, pending-queue accesses) for free;
- :func:`run_taskbench_threads` — the real-OS-thread
  :class:`repro.runtime.thread_executor.ThreadRuntime` (correctness only,
  never measurement: the GIL distorts exactly what METG measures);
- :func:`run_taskbench_dist` — the multi-locality
  :class:`repro.dist.DistRuntime` with ``"block"`` or ``"cyclic"`` column
  placement; any edge whose parent lives on another locality is
  transparently shipped as a parcel, so ``/parcels{locality#N/total}``
  counters come along for free.

Every task computes the literal value 1; after the run the driver verifies
all ``width x steps`` futures are ready and sum to the task count — a
lowering or wiring bug cannot silently return a plausible measurement.

:func:`taskbench_run_fn` adapts a spec to the characterization protocol
``(RuntimeConfig, grain) -> RunResult`` of :func:`repro.core.characterize`,
so the paper's whole methodology (COV statistics, selection rules, the
idle-rate threshold) applies to any Task Bench pattern unchanged.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.collector import paused
from repro.dist.runtime import DistConfig, DistRunResult, DistRuntime
from repro.runtime.future import Future
from repro.runtime.runtime import RunResult, Runtime, RuntimeConfig
from repro.runtime.thread_executor import ThreadRuntime
from repro.taskbench.patterns import TaskBenchSpec

#: column -> locality maps for the distributed lowering
PLACEMENTS = ("block", "cyclic")
#: how long :func:`run_taskbench_threads` waits for its OS threads
THREAD_TIMEOUT_S = 120.0

#: ``(step, index) -> (body, name, extra submission keywords)`` of one task
TaskFn = Callable[[int, int], tuple[Callable[..., Any], str, dict[str, Any]]]


def _unit(*_values: int) -> int:
    return 1


def make_placement(
    placement: str, width: int, num_localities: int
) -> Callable[[int], int]:
    """Column ``i`` -> owning locality.

    ``"block"``: contiguous column blocks (nearest-neighbour patterns cross
    the network only at block boundaries); ``"cyclic"``: round-robin (every
    neighbour edge crosses — the communication-heavy regime).
    """
    if placement not in PLACEMENTS:
        raise ValueError(
            f"placement must be one of {PLACEMENTS}, got {placement!r}"
        )
    if num_localities > width:
        raise ValueError(
            f"{num_localities} localities cannot all own one of "
            f"{width} columns"
        )
    if placement == "cyclic":
        return lambda i: i % num_localities
    return lambda i: i * num_localities // width


@paused()
def build_taskbench_graph(
    rt: Runtime | ThreadRuntime | DistRuntime,
    spec: TaskBenchSpec,
    *,
    placement: Callable[[int], int] | None = None,
    task: TaskFn | None = None,
) -> list[Future]:
    """Futurize the whole grid on ``rt``; returns all ``width x steps``
    futures in ``(step, index)`` order.

    ``placement`` (distributed runtimes only) maps a column to its home
    locality; edges between differently-placed columns become parcels via
    the runtime's own dependency localization.  ``task`` gives each task's
    body, name and extra submission keywords (``priority``, ``qos``); by
    default every task computes the literal 1 under the pattern's name.
    """
    if task is None:
        pattern_name = spec.pattern_name

        def task(step: int, i: int):
            return _unit, f"{pattern_name}[{step}][{i}]", {}

    kernel = spec.kernel
    futures: list[Future] = []
    prev: list[Future] = []
    for step in range(spec.steps):
        cur: list[Future] = []
        for i in range(spec.width):
            body, name, kwargs = task(step, i)
            if placement is not None:
                kwargs = {**kwargs, "locality": placement(i)}
            work = kernel.work_for(step, i, spec.seed)
            deps = spec.dependencies(step, i)
            if deps:
                f = rt.dataflow(
                    body, [prev[j] for j in deps], work=work, name=name, **kwargs
                )
            else:
                f = rt.async_(body, work=work, name=name, **kwargs)
            cur.append(f)
        futures.extend(cur)
        prev = cur
    return futures


def _verify(futures: Sequence[Future], spec: TaskBenchSpec) -> None:
    unready = sum(1 for f in futures if not f.is_ready)
    if unready:
        raise RuntimeError(
            f"{unready} of {spec.total_tasks} {spec.pattern_name} tasks "
            "never completed"
        )
    total = sum(f.value for f in futures)
    if total != spec.total_tasks:
        raise RuntimeError(
            f"{spec.pattern_name} grid computed {total}, "
            f"expected {spec.total_tasks}"
        )


@paused()
def run_taskbench(config: RuntimeConfig, spec: TaskBenchSpec) -> RunResult:
    """Run ``spec`` on a fresh simulated :class:`Runtime`."""
    rt = Runtime(config)
    futures = build_taskbench_graph(rt, spec)
    result = rt.run()
    _verify(futures, spec)
    return result


def taskbench_run_fn(
    spec: TaskBenchSpec,
) -> Callable[[RuntimeConfig, int], RunResult]:
    """Adapt ``spec`` to the ``(RuntimeConfig, grain) -> RunResult``
    workload protocol of :func:`repro.core.characterize.characterize`,
    with "grain" meaning the kernel's granularity knob."""

    def run_fn(config: RuntimeConfig, grain: int) -> RunResult:
        return run_taskbench(config, spec.with_grain(grain))

    return run_fn


def run_taskbench_threads(
    spec: TaskBenchSpec,
    *,
    num_workers: int = 4,
) -> int:
    """Run ``spec`` on real OS threads; returns the task count executed.

    Proof of portability, not a measurement: the thread executor ignores
    work descriptors and the GIL serializes the (trivial) task bodies.
    """
    with ThreadRuntime(num_workers=num_workers) as rt:
        futures = build_taskbench_graph(rt, spec)
        rt.wait_idle(timeout_s=THREAD_TIMEOUT_S)
    _verify(futures, spec)
    return len(futures)


@paused()
def run_taskbench_dist(
    dist_config: DistConfig,
    spec: TaskBenchSpec,
    *,
    placement: str = "block",
) -> DistRunResult:
    """Run ``spec`` on a fresh :class:`DistRuntime`.

    Columns are placed per ``placement``; every cross-locality edge ships
    the parent's value as a parcel, so the result's ``/parcels`` counters
    measure the pattern's communication density directly.
    """
    dist = DistRuntime(dist_config)
    place = make_placement(
        placement, spec.width, dist_config.num_localities
    )
    futures = build_taskbench_graph(dist, spec, placement=place)
    result = dist.wait(futures)
    _verify(futures, spec)
    return result
