#!/usr/bin/env python
"""Task Bench in five minutes: patterns, METG, and distributed lowering.

A :class:`repro.taskbench.TaskBenchSpec` is a ``width x steps`` grid of
tasks plus a *dependence pattern* naming which previous-step columns feed
each task.  The same spec lowers onto every runtime in the repo; this
example:

1. runs two patterns (``trivial`` and ``stencil_1d``) on the simulated
   single-node :class:`repro.runtime.runtime.Runtime` and compares their
   idle-rate at the same grain — dependence structure alone costs efficiency;
2. measures METG(50%) for both: the minimum task grain at which the
   runtime still spends half the core-time budget inside task bodies
   (efficiency is literally ``1 - idle-rate``, the paper's Eq. 1);
3. lowers the ``fft`` butterfly onto the multi-locality
   :class:`repro.dist.DistRuntime`, where cross-locality edges become
   parcels you can count.

Run: ``python examples/taskbench_patterns.py``
"""

from repro.dist import DistConfig
from repro.runtime.runtime import RuntimeConfig
from repro.taskbench import (
    TaskBenchSpec,
    metg,
    run_taskbench,
    run_taskbench_dist,
)

WIDTH = 64
STEPS = 16
CORES = 8
GRAIN_NS = 2_000


def single_node_demo() -> None:
    print("== two patterns on the single-node runtime ==")
    config = RuntimeConfig(platform="haswell", num_cores=CORES, seed=0)
    for pattern in ("trivial", "stencil_1d"):
        spec = TaskBenchSpec(pattern=pattern, width=WIDTH, steps=STEPS)
        result = run_taskbench(config, spec.with_grain(GRAIN_NS))
        print(
            f"{pattern:12s} {spec.total_tasks} tasks @ {GRAIN_NS} ns: "
            f"time {result.execution_time_ns / 1e6:.3f} ms, "
            f"idle-rate {result.idle_rate:.3f}"
        )


def metg_demo() -> None:
    print()
    print("== METG(50%): the grain where efficiency crosses one half ==")
    for pattern in ("trivial", "stencil_1d"):
        spec = TaskBenchSpec(pattern=pattern, width=WIDTH, steps=STEPS)
        result = metg(spec, num_cores=CORES, seed=0)
        print(f"{result.summary()} ns")
    print("the dependence-free pattern tolerates the finest grain")


def distributed_demo() -> None:
    print()
    print("== the fft butterfly across 4 localities ==")
    spec = TaskBenchSpec(pattern="fft", width=WIDTH, steps=STEPS)
    config = DistConfig(
        num_localities=4, platform="haswell", cores_per_locality=2, seed=0
    )
    for placement in ("block", "cyclic"):
        result = run_taskbench_dist(config, spec, placement=placement)
        result.assert_parcels_conserved()
        print(
            f"{placement:7s} placement: parcels sent "
            f"{result.parcels_sent}, idle-rate {result.idle_rate:.3f}"
        )
    print("every cross-locality edge shipped exactly one parcel")


def main() -> None:
    single_node_demo()
    metg_demo()
    distributed_demo()


if __name__ == "__main__":
    main()
