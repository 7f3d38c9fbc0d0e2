"""repro.taskbench: parameterized task-graph workloads and METG.

The paper characterizes grain size on one application (HPX-Stencil).  Task
Bench (Slaughter et al., arXiv:1908.05790 — PAPERS.md) decouples the
*dependence pattern* from the *runtime under test*: a workload is a
``(width, steps)`` grid of tasks plus a pattern function naming which
previous-step columns feed each task, and a single scalar — **METG(50%)**,
the minimum effective task granularity at which the runtime still delivers
50 % efficiency — summarizes the runtime's overhead wall.  Wu et al.
(arXiv:2207.12127) apply exactly that harness to HPX, making METG the
canonical companion metric to this paper's idle-rate threshold.

This package is that harness for the repro runtimes:

- :mod:`repro.taskbench.patterns` — declarative dependence patterns
  (``trivial`` ... ``fft`` ... ``random_nearest``) and the
  :class:`TaskBenchSpec` tying a pattern to a kernel;
- :mod:`repro.taskbench.kernels` — per-task work specs (compute-bound,
  memory-bound, seeded-imbalanced) lowered through the existing
  :mod:`repro.sim.costmodel` descriptors;
- :mod:`repro.taskbench.driver` — one mapper lowering any spec onto the
  single-node :class:`repro.runtime.runtime.Runtime`, the real-thread
  :class:`repro.runtime.thread_executor.ThreadRuntime`, and the
  multi-locality :class:`repro.dist.DistRuntime` (block/cyclic placement,
  cross-locality edges become parcels);
- :mod:`repro.taskbench.metg` — efficiency-vs-grain sweeps and the
  METG bisection, where efficiency is exactly ``1 - idle-rate`` (Eq. 1), so
  METG(50%) is the grain at which the paper's headline metric crosses 50 %.

The ``figT`` experiment (:mod:`repro.experiments.figT_taskbench_metg`)
builds the cross-pattern characterization on top; ``docs/taskbench.md`` is
the narrative documentation.
"""

from repro.taskbench.driver import (
    run_taskbench,
    run_taskbench_dist,
    run_taskbench_threads,
)
from repro.taskbench.kernels import (
    ComputeKernel,
    ImbalancedKernel,
    KernelSpec,
    MemoryKernel,
)
from repro.taskbench.metg import (
    EfficiencyPoint,
    MetgResult,
    efficiency_curve,
    metg,
)
from repro.taskbench.patterns import (
    PATTERNS,
    Pattern,
    TaskBenchSpec,
    get_pattern,
)

__all__ = [
    "ComputeKernel",
    "EfficiencyPoint",
    "ImbalancedKernel",
    "KernelSpec",
    "MemoryKernel",
    "MetgResult",
    "PATTERNS",
    "Pattern",
    "TaskBenchSpec",
    "efficiency_curve",
    "get_pattern",
    "metg",
    "run_taskbench",
    "run_taskbench_dist",
    "run_taskbench_threads",
]
