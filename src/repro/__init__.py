"""repro — reproduction of *The Performance Implication of Task Size for
Applications on the HPX Runtime System* (Grubel, Kaiser, Cook, Serio;
HPCMASPA @ IEEE CLUSTER 2015).

The library has three layers:

1. **Substrate** — an HPX-like task runtime (tasks, futures, the Priority
   Local-FIFO scheduler, performance counters) whose timing is driven by a
   deterministic discrete-event simulation of the paper's four evaluation
   platforms (:mod:`repro.runtime`, :mod:`repro.schedulers`,
   :mod:`repro.counters`, :mod:`repro.sim`).
2. **Core contribution** — the paper's task-granularity metrics (Eq. 1-6),
   the characterization methodology, grain-size selection rules, and the
   adaptive tuner the paper proposes as future work (:mod:`repro.core`).
3. **Evaluation** — the HPX-Stencil benchmark and companions
   (:mod:`repro.apps`) and harnesses regenerating every table and figure
   (:mod:`repro.experiments`).

Quickstart::

    from repro import Runtime, StencilWork

    rt = Runtime(platform="haswell", num_cores=8)
    f = rt.async_(lambda: "hello", work=StencilWork(points=10_000))
    result = rt.run()
    print(result.execution_time_s, f.value)

See README.md for the full tour and DESIGN.md for the architecture.
"""

from repro.core.metrics import GranularityMetrics, MetricInputs
from repro.runtime import (
    AutoChunkSize,
    FixedChunkCount,
    StaticChunkSize,
    parallel_for_each,
    parallel_reduce,
    FixedWork,
    Future,
    NoWork,
    Priority,
    StencilWork,
    Task,
    TaskState,
    WorkDescriptor,
    dataflow,
    then,
    when_all,
    when_any,
)
from repro.runtime.runtime import Runtime, RuntimeConfig, RunResult
from repro.runtime.thread_executor import ThreadRuntime
from repro.sim import (
    HASWELL,
    IVY_BRIDGE,
    PLATFORMS,
    SANDY_BRIDGE,
    XEON_PHI,
    PlatformSpec,
    get_platform,
)

__version__ = "1.0.0"

__all__ = [
    "AutoChunkSize",
    "FixedChunkCount",
    "StaticChunkSize",
    "parallel_for_each",
    "parallel_reduce",
    "GranularityMetrics",
    "MetricInputs",
    "Future",
    "dataflow",
    "then",
    "when_all",
    "when_any",
    "Priority",
    "Task",
    "TaskState",
    "Runtime",
    "RuntimeConfig",
    "RunResult",
    "ThreadRuntime",
    "WorkDescriptor",
    "StencilWork",
    "FixedWork",
    "NoWork",
    "PlatformSpec",
    "PLATFORMS",
    "SANDY_BRIDGE",
    "IVY_BRIDGE",
    "HASWELL",
    "XEON_PHI",
    "get_platform",
    "__version__",
]
