"""HPX-like task runtime: lightweight tasks, futures, executors.

The package mirrors the HPX constructs the paper relies on:

- :mod:`repro.runtime.task` — the HPX-thread object: five states
  (staged, pending, active, suspended, terminated), thread phases, priority,
  and per-task time accounting;
- :mod:`repro.runtime.future` — ``Future`` with ``then`` / ``when_all`` /
  ``dataflow`` composition, the mechanism HPX-Stencil uses to express its
  dependency graph (paper Fig. 2);
- :mod:`repro.runtime.work` — work descriptors that tell the cost model how
  large a task's computation is (``async_``/``dataflow`` live on
  :class:`repro.runtime.runtime.Runtime` itself);
- :mod:`repro.runtime.sim_executor` — workers driven by the discrete-event
  simulator (all quantitative experiments);
- :mod:`repro.runtime.thread_executor` — the same scheduler running on real
  OS threads (API demos and correctness tests; never used for measurements
  because the GIL distorts fine-grained timings);
- :mod:`repro.runtime.runtime` — the facade tying platform, scheduler,
  counters and executor together.

This file does not import the facade (it imports the schedulers, which
import :mod:`repro.runtime.task` and so this file): take ``Runtime``,
``RuntimeConfig`` and ``RunResult`` from the facade or from :mod:`repro`.
"""

from repro.runtime.algorithms import (
    AutoChunkSize,
    FixedChunkCount,
    StaticChunkSize,
    parallel_for_each,
    parallel_reduce,
)
from repro.runtime.future import (
    Future,
    FutureError,
    dataflow,
    then,
    when_all,
    when_any,
)
from repro.runtime.task import Priority, Task, TaskState
from repro.runtime.work import FixedWork, NoWork, StencilWork, WorkDescriptor

__all__ = [
    "AutoChunkSize",
    "FixedChunkCount",
    "StaticChunkSize",
    "parallel_for_each",
    "parallel_reduce",
    "Future",
    "FutureError",
    "dataflow",
    "then",
    "when_all",
    "when_any",
    "Priority",
    "Task",
    "TaskState",
    "WorkDescriptor",
    "FixedWork",
    "NoWork",
    "StencilWork",
]
