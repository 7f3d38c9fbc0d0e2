"""repro.rt — the deadline & real-time scenario pack.

The paper's grain trade-off (task-management overhead vs starvation)
restated as a *timeliness* question: periodic/sporadic task sets with
deadlines run on the simulated HPX runtime, where subtask granularity is
the preemption granularity — cooperative tasks yield only at chunk
boundaries.  Splitting jobs finer buys urgent work shorter waits but
pays per-chunk management overhead; figE sweeps that axis and shows the
deadline-miss-rate U-shape, with the best grain coarsening as overhead
grows.

Layers (bottom up):

- :mod:`repro.rt.model` — task-set specs, seeded release/demand draws,
  the ``with_grain()`` splitter.
- :mod:`repro.rt.resources` — shared resources and the three protocols
  (``none`` / ``inherit`` / ``ceiling``) with inversion accounting.
- :mod:`repro.rt.scheduler` — rate-monotonic priority assignment and
  the job-level EDF policy (registry name ``rt-edf``).
- :mod:`repro.rt.service` — open-loop job release, chunk chaining,
  deadline tracking, the ``/rt...`` counter surface.
- :mod:`repro.rt.analysis` — the response-time schedulability oracle
  (:func:`rta`): the classical fixed-priority recurrence with
  per-protocol blocking terms and the runtime's per-chunk overhead
  priced into demand, cross-checked against measured miss sets.
"""

from repro.rt.analysis import (
    INFEASIBLE,
    SCHEDULABLE,
    UNKNOWN,
    RtaResult,
    TaskRta,
    response_time,
    rta,
)
from repro.rt.model import (
    PeriodicTaskSpec,
    RtTaskSpec,
    SporadicTaskSpec,
    TaskSet,
    split_exact,
)
from repro.rt.resources import PROTOCOLS, ResourceManager, ResourceStats
from repro.rt.scheduler import EdfScheduler, RtTag, rate_monotonic_priorities
from repro.rt.service import (
    Job,
    RtServiceConfig,
    RtServiceOutcome,
    RtTaskStats,
    run_rt_service,
)

__all__ = [
    "INFEASIBLE",
    "SCHEDULABLE",
    "UNKNOWN",
    "RtaResult",
    "TaskRta",
    "response_time",
    "rta",
    "PeriodicTaskSpec",
    "SporadicTaskSpec",
    "RtTaskSpec",
    "TaskSet",
    "split_exact",
    "PROTOCOLS",
    "ResourceManager",
    "ResourceStats",
    "EdfScheduler",
    "RtTag",
    "rate_monotonic_priorities",
    "Job",
    "RtServiceConfig",
    "RtServiceOutcome",
    "RtTaskStats",
    "run_rt_service",
]
