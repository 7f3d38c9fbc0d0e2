"""Adaptive grain-size tuning — the paper's stated goal (Sec. VI).

"For future work, we will apply the methodology to dynamically adapt grain
size to minimize scheduling overheads and improve performance of parallel
applications."  This module implements that step on top of the metrics, in
the epoch style the stencil permits (grain size is an input of each
relaunch, so adaptation happens between epochs — the paper itself notes the
benchmark's grain "can be easily done statically and potentially done
dynamically").

:class:`AdaptiveGrainTuner` runs two phases, both driven purely by the
paper's dynamic metrics — it never sees a sweep:

1. **Region feedback** — diagnose each epoch's operating region and move
   multiplicatively toward the middle:

   * *too fine* — many tasks per core and per-task overhead is a large
     fraction of task duration (the paper's fine-grained wall);
   * *too coarse* — few tasks per core and the workers are under-utilized
     (the starvation wall).  Task count discriminates the two: both walls
     show low utilization, but only the fine wall has task counts in the
     thousands per core.

2. **Greedy refinement** — once inside the usable region, compare measured
   epoch times of neighbouring grains (a shrinking multiplicative
   neighbourhood) and descend while it helps.

The tuner converges in O(log(range)) epochs, which is the point of having
*dynamic* metrics rather than offline sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.metrics import GranularityMetrics, MetricInputs
from repro.runtime.runtime import RunResult, RuntimeConfig

#: One epoch: run the application briefly at a grain size.
EpochFn = Callable[[RuntimeConfig, int], RunResult]

#: overhead-to-duration ratio above which the grain is "too fine"
OVERHEAD_RATIO_HI = 0.20
#: tasks per core separating the fine wall from the coarse wall
STARVATION_TASKS_PER_CORE = 64.0
#: initial multiplicative step of the region-feedback phase
STEP = 4.0
#: step shrink on each direction reversal
STEP_SHRINK = 0.5
#: region phase ends when its step falls below this
MIN_STEP = 1.19
#: initial neighbourhood of the refinement phase
REFINE_STEP = 2.0


@dataclass(frozen=True)
class TunerConfig:
    """Controller parameters."""

    min_grain: int
    max_grain: int
    initial_grain: int | None = None
    #: utilization (avg concurrency / cores) below which it is "too coarse"
    utilization_lo: float = 0.60
    #: a refinement move must improve time by this fraction
    refine_improvement: float = 0.02
    max_epochs: int = 40

    def __post_init__(self) -> None:
        if not 1 <= self.min_grain <= self.max_grain:
            raise ValueError("need 1 <= min_grain <= max_grain")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")


@dataclass(frozen=True)
class TunerStep:
    """One epoch's observation and the controller's decision."""

    epoch: int
    grain: int
    execution_time_s: float
    idle_rate: float
    overhead_ratio: float
    utilization: float
    diagnosis: str  # "too-fine" | "too-coarse" | "ok" | "refine"
    action: str  # "grow" | "shrink" | "hold" | "refine" | "stop"


@dataclass
class TunerResult:
    """Full trajectory plus the final recommendation."""

    steps: list[TunerStep] = field(default_factory=list)
    final_grain: int = 0
    final_time_s: float = 0.0
    converged: bool = False

    @property
    def epochs(self) -> int:
        return len(self.steps)


class AdaptiveGrainTuner:
    """Feedback controller over the paper's dynamic metrics."""

    def __init__(
        self,
        epoch_fn: EpochFn,
        runtime_config_factory: Callable[[int], RuntimeConfig],
        config: TunerConfig,
    ) -> None:
        """``epoch_fn(runtime_config, grain)`` runs one epoch.

        ``runtime_config_factory(epoch)`` supplies a fresh config per epoch
        (so each epoch gets a distinct seed while platform/cores stay fixed).
        """
        self.epoch_fn = epoch_fn
        self.runtime_config_factory = runtime_config_factory
        self.config = config

    # -- diagnosis ---------------------------------------------------------------

    def diagnose(self, metrics: GranularityMetrics) -> tuple[str, float, float]:
        """Classify an epoch: (diagnosis, overhead_ratio, utilization).

        Both walls show low utilization; the task count per core separates
        them (see module docstring).
        """
        td = metrics.task_duration_ns
        to = metrics.task_overhead_ns
        overhead_ratio = to / td if td > 0 else float("inf")
        t = metrics.execution_time_ns
        utilization = (
            td * metrics.tasks_executed / (t * metrics.num_cores) if t > 0 else 0.0
        )
        cfg = self.config
        tasks_per_core = (
            metrics.tasks_executed / metrics.num_cores if metrics.num_cores else 0.0
        )
        many_tasks = tasks_per_core >= STARVATION_TASKS_PER_CORE
        if overhead_ratio > OVERHEAD_RATIO_HI and many_tasks:
            return "too-fine", overhead_ratio, utilization
        if utilization < cfg.utilization_lo and not many_tasks and metrics.num_cores > 1:
            return "too-coarse", overhead_ratio, utilization
        if utilization < cfg.utilization_lo and metrics.num_cores > 1:
            # Low utilization with many tasks: overhead is eating the
            # machine even if the ratio test was borderline.
            return "too-fine", overhead_ratio, utilization
        return "ok", overhead_ratio, utilization

    # -- the control loop -----------------------------------------------------------

    def run(self) -> TunerResult:
        cfg = self.config
        result = TunerResult()
        times: dict[int, float] = {}
        epoch_counter = [0]

        def measure(grain: int, diagnosis_override: str | None = None) -> TunerStep | None:
            if epoch_counter[0] >= cfg.max_epochs:
                return None
            epoch = epoch_counter[0]
            epoch_counter[0] += 1
            run = self.epoch_fn(self.runtime_config_factory(epoch), grain)
            metrics = GranularityMetrics.compute(
                MetricInputs.from_run_result(run)
            )
            diagnosis, ratio, util = self.diagnose(metrics)
            step = TunerStep(
                epoch=epoch,
                grain=grain,
                execution_time_s=run.execution_time_s,
                idle_rate=metrics.idle_rate,
                overhead_ratio=ratio,
                utilization=util,
                diagnosis=diagnosis_override or diagnosis,
                action="",
            )
            times[grain] = run.execution_time_s
            result.steps.append(step)
            return step

        def clamp(grain: int) -> int:
            return min(max(grain, cfg.min_grain), cfg.max_grain)

        # ---- phase 1: region feedback ----
        grain = clamp(
            cfg.initial_grain if cfg.initial_grain is not None else cfg.min_grain
        )
        step_factor = STEP
        last_direction = 0
        in_region = False
        while True:
            observed = measure(grain)
            if observed is None:
                break
            if observed.diagnosis == "too-fine":
                direction = +1
            elif observed.diagnosis == "too-coarse":
                direction = -1
            else:
                in_region = True
                self._annotate_last(result, "hold")
                break
            self._annotate_last(result, "grow" if direction > 0 else "shrink")
            if last_direction != 0 and direction != last_direction:
                step_factor = max(
                    1.0 + (step_factor - 1.0) * STEP_SHRINK, MIN_STEP
                )
                if step_factor <= MIN_STEP:
                    in_region = True
                    break
            new_grain = clamp(
                int(round(grain * step_factor))
                if direction > 0
                else int(round(grain / step_factor))
            )
            if new_grain == grain:
                in_region = True  # pinned against a bound
                break
            grain = new_grain
            last_direction = direction

        # ---- phase 2: greedy refinement on measured epoch time ----
        refine = REFINE_STEP
        while in_region and epoch_counter[0] < cfg.max_epochs and refine > 1.05:
            current_time = times[grain]
            candidates = []
            for neighbour in (
                clamp(int(round(grain / refine))),
                clamp(int(round(grain * refine))),
            ):
                if neighbour == grain:
                    continue
                if neighbour not in times:
                    if measure(neighbour, diagnosis_override="refine") is None:
                        break
                    self._annotate_last(result, "refine")
                candidates.append(neighbour)
            if not candidates:
                break
            best = min(candidates, key=lambda g: times[g])
            if times[best] < current_time * (1.0 - cfg.refine_improvement):
                grain = best
            else:
                refine = refine**0.5

        best_grain = min(times, key=lambda g: times[g]) if times else grain
        result.final_grain = best_grain
        result.final_time_s = times.get(best_grain, 0.0)
        result.converged = in_region
        if result.steps:
            last = result.steps[-1]
            result.steps[-1] = TunerStep(
                epoch=last.epoch,
                grain=last.grain,
                execution_time_s=last.execution_time_s,
                idle_rate=last.idle_rate,
                overhead_ratio=last.overhead_ratio,
                utilization=last.utilization,
                diagnosis=last.diagnosis,
                action="stop",
            )
        return result

    @staticmethod
    def _annotate_last(result: TunerResult, action: str) -> None:
        last = result.steps[-1]
        result.steps[-1] = TunerStep(
            epoch=last.epoch,
            grain=last.grain,
            execution_time_s=last.execution_time_s,
            idle_rate=last.idle_rate,
            overhead_ratio=last.overhead_ratio,
            utilization=last.utilization,
            diagnosis=last.diagnosis,
            action=action,
        )
