"""Runtime facade: platform + scheduler + counters + executor in one object.

One :class:`Runtime` corresponds to one launch of the HPX runtime for one
application run: construct it with a :class:`RuntimeConfig`, submit work with
:meth:`Runtime.async_` / :meth:`Runtime.dataflow`, then :meth:`Runtime.run`
drives the simulation to completion and returns a :class:`RunResult`
packaging the execution time and a final counter snapshot — the exact raw
material the paper's metrics (Sec. II-A) are computed from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.analysis.dynamic import CheckError, RuntimeChecker
from repro.counters.interval import IntervalSampler
from repro.counters.registry import CounterRegistry, CounterSnapshot
from repro.overload.admission import AdmissionControl
from repro.overload.config import OverloadConfig
from repro.runtime.future import Future, dataflow as _dataflow
from repro.runtime.sim_executor import DeadlockError, SimExecutor
from repro.runtime.task import Priority, Task
from repro.runtime.work import WorkDescriptor
from repro.schedulers import make_scheduler
from repro.schedulers.base import SchedulingPolicy
from repro.sim.costmodel import CostModel
from repro.sim.engine import Simulator
from repro.sim.machine import Machine
from repro.sim.platforms import PlatformSpec, get_platform
from repro.sim.trace import ExecutionTrace


@dataclass(frozen=True)
class RuntimeConfig:
    """Configuration of one simulated runtime launch.

    ``platform`` accepts a name (``"haswell"``, ``"xeon-phi"``, aliases
    ``hw``/``knc``...) or a :class:`PlatformSpec`.  ``scheduler`` accepts a
    registry name or a policy instance.  ``seed`` feeds the cost-model jitter
    so repeated runs produce the COV statistics of the paper's methodology.
    """

    platform: str | PlatformSpec = "haswell"
    num_cores: int = 1
    scheduler: str | SchedulingPolicy = "priority-local"
    seed: int = 0
    timer_counters: bool = True
    #: record an :class:`repro.sim.trace.ExecutionTrace` of the run
    trace: bool = False
    #: install the dynamic checkers (:mod:`repro.analysis.dynamic`):
    #: dependency-cycle detection before the run, leaked-future detection
    #: after it; failures raise :class:`repro.analysis.CheckError`
    check: bool = False
    #: opt-in overload control (:mod:`repro.overload`); only the
    #: ``admission`` layer applies to a single-locality runtime.  ``None``
    #: (the default) is bit-identical to pre-overload behaviour.
    overload: OverloadConfig | None = None

    def resolve_platform(self) -> PlatformSpec:
        if isinstance(self.platform, PlatformSpec):
            return self.platform
        return get_platform(self.platform)

    def resolve_scheduler(self) -> SchedulingPolicy:
        if isinstance(self.scheduler, SchedulingPolicy):
            return self.scheduler
        return make_scheduler(self.scheduler)


@dataclass(frozen=True)
class RunResult:
    """Outcome of one completed run: time plus the final counter snapshot."""

    execution_time_ns: int
    counters: CounterSnapshot
    platform_name: str
    num_cores: int
    tasks_executed: int

    # -- the counter readings the paper's metrics start from -------------------

    @property
    def execution_time_s(self) -> float:
        return self.execution_time_ns / 1e9

    @property
    def idle_rate(self) -> float:
        """Eq. 1, as reported by ``/threads/idle-rate``."""
        return self.counters.get("/threads/idle-rate")

    @property
    def task_duration_ns(self) -> float:
        """Eq. 2 (t_d), as reported by ``/threads/time/average``."""
        return self.counters.get("/threads/time/average")

    @property
    def task_overhead_ns(self) -> float:
        """Per-task management time, ``/threads/time/average-overhead``."""
        return self.counters.get("/threads/time/average-overhead")

    @property
    def cumulative_exec_ns(self) -> float:
        return self.counters.get("/threads/time/cumulative")

    @property
    def cumulative_func_ns(self) -> float:
        return self.counters.get("/threads/time/cumulative-func")

    @property
    def pending_accesses(self) -> float:
        return self.counters.get("/threads/count/pending-accesses")

    @property
    def pending_misses(self) -> float:
        return self.counters.get("/threads/count/pending-misses")

    @property
    def phases(self) -> float:
        return self.counters.get("/threads/count/cumulative-phases")

    # -- overload counters (0.0 unless admission control was installed) --------

    @property
    def tasks_completed(self) -> float:
        """Tasks that actually executed, ``/threads/count/cumulative``."""
        return self.counters.get("/threads/count/cumulative")

    @property
    def tasks_offered(self) -> float:
        return self.counters.get("/overload/count/offered")

    @property
    def tasks_shed(self) -> float:
        return self.counters.get("/overload/count/shed")

    @property
    def tasks_spilled(self) -> float:
        return self.counters.get("/overload/count/spilled")

    @property
    def tasks_blocked(self) -> float:
        """Tasks block admission held back.  Tests read it to check that
        block admission readmits every task it blocks."""
        return self.counters.get("/overload/count/blocked")

    @property
    def tasks_readmitted(self) -> float:
        return self.counters.get("/overload/count/readmitted")

    @property
    def backpressure_wait_ns(self) -> float:
        return self.counters.get("/overload/time/backpressure-blocked")

    @property
    def peak_queue_depth(self) -> float:
        """High-water staged+pending depth of any one queue."""
        return self.counters.get("/overload/count/peak-queue-depth@gauge")


class Runtime:
    """A single-launch task runtime over the simulated machine.

    Implements the ``Spawner`` protocol, so it can be passed directly to
    :func:`repro.runtime.future.dataflow`.
    """

    def __init__(
        self,
        config: RuntimeConfig | None = None,
        *,
        simulator: Simulator | None = None,
        **kwargs: Any,
    ) -> None:
        """Build the runtime.

        ``kwargs`` are a convenience for ad-hoc construction:
        ``Runtime(platform="haswell", num_cores=8)``.

        ``simulator`` shares an external event loop with this runtime —
        the mechanism :class:`repro.dist.DistRuntime` uses to drive several
        localities on one virtual clock.  When sharing a simulator, drive
        the composite centrally instead of calling :meth:`run` (which drains
        the *whole* event heap, other tenants' events included).
        """
        if config is None:
            config = RuntimeConfig(**kwargs)
        elif kwargs:
            raise TypeError("pass either a RuntimeConfig or keyword arguments")
        self.config = config
        self.platform = config.resolve_platform()
        self.machine = Machine(self.platform, config.num_cores)
        self.registry = CounterRegistry()
        self.cost_model = CostModel(
            self.platform,
            config.num_cores,
            seed=config.seed,
            timer_counters_enabled=config.timer_counters,
        )
        self.simulator = simulator if simulator is not None else Simulator()
        self.policy = config.resolve_scheduler()
        # The policy gates every queue it builds with this controller,
        # buckets built on first use included.
        control = None
        if config.overload is not None and config.overload.admission is not None:
            control = AdmissionControl(
                config.overload.admission, now_fn=lambda: self.simulator.now
            )
        self.executor = SimExecutor(
            self.machine, self.policy, self.cost_model, self.registry,
            self.simulator, control,
        )
        self.sampler = IntervalSampler(self.registry)
        if control is not None:
            control.on_shed = self.executor.on_task_shed
            control.register_counters(self.registry)
        #: the run's event record (``config.trace``), or None
        self.trace: ExecutionTrace | None = None
        if config.trace:
            self.trace = ExecutionTrace(num_workers=len(self.executor.workers))
            self.executor.layers = (self.trace,)
        #: dynamic checker (``check=True``); also the handle for monitors
        self.checker: RuntimeChecker | None = (
            RuntimeChecker(f"Runtime[{self.platform.name}]")
            if config.check
            else None
        )
        self._ran = False

    # -- work submission ----------------------------------------------------------

    def spawn(self, task: Task, worker: int | None = None) -> None:
        """Stage a raw :class:`Task` (Spawner protocol)."""
        self.executor.spawn(task, worker)

    def async_(
        self,
        fn: Callable[..., Any],
        *args: Any,
        work: WorkDescriptor | None = None,
        name: str = "",
        priority: Priority = Priority.NORMAL,
        qos: Any | None = None,
        worker: int | None = None,
    ) -> Future:
        """``hpx::async``: launch ``fn(*args)`` as a task, get its future."""
        result = Future(name or getattr(fn, "__name__", "async"))

        def body() -> None:
            try:
                value = fn(*args)
            except BaseException as exc:  # noqa: BLE001 - error channel
                result.set_exception(exc)
            else:
                result.set_value(value)

        task = Task(body, work=work, name=result.name, priority=priority, qos=qos)
        task.failure_hook = result.set_exception
        if self.checker is not None:
            self.checker.register_future(result)
        self.spawn(task, worker)
        return result

    def dataflow(
        self,
        fn: Callable[..., Any],
        dependencies: Sequence[Future],
        *,
        work: WorkDescriptor | None = None,
        name: str = "",
        priority: Priority = Priority.NORMAL,
        qos: Any | None = None,
    ) -> Future:
        """``hpx::dataflow``: run ``fn`` on dependency values when all ready."""
        result = _dataflow(
            self, fn, dependencies, work=work, name=name, priority=priority,
            qos=qos,
        )
        if self.checker is not None:
            self.checker.register_future(result)
        return result

    # -- driving -------------------------------------------------------------------

    def run(self) -> RunResult:
        """Drive the simulation until every spawned task has terminated.

        For periodic counter samples during the run (the paper's
        dynamic-measurement mode), drive it through
        :class:`repro.core.policy.PolicyEngine` instead; its samples are
        collected in ``self.sampler.samples``.
        """
        if self._ran:
            raise RuntimeError("Runtime instances are single-use; build a new one")
        self._ran = True

        if self.checker is not None:
            # Pre-flight: a dependency cycle among registered futures can
            # never complete; report it by name instead of simulating into
            # a deadlock.
            self.checker.raise_if_findings(self.checker.cycle_findings())
        try:
            finish_ns = self.executor.run()
        except DeadlockError:
            if self.checker is not None:
                findings = self.checker.cycle_findings()
                if findings:
                    raise CheckError(findings) from None
            raise
        if self.checker is not None:
            # Post-run: every future the runtime handed out must be ready;
            # a pending one is a leaked (never-satisfiable) future.
            self.checker.raise_if_findings(
                self.checker.leak_findings() + self.checker.race_findings()
            )
        return RunResult(
            execution_time_ns=finish_ns,
            counters=self.registry.snapshot(finish_ns),
            platform_name=self.platform.name,
            num_cores=self.config.num_cores,
            tasks_executed=self.executor.total_spawned,
        )
