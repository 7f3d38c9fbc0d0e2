"""Real-thread executor: the same scheduler running on OS threads.

This is the proof that :mod:`repro.schedulers` is a real runnable runtime and
not only a simulation artifact: the identical policy objects (dual queues,
Priority Local-FIFO search order) schedule real Python callables over a pool
of ``threading.Thread`` workers.

**It is never used for quantitative experiments.**  The CPython GIL
serializes task bodies, which distorts exactly the fine-grained overheads the
paper studies (see DESIGN.md's substitution table); measurements come from
:mod:`repro.runtime.sim_executor`.  The thread executor exists for:

- runnable examples (quickstart) whose tasks do real work;
- correctness tests that the scheduler loses no tasks under true concurrency;
- a migration path for users who want the API with real execution.

Counter support mirrors the simulated executor's names where meaningful
(task counts, queue accesses, cumulative exec time measured with
``perf_counter_ns``).
"""

from __future__ import annotations

import inspect
import threading
import time
from typing import Any, Callable, Sequence

from repro.analysis.dynamic import RuntimeChecker
from repro.counters.registry import CounterRegistry
from repro.runtime.future import Future, when_all
from repro.runtime.task import Priority, Task, TaskState
from repro.runtime.work import WorkDescriptor
from repro.schedulers import make_scheduler
from repro.schedulers.base import SchedulingPolicy
from repro.sim.machine import Machine
from repro.sim.platforms import KB, MB, GB, PlatformSpec, CostParams


def host_platform(num_cores: int, numa_domains: int = 1) -> PlatformSpec:
    """A synthetic :class:`PlatformSpec` describing the host machine.

    Only the topology fields matter to the thread executor (the scheduler
    needs NUMA ordering); the calibration constants are placeholders.
    """
    return PlatformSpec(
        name=f"host-{num_cores}c",
        microarchitecture="host",
        processor="host",
        clock_ghz=1.0,
        turbo_ghz=None,
        cores=num_cores,
        numa_domains=numa_domains,
        hardware_threads_per_core=1,
        hardware_threading_active=False,
        l1_bytes=32 * KB,
        l2_bytes=256 * KB,
        shared_l3_bytes=8 * MB,
        ram_bytes=1 * GB,
        costs=CostParams(per_point_ns=1.0, task_overhead_ns=1000.0),
    )


class ThreadRuntime:
    """M:N-style task pool: M tasks over N OS worker threads.

    Usage::

        with ThreadRuntime(num_workers=4) as rt:
            f = rt.async_(lambda: 21 * 2)
            assert rt.wait(f) == 42

    All scheduler and future mutations happen under one runtime lock; task
    bodies run outside it.
    """

    _IDLE_WAIT_S = 0.001

    def __init__(
        self,
        num_workers: int = 4,
        scheduler: str | SchedulingPolicy = "priority-local",
        numa_domains: int = 1,
        check: bool = False,
    ) -> None:
        """``check=True`` installs the dynamic checkers: leaked-future and
        dependency-cycle detection at shutdown, and the lockset monitor
        (``self.checker.monitor`` / ``self.checker.tracked_lock``) for
        shared state; findings raise :class:`repro.analysis.CheckError`."""
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.machine = Machine(host_platform(num_workers, numa_domains), num_workers)
        self.policy = (
            make_scheduler(scheduler) if isinstance(scheduler, str) else scheduler
        )
        self.policy.attach(self.machine)
        self.registry = CounterRegistry()
        self._lock = threading.RLock()
        self._work_available = threading.Condition(self._lock)
        self._all_done = threading.Condition(self._lock)
        self._outstanding = 0
        self._total_spawned = 0
        self._shutdown = False
        self._exec_ns = 0
        self._threads: list[threading.Thread] = []
        self._local = threading.local()
        self.checker: RuntimeChecker | None = (
            RuntimeChecker("ThreadRuntime") if check else None
        )
        self._register_counters()

    def _register_counters(self) -> None:
        reg = self.registry
        self._c_tasks = reg.raw("/threads/count/cumulative", "tasks executed")
        self._c_phases = reg.raw("/threads/count/cumulative-phases", "phases executed")
        self._c_errors = reg.raw(
            "/threads/count/errors",
            "raw task bodies that raised (async_/dataflow bodies catch their "
            "own errors into futures; this counts direct Task spawns)",
        )
        reg.derived(
            "/threads/count/pending-accesses",
            lambda: float(self.policy.aggregate_stats().pending_accesses),
            "pending-queue lookups",
        )
        reg.derived(
            "/threads/count/pending-misses",
            lambda: float(self.policy.aggregate_stats().pending_misses),
            "pending-queue lookups that found nothing",
        )
        reg.derived(
            "/threads/time/cumulative",
            lambda: float(self._exec_ns),
            "measured task body time (wall, ns)",
        )

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> "ThreadRuntime":
        if self._threads:
            raise RuntimeError("runtime already started")
        for i in range(self.machine.num_cores):
            t = threading.Thread(
                target=self._worker_loop, args=(i,), name=f"worker-{i}", daemon=True
            )
            self._threads.append(t)
            t.start()
        return self

    def shutdown(self, wait: bool = True) -> None:
        """Stop the workers; with ``wait`` (default), drain outstanding work
        first.

        With ``check=True`` and a drained shutdown, the dynamic checkers run
        last: dependency cycles and still-pending (leaked) futures among
        everything this runtime handed out, plus lockset races on monitored
        state, raise :class:`repro.analysis.CheckError`.
        """
        if wait:
            self.wait_idle()
        with self._lock:
            self._shutdown = True
            self._work_available.notify_all()
        for t in self._threads:
            t.join(timeout=10.0)
        self._threads.clear()
        if wait and self.checker is not None:
            self.checker.raise_if_findings()

    def __enter__(self) -> "ThreadRuntime":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown(wait=exc_info[0] is None)

    # -- submission (Spawner protocol + async/dataflow mirror) ----------------------

    def spawn(self, task: Task, worker: int | None = None) -> None:
        with self._lock:
            if self._shutdown:
                raise RuntimeError("runtime is shut down")
            if worker is None:
                worker = getattr(self._local, "worker_index", None)
            if worker is None:
                worker = self._total_spawned % self.machine.num_cores
            self._outstanding += 1
            self._total_spawned += 1
            self.policy.enqueue_staged(task, worker)
            self._work_available.notify_all()

    def async_(
        self,
        fn: Callable[..., Any],
        *args: Any,
        name: str = "",
        priority: Priority = Priority.NORMAL,
        qos: Any | None = None,
        work: WorkDescriptor | None = None,
    ) -> Future:
        """Launch ``fn(*args)`` on the pool; returns its future."""
        result = Future(name or getattr(fn, "__name__", "async"))

        def body() -> None:
            try:
                value = fn(*args)
            except BaseException as exc:  # noqa: BLE001 - error channel
                self._set_exception(result, exc)
            else:
                self._set_value(result, value)

        if self.checker is not None:
            self.checker.register_future(result)
        self.spawn(
            Task(body, work=work, name=result.name, priority=priority, qos=qos)
        )
        return result

    def dataflow(
        self,
        fn: Callable[..., Any],
        dependencies: Sequence[Future],
        *,
        name: str = "",
        priority: Priority = Priority.NORMAL,
        qos: Any | None = None,
        work: WorkDescriptor | None = None,
    ) -> Future:
        """Run ``fn`` on the dependency values once all are ready."""
        result = Future(name or getattr(fn, "__name__", "dataflow"))
        deps = list(dependencies)
        result.dependencies = tuple(deps)

        def body() -> None:
            try:
                value = fn(*(d.value for d in deps))
            except BaseException as exc:  # noqa: BLE001 - error channel
                self._set_exception(result, exc)
            else:
                self._set_value(result, value)

        def launch(_ready: Future) -> None:
            failed = next((d for d in deps if d.has_exception), None)
            if failed is not None:
                # Through _set_exception so threads blocked in wait() are
                # woken: a dependency failing must never hang a join.
                self._set_exception(result, failed.exception)  # type: ignore[arg-type]
                return
            self.spawn(
                Task(body, work=work, name=result.name, priority=priority, qos=qos)
            )

        if self.checker is not None:
            self.checker.register_future(result)
        with self._lock:
            when_all(deps, name=f"{result.name}:deps").on_ready(launch)
        return result

    # -- synchronization --------------------------------------------------------------

    def _set_value(self, future: Future, value: Any) -> None:
        with self._lock:
            future.set_value(value)
            self._all_done.notify_all()

    def _set_exception(self, future: Future, exc: BaseException) -> None:
        with self._lock:
            future.set_exception(exc)
            self._all_done.notify_all()

    def wait(self, future: Future, timeout_s: float | None = None) -> Any:
        """Block the calling (non-worker) thread until ``future`` is ready."""
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        with self._lock:
            while not future.is_ready:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TimeoutError(f"future {future.name!r} not ready")
                self._all_done.wait(timeout=remaining)
        return future.value

    def wait_idle(self, timeout_s: float | None = None) -> None:
        """Block until no tasks are outstanding."""
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        with self._lock:
            while self._outstanding > 0:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TimeoutError(
                            f"{self._outstanding} tasks still outstanding"
                        )
                self._all_done.wait(timeout=remaining)

    # -- the worker loop ----------------------------------------------------------------

    def _worker_loop(self, index: int) -> None:
        self._local.worker_index = index
        while True:
            with self._lock:
                if self._shutdown:
                    return
                found = self.policy.find_work(index)
                if found is None:
                    self._work_available.wait(timeout=self._IDLE_WAIT_S)
                    continue
                task = found.task
                if task.state is TaskState.STAGED:
                    task.set_state(TaskState.PENDING)
                task.set_state(TaskState.ACTIVE)
                task.begin_phase()
            self._execute(task)

    def _execute(self, task: Task) -> None:
        """Run one phase of ``task`` outside the lock; then finish it.

        Raw task bodies that raise do not kill the worker: the exception is
        stored on ``task.result`` and counted in ``/threads/count/errors``.
        (``async_``/``dataflow`` bodies never reach this path — they catch
        their own exceptions into their result futures.)
        """
        start = time.perf_counter_ns()
        error: BaseException | None = None
        try:
            if task.fn is not None:
                if inspect.isgeneratorfunction(task.fn):
                    raise NotImplementedError(
                        "generator (suspendable) tasks are only supported by "
                        "the simulated executor"
                    )
                task.fn()
        except BaseException as exc:  # noqa: BLE001 - recorded, not fatal
            error = exc
        elapsed = time.perf_counter_ns() - start
        with self._lock:
            task.exec_ns += elapsed
            self._exec_ns += elapsed
            self._c_phases.increment()
            task.set_state(TaskState.TERMINATED)
            self._c_tasks.increment()
            if error is not None:
                task.result = error
                self._c_errors.increment()
            self._outstanding -= 1
            # Notify on *every* termination, not only the last: a future
            # satisfied inside a raw task body (bypassing _set_value) must
            # still wake threads blocked in wait()/wait_idle().
            self._all_done.notify_all()
