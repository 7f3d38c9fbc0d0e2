"""Simulated executor: HPX worker threads driven by the discrete-event engine.

Each simulated worker is a state machine:

- **searching** — runs the scheduling policy's ``find_work``; on a hit it
  charges the management costs (staged→pending conversion, steal penalty,
  context switch), asks the cost model for the task's virtual duration, and
  schedules its own completion;
- **idle** — no work anywhere; backs off exponentially while tasks remain
  outstanding (the backoff polls are charged to the queue-access counters,
  coalescing the spinning a real HPX worker would do);
- **dormant** — the program has no outstanding tasks; the worker stops.

Cost charging follows HPX's actual division of labour: creating a task into
a staged queue is nearly free (a thread *description*); the expensive part —
constructing the context — happens when the consumer converts staged→pending
(Sec. I-B), so the (create + convert) budget is charged at conversion time,
the switch cost at activation, and steal penalties on top when the work came
from another worker's queues.

Accounting feeds the same counters HPX exposes.  The *func* time underlying
the idle-rate (Eq. 1) is the total worker wall time (cores x elapsed), which
is how HPX's ``/threads/idle-rate`` behaves: it charges both management and
*starvation* against the budget, producing the paper's coarse-grain idle-rate
rise (Sec. IV-A).
"""

from __future__ import annotations

import inspect
from typing import TYPE_CHECKING, Sequence

from repro.counters.registry import CounterRegistry
from repro.layer import Layer, implementers
from repro.runtime.future import Future
from repro.runtime.task import Task, TaskState
from repro.runtime.work import FixedWork, NoWork, StencilWork
from repro.schedulers.base import FoundWork, SchedulingPolicy, WorkSource
from repro.sim.costmodel import CostModel
from repro.sim.engine import Event, Simulator
from repro.sim.machine import Machine

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.overload.admission import AdmissionControl


class DeadlockError(RuntimeError):
    """Raised when tasks remain outstanding but nothing can ever run them."""


#: Virtual cost of a bookkeeping-only (:class:`NoWork`) task body.
_NO_WORK_NS = 50


class _SimWorker:
    """Per-worker simulation state and time accounting."""

    __slots__ = (
        "index",
        "exec_ns",
        "mgmt_ns",
        "tasks_executed",
        "consecutive_misses",
        "wake_event",
        "busy",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.exec_ns: int = 0
        self.mgmt_ns: int = 0
        self.tasks_executed: int = 0
        self.consecutive_misses: int = 0
        self.wake_event: Event | None = None
        self.busy: bool = False


class SimExecutor:
    """Runs a task graph to completion in virtual time.

    Implements the ``Spawner`` protocol used by :func:`repro.runtime.future.
    dataflow`, so application code is identical under both executors.
    Observers are ``layers`` (:mod:`repro.layer`); assigning the attribute
    re-derives which layers each hook dispatches to.
    """

    def __init__(
        self,
        machine: Machine,
        policy: SchedulingPolicy,
        cost_model: CostModel,
        registry: CounterRegistry,
        simulator: Simulator | None = None,
        admission: AdmissionControl | None = None,
    ) -> None:
        self.machine = machine
        self.policy = policy
        self.cost_model = cost_model
        self.registry = registry
        self.sim = simulator if simulator is not None else Simulator()
        policy.attach(machine, admission)
        n = machine.num_cores
        self.workers = [_SimWorker(i) for i in range(n)]
        self._busy_count = 0
        self._outstanding = 0
        self._total_spawned = 0
        self._current_worker: int | None = None
        #: the task whose body (or completion callbacks) is running right
        #: now; the parent ``on_stage`` reports
        self._current_task: Task | None = None
        self._spawn_rr = 0
        #: workers currently in idle backoff, keyed by index (wake fast path)
        self._sleepers: dict[int, _SimWorker] = {}
        #: workers with index >= this limit park instead of polling
        #: (Porterfield-style concurrency throttling, paper Sec. V/VI)
        self._active_limit = n
        self._parked: dict[int, _SimWorker] = {}
        self.finish_ns: int | None = None
        #: fail-stop flag; see :meth:`halt`
        self._halted = False
        #: set by the first :meth:`start_workers`; gates dormancy restart so
        #: pre-run spawns do not schedule search events early (which would
        #: perturb the deterministic event order of existing runs)
        self._started = False
        self.layers = ()
        #: completion events of active phases, keyed by task id, so an
        #: active task can be cancelled before its phase elapses
        self._inflight: dict[int, tuple[Event, _SimWorker]] = {}
        self._register_counters()

    # -- counters ---------------------------------------------------------------

    def _register_counters(self) -> None:
        reg = self.registry
        n = self.machine.num_cores

        def total_exec() -> float:
            return float(sum(w.exec_ns for w in self.workers))

        def total_func() -> float:
            end = self.finish_ns if self.finish_ns is not None else self.sim.now
            return float(n * end)

        def idle_rate() -> float:
            func = total_func()
            if func <= 0:
                return 0.0
            return (func - total_exec()) / func

        reg.derived("/threads/time/cumulative", total_exec,
                    "running sum of task execution times (ns)")
        reg.derived("/threads/time/cumulative-func", total_func,
                    "total worker wall time (ns): cores x elapsed")
        reg.derived("/threads/idle-rate", idle_rate,
                    "thread-management ratio, Eq. 1")
        reg.derived("/runtime/uptime",
                    lambda: float(self.finish_ns if self.finish_ns is not None
                                  else self.sim.now),
                    "virtual time since runtime start (ns)")

        stats = self.policy.aggregate_stats
        reg.derived("/threads/count/pending-accesses",
                    lambda: float(stats().pending_accesses),
                    "pending-queue lookups")
        reg.derived("/threads/count/pending-misses",
                    lambda: float(stats().pending_misses),
                    "pending-queue lookups that found nothing")
        reg.derived("/threads/count/staged-accesses",
                    lambda: float(stats().staged_accesses),
                    "staged-queue lookups")
        reg.derived("/threads/count/staged-misses",
                    lambda: float(stats().staged_misses),
                    "staged-queue lookups that found nothing")

        self._c_tasks = reg.raw("/threads/count/cumulative",
                                "HPX-threads executed, n_t")
        self._c_phases = reg.raw("/threads/count/cumulative-phases",
                                 "thread phases executed")
        self._c_stolen = reg.raw("/threads/count/stolen",
                                 "tasks taken from another worker")
        self._c_stolen_staged = reg.raw("/threads/count/stolen-staged",
                                        "staged tasks taken from another worker")
        self._c_avg = reg.average("/threads/time/average",
                                  "average task execution time t_d, Eq. 2")
        self._c_avg_overhead = reg.average("/threads/time/average-overhead",
                                           "average per-task management t_o")
        self._c_avg_phase = reg.average("/threads/time/average-phase",
                                        "average phase duration")
        self._c_avg_phase_overhead = reg.average(
            "/threads/time/average-phase-overhead",
            "average per-phase management time")

        for w in self.workers:
            prefix = f"/threads{{locality#0/worker-thread#{w.index}}}"
            reg.derived(f"{prefix}/time/cumulative",
                        (lambda ww: lambda: float(ww.exec_ns))(w),
                        "per-worker execution time")
            reg.derived(f"{prefix}/count/cumulative",
                        (lambda ww: lambda: float(ww.tasks_executed))(w),
                        "per-worker task count")
            reg.value(f"{prefix}/count/queue-depth@gauge",
                      "staged+pending tasks homed on this worker",
                      source=(lambda i: lambda: float(
                          self.policy.worker_queue_depth(i)))(w.index))

    @property
    def layers(self) -> tuple[Layer, ...]:
        return self._layers

    @layers.setter
    def layers(self, layers: Sequence[Layer]) -> None:
        self._layers = tuple(layers)
        self._stage_layers = implementers(self._layers, "on_stage")
        self._steal_layers = implementers(self._layers, "on_steal")
        self._phase_layers = implementers(self._layers, "on_phase")
        self._finish_layers = implementers(self._layers, "on_finish")

    # -- spawning -----------------------------------------------------------------

    def spawn(self, task: Task, worker: int | None = None) -> None:
        """Stage ``task`` near a worker.

        Placement: the explicitly requested worker, else the worker in whose
        completion context we are running (HPX locality behaviour: dataflow
        continuations stage where the final dependency completed), else
        round-robin for top-level spawns.
        """
        if self._halted:
            return  # a dead locality accepts no work; the parcel layer
            # and the DistRuntime stuck-check account for the loss
        if worker is None:
            worker = self._current_worker
        if worker is None:
            worker = self._spawn_rr
            self._spawn_rr = (self._spawn_rr + 1) % len(self.workers)
        task.created_ns = self.sim.now
        self._outstanding += 1
        self._total_spawned += 1
        self.policy.enqueue_staged(task, worker)
        for layer in self._stage_layers:
            layer.on_stage(self, task, self._current_task)
        self._wake_idle_workers()
        self._maybe_restart_workers()

    def _requeue_resumed(self, task: Task, worker: int) -> None:
        """Suspended → pending (the thread keeps its context)."""
        if self._halted:
            return
        if task.cancelled:
            self._retire_cancelled(task)
            return
        task.set_state(TaskState.PENDING)
        self.policy.enqueue_pending(task, worker)
        self._wake_idle_workers()
        self._maybe_restart_workers()

    def _maybe_restart_workers(self) -> None:
        """Bring a dormant pool back to life when new work appears.

        A single-launch run never needs this: every mid-run spawn happens in
        a task's completion context (``_current_worker`` is set), so worker
        wake-up is handled by :meth:`_wake_idle_workers` alone.  Under
        :class:`repro.dist.DistRuntime`, however, an *external* event — a
        parcel delivery satisfying a proxy future — can enqueue work on a
        locality whose workers all went dormant when its first wave of tasks
        drained.  Dormant workers hold no wake events, so without this hook
        the new work would sit in the queues forever and the run would be
        misreported as a deadlock.
        """
        if self._halted or not self._started or self._current_worker is not None:
            return
        if self._busy_count > 0 or self._sleepers:
            return
        self.start_workers()

    def _wake_idle_workers(self) -> None:
        """New work arrived: collapse idle backoffs into an immediate poll.

        A real HPX worker spins and would notice new work within a
        microsecond; the simulated worker sleeps between polls, so enqueue
        events pull every sleeper forward to "now".
        """
        if not self._sleepers:
            return
        now = self.sim.now
        sleepers = list(self._sleepers.values())
        self._sleepers.clear()
        for w in sleepers:
            if w.wake_event is not None:
                w.wake_event.cancel()
                w.wake_event = None
                w.consecutive_misses = 0
                self.sim.schedule_at(now, (lambda ww: lambda: self._search(ww))(w))

    # -- the worker state machine ----------------------------------------------------

    # -- concurrency throttling ------------------------------------------------------

    @property
    def active_worker_limit(self) -> int:
        return self._active_limit

    def set_active_worker_limit(self, limit: int) -> None:
        """Throttle the pool to its first ``limit`` workers.

        Workers at or beyond the limit park after their current task; when
        the limit rises again, parked workers resume searching.  This is the
        actuation primitive of Porterfield-style adaptive scheduling
        (paper Sec. V), driven here by :mod:`repro.core.policy`.
        """
        n = len(self.workers)
        limit = min(max(1, limit), n)
        old = self._active_limit
        self._active_limit = limit
        if limit > old:
            now = self.sim.now
            for index in [i for i in self._parked if i < limit]:
                w = self._parked.pop(index)
                self.sim.schedule_at(now, (lambda ww: lambda: self._search(ww))(w))

    def _search(self, worker: _SimWorker) -> None:
        """One work-finding attempt; runs the policy and dispatches."""
        worker.wake_event = None
        self._sleepers.pop(worker.index, None)
        if self._halted:
            return
        if worker.index >= self._active_limit:
            self._parked[worker.index] = worker
            return
        found = self.policy.find_work(worker.index)
        if found is None:
            if self._outstanding == 0:
                return  # dormant; nothing will ever arrive
            if self._busy_count == 0 and self.policy.queued_tasks() == 0:
                # Every remaining task is suspended on a future that no
                # runnable task can ever satisfy.  Stop polling so the event
                # heap drains and run() reports the deadlock instead of
                # spinning in virtual time forever.
                self._cancel_all_wakeups()
                return
            worker.consecutive_misses += 1
            delay = self.cost_model.idle_backoff_ns(worker.consecutive_misses)
            worker.wake_event = self.sim.schedule(
                delay, lambda: self._search(worker)
            )
            self._sleepers[worker.index] = worker
            return
        worker.consecutive_misses = 0
        self._dispatch(worker, found)

    def _dispatch(self, worker: _SimWorker, found: FoundWork) -> None:
        """Charge management costs and start one phase of the task."""
        task = found.task
        if task.cancelled:
            # A queued loser of a speculative race: retire it the moment a
            # worker pulls it, charging nothing — the clone already won.
            self._retire_cancelled(task)
            self._search(worker)
            return
        source = found.source
        active = self._busy_count + 1
        costs = self.cost_model.task_costs(active)

        mgmt_ns = costs.switch_ns + self.policy.shared_structure_penalty_ns(active)
        if task.state is TaskState.STAGED:
            # The staged->pending conversion constructs the context; HPX's
            # thread-description creation cost is folded in here because
            # that is where the object is actually built (Sec. I-B).
            mgmt_ns += costs.create_ns + costs.convert_ns
            task.set_state(TaskState.PENDING)
        if source.was_stolen:
            mgmt_ns += self.cost_model.steal_cost_ns(
                same_domain=source.same_domain
            )
            self._c_stolen.increment()
            if source.was_staged:
                self._c_stolen_staged.increment()
            for layer in self._steal_layers:
                layer.on_steal(self, worker.index, source)

        task.set_state(TaskState.ACTIVE)
        task.begin_phase()
        duration_ns = self._phase_duration(task, mgmt_ns)

        worker.busy = True
        self._busy_count += 1
        dispatch_ns = self.sim.now
        event = self.sim.schedule(
            mgmt_ns + duration_ns,
            lambda: self._complete_phase(
                worker, task, mgmt_ns, duration_ns, dispatch_ns, source
            ),
        )
        self._inflight[task.task_id] = (event, worker)

    def _phase_duration(self, task: Task, mgmt_ns: int = 0) -> int:
        """Virtual execution time of one phase, from the work descriptor."""
        work = task.work
        busy_after = self._busy_count + 1
        if isinstance(work, StencilWork):
            idle = len(self.workers) - busy_after
            return self.cost_model.compute_ns(
                work.points,
                active_cores=busy_after,
                idle_cores=idle,
                mgmt_ns=mgmt_ns,
            )
        if isinstance(work, FixedWork):
            return self.cost_model.uniform_work_ns(work.ns)
        if isinstance(work, NoWork):
            return _NO_WORK_NS
        raise TypeError(f"unknown work descriptor {work!r}")

    def _complete_phase(
        self,
        worker: _SimWorker,
        task: Task,
        mgmt_ns: int,
        duration_ns: int,
        dispatch_ns: int = 0,
        source: WorkSource = WorkSource.LOCAL_PENDING,
    ) -> None:
        """A phase's virtual time has elapsed; run its Python side-effects."""
        self._inflight.pop(task.task_id, None)
        worker.busy = False
        self._busy_count -= 1
        if self._halted:
            # Fail-stop at task granularity: the phase's side-effects are
            # lost with the machine; nothing downstream is notified.
            return
        for layer in self._phase_layers:
            layer.on_phase(self, task, worker.index, dispatch_ns, mgmt_ns,
                           source)
        task.exec_ns += duration_ns
        task.overhead_ns += mgmt_ns
        worker.exec_ns += duration_ns
        worker.mgmt_ns += mgmt_ns
        self._c_phases.increment()
        self._c_avg_phase.add_sample(duration_ns)
        self._c_avg_phase_overhead.add_sample(mgmt_ns)

        self._current_worker = worker.index
        self._current_task = task
        try:
            finished, waits_on = self._advance_body(task)
        finally:
            self._current_worker = None
            self._current_task = None

        if finished:
            self._finish_task(worker, task)
        else:
            assert waits_on is not None
            task.set_state(TaskState.SUSPENDED)
            self._suspend_on(task, waits_on)

        # The worker looks for its next task in the same instant; the cost
        # of the lookup itself is charged via the poll/management model.
        self._search(worker)

    def _advance_body(self, task: Task) -> tuple[bool, Future | None]:
        """Run the task body's next slice.

        Returns ``(finished, future_to_wait_on)``.  Plain callables finish in
        one phase.  Generator bodies run to their next ``yield`` and suspend
        on the yielded future.
        """
        if task._generator is None and task.fn is not None:
            if inspect.isgeneratorfunction(task.fn):
                task._generator = task.fn()
            else:
                task.fn()
                return True, None
        if task._generator is None:
            return True, None  # fn was None: a no-op task
        try:
            yielded = next(task._generator)
        except StopIteration:
            return True, None
        if not isinstance(yielded, Future):
            raise TypeError(
                f"task {task.name} yielded {type(yielded).__name__}; "
                "generator tasks must yield Future instances"
            )
        return False, yielded

    def _suspend_on(self, task: Task, future: Future) -> None:
        """Arrange resume when ``future`` becomes ready.

        Resume placement: the worker in whose context the future was
        satisfied (locality follows the data, as in HPX).
        """

        def resume(_f: Future) -> None:
            worker = self._current_worker
            if worker is None:
                worker = task.home_worker if task.home_worker >= 0 else 0
            self._requeue_resumed(task, worker)

        future.on_ready(resume)

    def _finish_task(self, worker: _SimWorker, task: Task) -> None:
        task.set_state(TaskState.TERMINATED)
        worker.tasks_executed += 1
        self._outstanding -= 1
        self._c_tasks.increment()
        self._c_avg.add_sample(task.exec_ns)
        self._c_avg_overhead.add_sample(task.overhead_ns)
        if self._outstanding == 0:
            self.finish_ns = self.sim.now
            self._cancel_all_wakeups()

    def cancel_task(self, task: Task) -> bool:
        """Retire ``task`` without running (the rest of) its body.

        The primitive behind speculative first-completion-wins: the losing
        copy of a task pair is cancelled so exactly one execution counts.
        A queued (staged/pending) or suspended task is flagged and retired
        lazily when a worker next touches it; an active task has its
        pending completion event cancelled and its worker freed right now,
        the partial phase discarded.  Cancelled tasks never run callbacks,
        never satisfy futures, and are excluded from the completed-task
        counters.

        Returns False — and does nothing — on a halted executor, a
        terminated task, or a task already cancelled.
        """
        if self._halted or task.state is TaskState.TERMINATED or task.cancelled:
            return False
        if task is self._current_task:
            return False  # mid-completion: it has effectively finished
        task.cancelled = True
        entry = self._inflight.pop(task.task_id, None)
        if entry is None:
            return True  # queued or suspended: retired at next touch
        event, worker = entry
        event.cancel()
        worker.busy = False
        self._busy_count -= 1
        self._retire_cancelled(task)
        self.sim.schedule_at(
            self.sim.now, lambda: self._search(worker)
        )
        return True

    def _retire_cancelled(self, task: Task) -> None:
        # Cancellation is not an HPX-thread transition; the task is retired
        # in place without an activation, so the state is assigned directly.
        task.state = TaskState.TERMINATED
        self._outstanding -= 1
        if self._outstanding == 0:
            self.finish_ns = self.sim.now
            self._cancel_all_wakeups()

    def _cancel_all_wakeups(self) -> None:
        self._sleepers.clear()
        for w in self.workers:
            if w.wake_event is not None:
                w.wake_event.cancel()
                w.wake_event = None

    def halt(self) -> None:
        """Fail-stop this executor: no further dispatch, resume, or spawn.

        Models a locality crash (:class:`repro.faults.plan.CrashAt`) at task
        granularity: phases whose virtual end time has not yet arrived are
        discarded when it does, suspended tasks never resume, and queued and
        newly spawned tasks are dropped.  Outstanding counts are left as-is
        — the tasks really are unfinished; the distributed runtime's
        stuck-locality check knows to skip crashed localities.
        """
        self._halted = True
        self._cancel_all_wakeups()
        self._parked.clear()

    @property
    def halted(self) -> bool:
        return self._halted

    # -- admission control (repro.overload) ----------------------------------------

    def on_task_shed(self, task: Task, exc: BaseException) -> None:
        """Admission control rejected ``task``: it will never run.

        The paired future (if any) fails with the typed error first — a
        ``then`` continuation it triggers may spawn replacement work, so
        the outstanding count is retired only afterwards to avoid a
        transient zero that would end the run early.
        """
        hook = task.failure_hook
        if hook is not None:
            hook(exc)
        self._outstanding -= 1
        if self._outstanding == 0 and self._started:
            self.finish_ns = self.sim.now
            self._cancel_all_wakeups()

    # -- driving -------------------------------------------------------------------

    def start_workers(self) -> None:
        """Schedule every worker's first work-finding attempt at t=0.

        Idempotent: busy workers and workers that already hold a wake event
        are left alone, so it doubles as the dormancy restart used by the
        distributed runtime (see :meth:`_maybe_restart_workers`).
        """
        if self._halted:
            return
        self._started = True
        for w in self.workers:
            if w.wake_event is None and not w.busy:
                w.wake_event = self.sim.schedule(
                    0, (lambda ww: lambda: self._search(ww))(w)
                )

    def run(self) -> int:
        """Drive the simulation until all spawned tasks terminate.

        Returns the virtual completion time in nanoseconds.  Raises
        :class:`DeadlockError` if tasks remain outstanding with no runnable
        work (e.g. a task suspended on a future nothing will satisfy).
        """
        self.start_workers()
        self.sim.run()
        if self._outstanding > 0:
            raise DeadlockError(
                f"{self._outstanding} task(s) outstanding but the event "
                "queue is empty — suspended on futures nobody satisfies?"
            )
        if self.finish_ns is None:
            # No tasks were spawned at all; completion is instantaneous.
            self.finish_ns = self.sim.now
        for layer in self._finish_layers:
            layer.on_finish(self)
        return self.finish_ns

    # -- introspection -----------------------------------------------------------------

    @property
    def outstanding_tasks(self) -> int:
        return self._outstanding

    @property
    def total_spawned(self) -> int:
        return self._total_spawned

    @property
    def tasks_completed(self) -> int:
        """Tasks that ran to termination on this executor.

        On a halted (crashed) executor this freezes at the crash instant:
        a task mid-execution when the machine died is neither completed nor
        rolled back, which is exactly the accounting crash recovery needs
        to balance re-executed work against lost work.
        """
        return sum(w.tasks_executed for w in self.workers)
