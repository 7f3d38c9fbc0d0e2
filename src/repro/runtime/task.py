"""The task object — a simulated HPX-thread.

From the paper (Sec. I-B): "The five HPX-thread states are staged, pending,
active, suspended, and terminated.  An HPX-thread is first created by the
thread scheduler as a thread description, and placed in a staged queue. [...]
The thread scheduler will eventually remove the staged HPX-thread, transform
it into an object with a context, and place it in a pending queue where it is
ready to run.  Once an HPX-thread is running, it is in the active state, and
can suspend itself for synchronization or communication."

:class:`Task` implements that lifecycle plus the per-task accounting the
paper's counters are built from: cumulative execution time (t_exec),
cumulative management overhead, and the phase count (each activation — first
run or resume after suspension — is one *thread phase*).

A task body is either a plain callable (single phase) or a generator that
yields :class:`repro.runtime.future.Future` instances to suspend on; each
resumption is a new phase, mirroring HPX's cooperative yield.
"""

from __future__ import annotations

import enum
from typing import Any, Callable

from repro.runtime.work import NoWork, WorkDescriptor


class TaskState(enum.Enum):
    """The five HPX-thread states (paper Sec. I-B)."""

    STAGED = "staged"
    PENDING = "pending"
    ACTIVE = "active"
    SUSPENDED = "suspended"
    TERMINATED = "terminated"


class Priority(enum.IntEnum):
    """Scheduling priority; the Priority Local scheduler keeps separate
    queues for HIGH and a single shared queue for LOW (paper Sec. I-B)."""

    LOW = 0
    NORMAL = 1
    HIGH = 2


#: Transitions allowed by the lifecycle; enforced in :meth:`Task.set_state`.
_ALLOWED_TRANSITIONS: dict[TaskState, frozenset[TaskState]] = {
    TaskState.STAGED: frozenset({TaskState.PENDING}),
    TaskState.PENDING: frozenset({TaskState.ACTIVE}),
    TaskState.ACTIVE: frozenset({TaskState.SUSPENDED, TaskState.TERMINATED}),
    TaskState.SUSPENDED: frozenset({TaskState.PENDING}),
    TaskState.TERMINATED: frozenset(),
}

class _TaskIdSource:
    """1-based task-id counter whose position can be read without consuming.

    ``next(...)`` hands out ids exactly like ``itertools.count(1)`` did;
    :func:`tasks_created` peeks at how many tasks have been constructed so
    far process-wide, which is what ``BENCH_<rev>.json`` records per
    experiment (a cheap proxy for workload size alongside wall time).
    """

    __slots__ = ("_next",)

    def __init__(self) -> None:
        self._next = 1

    def __iter__(self) -> "_TaskIdSource":
        return self

    def __next__(self) -> int:
        value = self._next
        self._next = value + 1
        return value

    def created(self) -> int:
        return self._next - 1


_task_ids = _TaskIdSource()


def tasks_created() -> int:
    """Total :class:`Task` objects constructed so far in this process."""
    return _task_ids.created()


class Task:
    """A lightweight user-level thread.

    Like HPX-threads, tasks are first-class: each has a unique id (the
    single-locality analogue of a global name), a state, a priority, and its
    own time accounting.
    """

    __slots__ = (
        "task_id",
        "name",
        "fn",
        "work",
        "priority",
        "qos",
        "state",
        "phases",
        "exec_ns",
        "overhead_ns",
        "created_ns",
        "terminated_ns",
        "home_worker",
        "_generator",
        "result",
        "failure_hook",
        "cancelled",
    )

    def __init__(
        self,
        fn: Callable[[], Any] | None,
        *,
        work: WorkDescriptor | None = None,
        name: str = "",
        priority: Priority = Priority.NORMAL,
        qos: Any | None = None,
    ) -> None:
        self.task_id: int = next(_task_ids)
        self.name = name or f"task#{self.task_id}"
        self.fn = fn
        self.work: WorkDescriptor = work if work is not None else NoWork()
        self.priority = priority
        #: optional :class:`repro.qos.QosClass`; None for single-class
        #: workloads.  Schedulers and admission control that are not
        #: QoS-aware ignore it entirely.
        self.qos = qos
        self.state = TaskState.STAGED
        #: activations so far (first run + resumes); the phase counters
        self.phases: int = 0
        #: cumulative virtual execution time (contributes to sum t_exec)
        self.exec_ns: int = 0
        #: cumulative management time charged to this task
        self.overhead_ns: int = 0
        self.created_ns: int = 0
        self.terminated_ns: int = 0
        #: worker whose staged queue the task was placed in
        self.home_worker: int = -1
        self._generator = None
        self.result: Any = None
        #: called with an exception if the task is discarded before it can
        #: run (admission-control shedding); normally the paired future's
        #: ``set_exception``, so consumers observe a typed failure
        self.failure_hook: Callable[[BaseException], None] | None = None
        #: set by ``SimExecutor.cancel_task`` (speculative first-wins lost):
        #: the body never runs (again); the task retires without counting
        #: as a completed HPX-thread
        self.cancelled: bool = False

    # -- lifecycle -----------------------------------------------------------

    def set_state(self, new_state: TaskState) -> None:
        """Transition the lifecycle, enforcing the HPX state machine."""
        if new_state not in _ALLOWED_TRANSITIONS[self.state]:
            raise RuntimeError(
                f"illegal task transition {self.state.value} -> {new_state.value} "
                f"for {self.name}"
            )
        self.state = new_state

    def begin_phase(self) -> int:
        """Record an activation; returns the (1-based) phase number."""
        self.phases += 1
        return self.phases

    @property
    def is_terminated(self) -> bool:
        return self.state is TaskState.TERMINATED

    @property
    def func_ns(self) -> int:
        """Per-task t_func: execution plus management time."""
        return self.exec_ns + self.overhead_ns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Task #{self.task_id} {self.name!r} state={self.state.value} "
            f"prio={self.priority.name} phases={self.phases}>"
        )
