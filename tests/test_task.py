"""Unit tests for the Task lifecycle (the five HPX-thread states)."""

import pytest

from repro.runtime.task import Priority, Task, TaskState
from repro.runtime.work import NoWork


class TestConstruction:
    def test_new_task_is_staged(self):
        assert Task(lambda: None).state is TaskState.STAGED

    def test_default_work_is_nowork(self):
        assert isinstance(Task(lambda: None).work, NoWork)

    def test_default_priority_normal(self):
        assert Task(lambda: None).priority is Priority.NORMAL

    def test_unique_ids(self):
        a, b = Task(lambda: None), Task(lambda: None)
        assert a.task_id != b.task_id

    def test_default_name_from_id(self):
        t = Task(lambda: None)
        assert t.name == f"task#{t.task_id}"

    def test_explicit_name(self):
        assert Task(lambda: None, name="U[1][2]").name == "U[1][2]"


class TestLifecycle:
    def test_happy_path(self):
        t = Task(lambda: None)
        t.set_state(TaskState.PENDING)
        t.set_state(TaskState.ACTIVE)
        t.set_state(TaskState.TERMINATED)
        assert t.state is TaskState.TERMINATED

    def test_suspension_cycle(self):
        t = Task(lambda: None)
        t.set_state(TaskState.PENDING)
        t.set_state(TaskState.ACTIVE)
        t.set_state(TaskState.SUSPENDED)
        t.set_state(TaskState.PENDING)
        t.set_state(TaskState.ACTIVE)
        t.set_state(TaskState.TERMINATED)
        assert t.state is TaskState.TERMINATED

    @pytest.mark.parametrize(
        "bad_target",
        [TaskState.ACTIVE, TaskState.SUSPENDED, TaskState.TERMINATED,
         TaskState.STAGED],
    )
    def test_illegal_transitions_from_staged(self, bad_target):
        t = Task(lambda: None)
        with pytest.raises(RuntimeError, match="illegal task transition"):
            t.set_state(bad_target)

    def test_terminated_is_final(self):
        t = Task(lambda: None)
        t.set_state(TaskState.PENDING)
        t.set_state(TaskState.ACTIVE)
        t.set_state(TaskState.TERMINATED)
        for target in TaskState:
            with pytest.raises(RuntimeError):
                t.set_state(target)

    def test_pending_cannot_suspend(self):
        t = Task(lambda: None)
        t.set_state(TaskState.PENDING)
        with pytest.raises(RuntimeError):
            t.set_state(TaskState.SUSPENDED)


class TestAccounting:
    def test_phases_count_activations(self):
        t = Task(lambda: None)
        assert t.phases == 0
        assert t.begin_phase() == 1
        assert t.begin_phase() == 2
        assert t.phases == 2

    def test_priorities_ordered(self):
        assert Priority.LOW < Priority.NORMAL < Priority.HIGH
