"""The collector pause (:mod:`repro.collector`).

:func:`repro.collector.paused` turns automatic collection off for a block
and, on exit, turns it back on and collects the young generation once.
These tests pin that contract: the caller's state comes back whether the
body returns or raises, only the outermost of nested pauses resumes, a
collector the caller turned off stays off, and a run that raises through
:meth:`repro.sim.engine.Simulator.run` or ``run_until`` leaves the
collector on.  Collections are counted with ``gc.callbacks``.

The pause is exact, that is no result depends on when a collection runs,
only while nothing under ``src/repro`` can observe a collection:
:class:`TestNothingObservesACollection` fails on any ``__del__``, any
``weakref`` import and any ``gc`` import outside ``repro/collector.py``.
"""

from __future__ import annotations

import ast
import gc
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import pytest

from repro.apps.stencil1d import StencilConfig, build_stencil_graph
from repro.collector import paused
from repro.dist import DistRuntime, WatchdogTimeout
from repro.runtime.future import Future
from repro.runtime.runtime import Runtime, RuntimeConfig
from repro.runtime.sim_executor import DeadlockError
from repro.runtime.task import Task
from repro.runtime.work import FixedWork

SRC = Path(__file__).resolve().parents[1] / "src"
#: the one module allowed to import ``gc``
COLLECTOR = Path("repro/collector.py")


@contextmanager
def collector(on: bool) -> Iterator[None]:
    """Turn the collector on or off for the block, then restore the
    caller's state, even if the block left it switched."""
    was_on = gc.isenabled()
    (gc.enable if on else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was_on else gc.disable)()


@pytest.fixture
def collector_on():
    with collector(True):
        yield


@pytest.fixture
def collector_off():
    with collector(False):
        yield


@contextmanager
def collections() -> Iterator[list[int]]:
    """The generation of each collection that starts inside the block."""
    seen: list[int] = []

    def count(phase: str, info: dict) -> None:
        if phase == "start":
            seen.append(info["generation"])

    gc.callbacks.append(count)
    try:
        yield seen
    finally:
        gc.callbacks.remove(count)


@pytest.mark.usefixtures("collector_on")
class TestPaused:
    def test_off_inside_then_on_with_one_young_collection(self):
        with collections() as seen:
            with paused():
                assert not gc.isenabled()
                opened = len(seen)
                junk = [[i] for i in range(10_000)]
                assert len(seen) == opened
            assert gc.isenabled()
        del junk
        assert seen[opened:] == [0]

    def test_caller_state_comes_back_when_the_body_raises(self):
        with collections() as seen:
            with pytest.raises(ZeroDivisionError):
                with paused():
                    opened = len(seen)
                    1 / 0
            assert gc.isenabled()
        assert seen[opened:] == [0]

    def test_only_the_outermost_exit_resumes_and_collects(self):
        with collections() as seen:
            with paused():
                opened = len(seen)
                with paused():
                    with paused():
                        pass
                    assert not gc.isenabled()
                assert not gc.isenabled()
                assert seen[opened:] == []
            assert gc.isenabled()
        assert seen[opened:] == [0]

    def test_as_a_decorator_each_call_pauses_and_recursion_nests(self):
        states = []

        @paused()
        def descend(depth: int) -> int:
            states.append(gc.isenabled())
            return depth if depth == 0 else descend(depth - 1)

        with collections() as seen:
            for _ in range(2):
                before = len(seen)
                assert descend(3) == 0
                assert gc.isenabled()
                assert seen[before:] == [0]
        assert states == [False] * 8
        assert descend.__name__ == "descend"


@pytest.mark.usefixtures("collector_off")
class TestCallerTurnedItOff:
    def test_stays_off_and_nothing_is_collected(self):
        with collections() as seen:
            with paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
            with pytest.raises(ZeroDivisionError):
                with paused():
                    1 / 0
            assert not gc.isenabled()
        assert seen == []


@pytest.mark.usefixtures("collector_on")
class TestRunsThatRaise:
    """The run loop's pause ends when a run raises out of it."""

    def _stuck(self, states: list[bool]):
        never = Future("never")

        def stuck():
            states.append(gc.isenabled())
            yield never

        return Task(stuck, work=FixedWork(100))

    def test_deadlocked_runtime_leaves_the_collector_on(self):
        states: list[bool] = []
        rt = Runtime(RuntimeConfig(platform="haswell", num_cores=2, seed=0))
        rt.spawn(self._stuck(states))
        with pytest.raises(DeadlockError):
            rt.run()
        assert states == [False]
        assert gc.isenabled()

    def test_watchdog_timeout_leaves_the_collector_on(self):
        states: list[bool] = []
        dist = DistRuntime(
            num_localities=2, cores_per_locality=1, seed=0,
            watchdog_ns=1_000_000,
        )
        dist.locality(1).runtime.spawn(self._stuck(states))
        with pytest.raises(WatchdogTimeout):
            dist.run()
        assert states == [False]
        assert gc.isenabled()


@pytest.mark.usefixtures("collector_on")
def test_fine_grain_stencil_build_runs_one_young_collection():
    """stencil-fine's largest cell: 2^21 points in partitions of 256 over
    5 steps on 28 Haswell cores.  Its 40,960 tasks are built under one
    pause, so the build runs exactly the exit's young collection (the
    unpaused build ran thousands, full ones included)."""
    runtime = Runtime(RuntimeConfig(platform="haswell", num_cores=28, seed=44))
    config = StencilConfig(
        total_points=1 << 21, partition_points=256, time_steps=5
    )
    assert config.total_tasks == 40_960
    # reset the allocation counts so no collection is due before the build
    gc.collect()
    with collections() as seen:
        finals = build_stencil_graph(runtime, config)
    assert seen == [0]
    assert len(finals) == config.num_partitions


# -- the exactness guard ------------------------------------------------------


def _imported(node: ast.AST) -> list[str]:
    """The modules an import statement or an ``__import__``/
    ``import_module`` call with a literal name loads."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [node.module] if node.module and not node.level else []
    if isinstance(node, ast.Call) and node.args:
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        arg = node.args[0]
        if name in ("__import__", "import_module") and isinstance(
            arg, ast.Constant
        ) and isinstance(arg.value, str):
            return [arg.value]
    return []


def collection_observers(source: str, path: Path) -> list[str]:
    """Everything in one module that could see when a collection runs: a
    ``__del__``, a ``weakref`` import, or a ``gc`` import outside
    ``repro/collector.py`` (``path`` is relative to ``src``)."""
    found = []
    for node in ast.walk(ast.parse(source, str(path))):
        line = getattr(node, "lineno", 0)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == "__del__":
                found.append((line, "defines __del__"))
        elif isinstance(node, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id == "__del__"
                   for t in node.targets):
                found.append((line, "assigns __del__"))
        for module in _imported(node):
            top = module.split(".")[0]
            if top in ("weakref", "_weakref", "_weakrefset"):
                found.append((line, f"imports {module}"))
            elif top == "gc" and path != COLLECTOR:
                found.append((line, "imports gc"))
    return [f"{path}:{line}: {what}" for line, what in sorted(found)]


class TestNothingObservesACollection:
    """The pause is exact only while this holds: a ``__del__`` or a weak
    reference's callback runs when a collection frees its object, and a
    ``gc`` call can see what is still alive, so any of them would let a
    result depend on when the pause lets collections run."""

    def test_src_has_no_del_no_weakref_and_one_gc_import(self):
        found = []
        for path in sorted((SRC / "repro").rglob("*.py")):
            rel = path.relative_to(SRC)
            found += collection_observers(path.read_text(), rel)
        assert not found, "\n".join(found)

    def test_the_scan_sees_each_observer(self):
        source = (
            "import gc\n"
            "import weakref as w\n"
            "from weakref import ref\n"
            "from gc import collect\n"
            "import importlib\n"
            "g = importlib.import_module('gc')\n"
            "class A:\n"
            "    def __del__(self):\n"
            "        pass\n"
            "class B:\n"
            "    __del__ = print\n"
            "def f():\n"
            "    return __import__('_weakref')\n"
        )
        found = collection_observers(source, Path("repro/m.py"))
        assert [line.split(": ", 1)[1] for line in found] == [
            "imports gc",
            "imports weakref",
            "imports weakref",
            "imports gc",
            "imports gc",
            "defines __del__",
            "assigns __del__",
            "imports _weakref",
        ]
        # the collector module itself may import gc, and nothing else may
        assert collection_observers("import gc\n", COLLECTOR) == []
