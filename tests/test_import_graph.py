"""No import cycle spans two packages of ``repro``.

The graph is built from the source with :mod:`ast`, so it sees every
module whether or not a test happens to import it.  A node is a module;
a package is its ``__init__``.  Only module-level imports count, and not
those under ``if TYPE_CHECKING:``, since neither a function-local import
nor a typing-only one runs when the module loads.  An import adds an edge
to each package ``__init__`` it runs and to each submodule it names.
Edges into the root package ``repro`` are ignored: importing any module
runs it first, so counting them would join every module that it imports
into one cycle.

A cycle inside one package is the package's own business; one that spans
packages makes a fresh ``import`` of some module fail or succeed depending
on which module of the cycle was imported first.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = "repro"
SRC = Path(__file__).resolve().parents[1] / "src"


def module_names() -> dict[str, Path]:
    """Every module under ``src/repro``: dotted name -> source file."""
    names = {}
    for path in sorted((SRC / ROOT).rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        names[".".join(parts)] = path
    return names


def _module_level_imports(body: list[ast.stmt]):
    """Import statements that run when the module loads."""
    for stmt in body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            yield stmt
        elif isinstance(stmt, ast.If):
            test = stmt.test
            if not (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING"):
                yield from _module_level_imports(stmt.body)
            yield from _module_level_imports(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            for block in (stmt.body, stmt.orelse, stmt.finalbody,
                          *(h.body for h in stmt.handlers)):
                yield from _module_level_imports(block)


def _runs(dotted: str, modules: dict[str, Path]) -> list[str]:
    """The modules importing ``dotted`` runs: each package on the way down,
    then the module itself."""
    parts = dotted.split(".")
    chain = (".".join(parts[:i]) for i in range(1, len(parts) + 1))
    return [name for name in chain if name in modules]


def import_graph() -> dict[str, set[str]]:
    """Module -> the ``repro`` modules its module-level imports run."""
    modules = module_names()
    graph: dict[str, set[str]] = {}
    for name, path in modules.items():
        edges: set[str] = set()
        tree = ast.parse(path.read_text(), str(path))
        for stmt in _module_level_imports(tree.body):
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    edges.update(_runs(alias.name, modules))
                continue
            # the library imports absolutely; a relative import would need
            # resolving against the package before it could be counted
            assert not stmt.level, f"{name}: relative import"
            base = stmt.module
            edges.update(_runs(base, modules))
            for alias in stmt.names:
                if f"{base}.{alias.name}" in modules:
                    edges.add(f"{base}.{alias.name}")
        edges.discard(ROOT)
        edges.discard(name)
        graph[name] = edges
    return graph


def strongly_connected(graph: dict[str, set[str]]) -> list[list[str]]:
    """The components of ``graph`` with more than one module, each sorted:
    two modules share one when each reaches the other."""
    reach = {}
    for start in graph:
        seen, todo = {start}, [start]
        while todo:
            for nxt in graph[todo.pop()] - seen:
                seen.add(nxt)
                todo.append(nxt)
        reach[start] = seen
    components = {
        tuple(sorted(m for m in reach[node] if node in reach[m]))
        for node in graph
    }
    return sorted(list(c) for c in components if len(c) > 1)


def package_of(module: str) -> str:
    return module.split(".")[1] if "." in module else module


def cross_package_cycles(graph: dict[str, set[str]]) -> list[list[str]]:
    return [
        component for component in strongly_connected(graph)
        if len({package_of(m) for m in component}) > 1
    ]


def test_no_import_cycle_spans_packages():
    cycles = cross_package_cycles(import_graph())
    assert not cycles, "import cycles across packages:\n" + "\n".join(
        f"  {sorted({package_of(m) for m in c})}: {', '.join(c)}"
        for c in cycles
    )


def test_graph_sees_edges():
    graph = import_graph()
    assert "repro.runtime.task" in graph["repro.schedulers.base"]
    # ``from repro.sim.engine import ...`` runs the package, then the module
    assert {"repro.sim", "repro.sim.engine"} <= graph["repro.runtime.sim_executor"]


def test_detector_finds_a_cycle_across_packages():
    graph = {"repro.a.x": {"repro.b.y"}, "repro.b.y": {"repro.a.x"},
             "repro.a.z": {"repro.a.w"}, "repro.a.w": {"repro.a.z"}}
    assert cross_package_cycles(graph) == [["repro.a.x", "repro.b.y"]]
