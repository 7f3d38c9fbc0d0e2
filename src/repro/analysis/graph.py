"""Task-graph analysis: cycles, orphans, and parallelism bounds.

The paper's programming model builds a dependency graph out of futures
("the Future objects represent the terminal nodes and their combination
represents the edges", Sec. I-C).  This module answers three questions about
such a graph before (or after) it runs:

- **Can it run at all?**  A dependency cycle means the runtime can never
  order the tasks: :meth:`TaskGraph.find_cycles` (Tarjan SCC).
- **Does all of it matter?**  Nodes from which no requested output is
  reachable are orphan work: :meth:`TaskGraph.orphans`.
- **How parallel can it get?**  Width per level, depth, and the critical
  path bound achievable speedup regardless of grain size
  (:meth:`TaskGraph.stats`, :meth:`TaskGraph.critical_path`).

Graphs are built from live :class:`~repro.runtime.future.Future` objects
(via their recorded ``dependencies``) with :func:`graph_from_futures`, or
from a traced run's spawn records with :func:`graph_from_trace`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, TYPE_CHECKING

from repro.analysis.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.future import Future
    from repro.sim.trace import ExecutionTrace


@dataclass(frozen=True)
class GraphStats:
    """Shape statistics bounding achievable parallelism."""

    num_nodes: int
    num_edges: int
    #: number of dependency levels (longest chain, in nodes)
    depth: int
    #: widest level — an upper bound on exploitable concurrency
    max_width: int
    #: nodes / depth — average parallelism if levels ran lockstep
    avg_width: float
    #: total weight along the heaviest dependency chain
    critical_path_weight: float
    #: node ids of that chain, source to sink
    critical_path: tuple[int, ...]


class CycleError(ValueError):
    """Raised by DAG-only queries when the graph has a cycle."""


class TaskGraph:
    """A directed dependency graph over integer node ids.

    Edge ``(u, v)`` means *u must complete before v* (v depends on u).
    """

    def __init__(self) -> None:
        self._names: dict[int, str] = {}
        self._succ: dict[int, set[int]] = {}
        self._pred: dict[int, set[int]] = {}

    # -- construction ---------------------------------------------------------

    def add_node(self, node_id: int, name: str = "") -> None:
        if node_id not in self._names:
            self._names[node_id] = name or f"node#{node_id}"
            self._succ[node_id] = set()
            self._pred[node_id] = set()
        elif name:
            self._names[node_id] = name

    def add_edge(self, before: int, after: int) -> None:
        """Record that ``before`` must complete before ``after``."""
        self.add_node(before)
        self.add_node(after)
        self._succ[before].add(after)
        self._pred[after].add(before)

    # -- basics ---------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self._names)

    @property
    def num_edges(self) -> int:
        return sum(len(s) for s in self._succ.values())

    def name_of(self, node_id: int) -> str:
        return self._names.get(node_id, f"node#{node_id}")

    def nodes(self) -> list[int]:
        return sorted(self._names)

    def predecessors(self, node_id: int) -> set[int]:
        return set(self._pred.get(node_id, ()))

    # -- cycles (Tarjan strongly connected components) ------------------------

    def find_cycles(self) -> list[list[int]]:
        """Every strongly connected component with a cycle, as node lists.

        Iterative Tarjan (workload graphs can be deep chains; recursion
        would overflow).  Single nodes count only when self-looped.
        """
        index: dict[int, int] = {}
        low: dict[int, int] = {}
        on_stack: set[int] = set()
        stack: list[int] = []
        counter = [0]
        cycles: list[list[int]] = []

        for root in self.nodes():
            if root in index:
                continue
            work: list[tuple[int, Iterable[int]]] = [(root, iter(self._succ[root]))]
            index[root] = low[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                v, it = work[-1]
                advanced = False
                for w in it:
                    if w not in index:
                        index[w] = low[w] = counter[0]
                        counter[0] += 1
                        stack.append(w)
                        on_stack.add(w)
                        work.append((w, iter(self._succ[w])))
                        advanced = True
                        break
                    if w in on_stack:
                        low[v] = min(low[v], index[w])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    component: list[int] = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        component.append(w)
                        if w == v:
                            break
                    if len(component) > 1 or v in self._succ[v]:
                        cycles.append(sorted(component))
        return cycles

    # -- orphans --------------------------------------------------------------

    def orphans(self, outputs: Iterable[int] | None = None) -> list[int]:
        """Nodes whose completion no requested output can observe.

        With ``outputs``: nodes from which no output is reachable along
        dependency edges.  Without: isolated nodes (no edges at all) — the
        weakest claim that is always safe.
        """
        if outputs is None:
            return [
                n
                for n in self.nodes()
                if not self._succ[n] and not self._pred[n] and self.num_nodes > 1
            ]
        useful: set[int] = set()
        frontier = [o for o in outputs if o in self._names]
        useful.update(frontier)
        while frontier:
            node = frontier.pop()
            for dep in self._pred[node]:
                if dep not in useful:
                    useful.add(dep)
                    frontier.append(dep)
        return [n for n in self.nodes() if n not in useful]

    # -- DAG shape ------------------------------------------------------------

    def _toposort(self) -> list[int]:
        in_deg = {n: len(self._pred[n]) for n in self._names}
        ready = sorted(n for n, d in in_deg.items() if d == 0)
        order: list[int] = []
        while ready:
            n = ready.pop()
            order.append(n)
            for m in self._succ[n]:
                in_deg[m] -= 1
                if in_deg[m] == 0:
                    ready.append(m)
        if len(order) != self.num_nodes:
            raise CycleError("graph has a dependency cycle; run find_cycles()")
        return order

    def levels(self) -> dict[int, int]:
        """Node -> dependency level (longest chain of predecessors)."""
        level: dict[int, int] = {}
        for n in self._toposort():
            preds = self._pred[n]
            level[n] = 1 + max((level[p] for p in preds), default=-1)
        return level

    def critical_path(
        self, weights: dict[int, float] | None = None
    ) -> tuple[float, list[int]]:
        """Heaviest dependency chain; default node weight is 1.

        Returns ``(total_weight, [node ids source→sink])``.  With per-task
        durations as weights this is the run's lower time bound on any
        number of cores (the paper's starvation limit).
        """
        w = weights or {}
        best: dict[int, float] = {}
        prev: dict[int, int | None] = {}
        for n in self._toposort():
            node_w = float(w.get(n, 1.0))
            pred_best = None
            for p in self._pred[n]:
                if pred_best is None or best[p] > best[pred_best]:
                    pred_best = p
            best[n] = node_w + (best[pred_best] if pred_best is not None else 0.0)
            prev[n] = pred_best
        if not best:
            return 0.0, []
        end = max(best, key=lambda n: best[n])
        path: list[int] = []
        cursor: int | None = end
        while cursor is not None:
            path.append(cursor)
            cursor = prev[cursor]
        path.reverse()
        return best[end], path

    def stats(self, weights: dict[int, float] | None = None) -> GraphStats:
        """Shape statistics; raises :class:`CycleError` on cyclic graphs."""
        if self.num_nodes == 0:
            return GraphStats(0, 0, 0, 0, 0.0, 0.0, ())
        levels = self.levels()
        width: dict[int, int] = {}
        for lvl in levels.values():
            width[lvl] = width.get(lvl, 0) + 1
        depth = max(levels.values()) + 1
        cp_weight, cp_path = self.critical_path(weights)
        return GraphStats(
            num_nodes=self.num_nodes,
            num_edges=self.num_edges,
            depth=depth,
            max_width=max(width.values()),
            avg_width=self.num_nodes / depth,
            critical_path_weight=cp_weight,
            critical_path=tuple(cp_path),
        )

    # -- findings -------------------------------------------------------------

    def findings(self, outputs: Iterable[int] | None = None) -> list[Finding]:
        """GA201 per cycle, GA202 per orphan node."""
        out: list[Finding] = []
        for cycle in self.find_cycles():
            members = ", ".join(self.name_of(n) for n in cycle)
            out.append(
                Finding(
                    "GA201",
                    f"dependency cycle among {len(cycle)} node(s): {members} "
                    "— nothing in the cycle can ever become ready",
                )
            )
        for node in self.orphans(outputs):
            out.append(
                Finding(
                    "GA202",
                    f"{self.name_of(node)} contributes to no requested "
                    "output (orphan work)",
                )
            )
        return out


# -- builders ----------------------------------------------------------------------


def graph_from_futures(futures: Iterable["Future"]) -> TaskGraph:
    """Transitive dependency graph of live futures.

    Walks each future's recorded ``dependencies`` (populated by
    ``when_all``/``when_any``/``dataflow``/``then``).  Cycle-safe: injected
    or hand-built cyclic dependencies are represented, not followed forever.
    """
    graph = TaskGraph()
    seen: set[int] = set()
    frontier = list(futures)
    while frontier:
        f = frontier.pop()
        if f.future_id in seen:
            continue
        seen.add(f.future_id)
        graph.add_node(f.future_id, f.name)
        for dep in f.dependencies:
            graph.add_edge(dep.future_id, f.future_id)
            if dep.future_id not in seen:
                frontier.append(dep)
    return graph


def graph_from_trace(trace: "ExecutionTrace") -> TaskGraph:
    """Spawn-parentage graph of a traced simulated run.

    Nodes are tasks (by task id, named); edges follow
    :class:`~repro.sim.trace.SpawnRecord` parentage — the tree of who
    created whom, the trace-level analogue of the dependency graph.
    """
    graph = TaskGraph()
    for record in trace.spawns:
        graph.add_node(record.child_task_id, record.child_name)
        if record.parent_task_id is not None:
            graph.add_edge(record.parent_task_id, record.child_task_id)
    for phase in trace.phases:
        graph.add_node(phase.task_id, phase.task_name)
    return graph


def trace_task_weights(trace: "ExecutionTrace") -> dict[int, float]:
    """Per-task execution nanoseconds, for weighted critical paths."""
    weights: dict[int, float] = {}
    for phase in trace.phases:
        weights[phase.task_id] = weights.get(phase.task_id, 0.0) + (
            phase.duration_ns
        )
    return weights
