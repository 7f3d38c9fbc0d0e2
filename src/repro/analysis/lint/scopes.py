"""Lexical scope model for the workload linter.

The lint rules need three things classic ``ast.walk`` does not give them:

- which names a function *binds* vs which it *captures* from an enclosing
  scope (rule TG103's closure-capture analysis);
- which assigned names are *futures* — bound from ``async_``/``dataflow``/
  ``when_all``/``Future()``/... expressions (rules TG101/TG102/TG105);
- where task bodies are: the callables handed to spawn calls, so rules can
  analyze "code that runs inside a task" differently from driver code.

The model is heuristic by design.  Workload scripts are small and direct
(the seven ``examples/`` and four ``repro.apps`` are the calibration set);
the rules prefer missing an exotic construction to flagging idiomatic code.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

#: calls that return a Future (API of repro.runtime / ThreadRuntime / Runtime)
FUTURE_PRODUCERS = frozenset(
    {"async_", "dataflow", "then", "when_all", "when_any", "make_ready_future"}
)
#: calls that *consume* futures as dependencies rather than fulfilling them
FUTURE_CONSUMERS = frozenset(
    {"when_all", "when_any", "dataflow", "then", "wait", "graph_from_futures"}
)
#: method calls that mutate their receiver in place (rule TG103)
MUTATING_METHODS = frozenset(
    {
        "append", "extend", "insert", "add", "update", "remove", "discard",
        "pop", "popitem", "clear", "setdefault", "sort", "reverse",
        "appendleft", "popleft", "__setitem__",
    }
)


def call_name(call: ast.Call) -> str | None:
    """The bare name of a call: ``rt.async_(...)`` and ``async_(...)`` are
    both ``"async_"``; anything else (subscripts, nested calls) is None."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def is_future_expr(expr: ast.expr) -> bool:
    """Does this expression evaluate to a Future (or a collection of them)?"""
    if isinstance(expr, ast.Call):
        name = call_name(expr)
        return name in FUTURE_PRODUCERS or name == "Future"
    if isinstance(expr, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
        return is_future_expr(expr.elt)
    if isinstance(expr, (ast.List, ast.Tuple)):
        return bool(expr.elts) and all(is_future_expr(e) for e in expr.elts)
    return False


@dataclass
class Scope:
    """One lexical scope: the module, a def, or a lambda."""

    node: ast.AST
    parent: "Scope | None" = None
    children: list["Scope"] = field(default_factory=list)
    #: names bound here (params, assignment targets, defs, imports, for/with)
    bound: set[str] = field(default_factory=set)
    #: names loaded lexically in *this* scope (not nested defs)
    loads: set[str] = field(default_factory=set)
    #: name -> node of the first assignment whose RHS produces future(s)
    future_assigns: dict[str, ast.AST] = field(default_factory=dict)
    #: name -> ``Future(...)`` constructor call it was bound from
    manual_futures: dict[str, ast.Call] = field(default_factory=dict)
    #: function definitions by name (for resolving task bodies)
    functions: dict[str, "Scope"] = field(default_factory=dict)
    #: names declared ``nonlocal``/``global`` here (writes target outer scope)
    outer_decls: set[str] = field(default_factory=set)
    #: true if this scope contains a yield (generator task body)
    is_generator: bool = False

    def all_loads(self) -> set[str]:
        """Loads in this scope and every nested scope (closures count)."""
        names = set(self.loads)
        for child in self.children:
            names |= child.all_loads()
        return names

    def future_names(self) -> set[str]:
        """Future-bound names visible here (own plus enclosing scopes)."""
        names: set[str] = set()
        scope: Scope | None = self
        while scope is not None:
            names |= scope.future_assigns.keys()
            names |= scope.manual_futures.keys()
            scope = scope.parent
        return names

    def binds(self, name: str) -> bool:
        return name in self.bound

    def binding_scope(self, name: str) -> "Scope | None":
        """The nearest scope (self included) that binds ``name``."""
        scope: Scope | None = self
        while scope is not None:
            if name in scope.bound:
                return scope
            scope = scope.parent
        return None

    def walk(self) -> Iterator["Scope"]:
        yield self
        for child in self.children:
            yield from child.walk()


def _bind_target(scope: Scope, target: ast.expr) -> None:
    """Record names bound by an assignment/for/with target."""
    if isinstance(target, ast.Name):
        scope.bound.add(target.id)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            _bind_target(scope, elt)
    elif isinstance(target, ast.Starred):
        _bind_target(scope, target.value)
    # Subscript/Attribute targets mutate existing objects; they bind nothing.


def _bind_args(scope: Scope, args: ast.arguments) -> None:
    for a in (
        list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    ):
        scope.bound.add(a.arg)
    if args.vararg:
        scope.bound.add(args.vararg.arg)
    if args.kwarg:
        scope.bound.add(args.kwarg.arg)


def _record_assign(scope: Scope, name: str, value: ast.expr, node: ast.AST) -> None:
    if is_future_expr(value):
        scope.future_assigns.setdefault(name, node)
        if (
            isinstance(value, ast.Call)
            and call_name(value) == "Future"
        ):
            scope.manual_futures.setdefault(name, value)


def build_scopes(tree: ast.Module) -> Scope:
    """Build the scope tree of a parsed module."""
    root = Scope(node=tree)
    _populate(tree.body, root)
    return root


def _populate(stmts: list[ast.stmt], scope: Scope) -> None:
    for stmt in stmts:
        _visit(stmt, scope)


def _new_function_scope(
    node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda, scope: Scope
) -> Scope:
    child = Scope(node=node, parent=scope)
    scope.children.append(child)
    _bind_args(child, node.args)
    # Default values evaluate in the *enclosing* scope.
    for default in list(node.args.defaults) + [
        d for d in node.args.kw_defaults if d is not None
    ]:
        _visit(default, scope)
    if isinstance(node, ast.Lambda):
        _visit(node.body, child)
    else:
        scope.bound.add(node.name)
        scope.functions[node.name] = child
        for deco in node.decorator_list:
            _visit(deco, scope)
        _populate(node.body, child)
    return child


def _visit(node: ast.AST, scope: Scope) -> None:
    """Walk one node, creating nested scopes at function boundaries."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        _new_function_scope(node, scope)
        return
    if isinstance(node, ast.ClassDef):
        # Class bodies are rare in workload scripts; treat the body as part
        # of the enclosing scope for load-tracking purposes.
        scope.bound.add(node.name)
        _populate(node.body, scope)
        return
    if isinstance(node, (ast.Global, ast.Nonlocal)):
        scope.outer_decls.update(node.names)
        scope.bound.update(node.names)
        return
    if isinstance(node, ast.Assign):
        _visit(node.value, scope)
        for target in node.targets:
            _bind_target(scope, target)
            if isinstance(target, ast.Name):
                _record_assign(scope, target.id, node.value, node)
            _visit_target_loads(target, scope)
        return
    if isinstance(node, ast.AnnAssign):
        if node.value is not None:
            _visit(node.value, scope)
            if isinstance(node.target, ast.Name):
                _record_assign(scope, node.target.id, node.value, node)
        _bind_target(scope, node.target)
        _visit_target_loads(node.target, scope)
        return
    if isinstance(node, ast.AugAssign):
        _visit(node.value, scope)
        _visit_target_loads(node.target, scope)
        if isinstance(node.target, ast.Name):
            scope.loads.add(node.target.id)
        return
    if isinstance(node, (ast.For, ast.AsyncFor)):
        _visit(node.iter, scope)
        _bind_target(scope, node.target)
        _populate(node.body, scope)
        _populate(node.orelse, scope)
        return
    if isinstance(node, (ast.With, ast.AsyncWith)):
        for item in node.items:
            _visit(item.context_expr, scope)
            if item.optional_vars is not None:
                _bind_target(scope, item.optional_vars)
        _populate(node.body, scope)
        return
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        for alias in node.names:
            scope.bound.add((alias.asname or alias.name).split(".")[0])
        return
    if isinstance(node, (ast.Yield, ast.YieldFrom)):
        scope.is_generator = True
        for child in ast.iter_child_nodes(node):
            _visit(child, scope)
        return
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        # Comprehension scopes are folded into the enclosing scope: their
        # targets bind and their body loads count as enclosing loads, which
        # is what the rules need (a future consumed in a comprehension IS
        # consumed).
        for gen in node.generators:
            _visit(gen.iter, scope)
            _bind_target(scope, gen.target)
            for cond in gen.ifs:
                _visit(cond, scope)
        if isinstance(node, ast.DictComp):
            _visit(node.key, scope)
            _visit(node.value, scope)
        else:
            _visit(node.elt, scope)
        return
    if isinstance(node, ast.Name):
        if isinstance(node.ctx, ast.Load):
            scope.loads.add(node.id)
        return
    for child in ast.iter_child_nodes(node):
        _visit(child, scope)


def _visit_target_loads(target: ast.expr, scope: Scope) -> None:
    """Subscript/attribute stores *load* their base (``x[i] = v`` reads x)."""
    if isinstance(target, ast.Subscript):
        _visit(target.value, scope)
        _visit(target.slice, scope)
    elif isinstance(target, ast.Attribute):
        _visit(target.value, scope)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            _visit_target_loads(elt, scope)


# -- spawn-site discovery ----------------------------------------------------------


@dataclass(frozen=True)
class SpawnSite:
    """One call that creates a task: ``async_``/``dataflow``/``then``."""

    call: ast.Call
    kind: str
    #: the task-body expression (Lambda, Name, or arbitrary expr), if found
    body: ast.expr | None
    #: the dependency-list expression (dataflow/then only)
    deps: ast.expr | None
    #: enclosing loop depth at the call site (comprehension fors count)
    loop_depth: int


def find_spawn_sites(tree: ast.Module) -> list[SpawnSite]:
    """All spawn calls in the module, annotated with loop depth.

    Loop depth resets at function boundaries: a helper that spawns once is
    judged at its own call sites' granularity, not the helper's.
    """
    sites: list[SpawnSite] = []

    def walk(node: ast.AST, depth: int) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for stmt in node.body:
                walk(stmt, 0)
            return
        if isinstance(node, ast.Lambda):
            walk(node.body, depth)
            return
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            for child in ast.iter_child_nodes(node):
                walk(child, depth + 1)
            return
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            inner = depth + len(node.generators)
            for child in ast.iter_child_nodes(node):
                walk(child, inner)
            return
        if isinstance(node, ast.Call):
            site = _classify_spawn(node, depth)
            if site is not None:
                sites.append(site)
        for child in ast.iter_child_nodes(node):
            walk(child, depth)

    for stmt in tree.body:
        walk(stmt, 0)
    return sites


def _classify_spawn(call: ast.Call, depth: int) -> SpawnSite | None:
    name = call_name(call)
    if name == "async_":
        body = call.args[0] if call.args else None
        return SpawnSite(call, "async_", body, None, depth)
    if name == "dataflow":
        if isinstance(call.func, ast.Attribute):
            body = call.args[0] if len(call.args) > 0 else None
            deps = call.args[1] if len(call.args) > 1 else None
        else:  # module-level dataflow(spawner, fn, deps)
            body = call.args[1] if len(call.args) > 1 else None
            deps = call.args[2] if len(call.args) > 2 else None
        return SpawnSite(call, "dataflow", body, deps, depth)
    if name == "then" and not isinstance(call.func, ast.Attribute):
        body = call.args[2] if len(call.args) > 2 else None
        deps = call.args[1] if len(call.args) > 1 else None
        return SpawnSite(call, "then", body, deps, depth)
    return None
