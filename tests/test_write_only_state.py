"""No attribute is stored and never read.

A value that the program stores but nothing loads costs a store on every
pass through its code and tells the reader something that is not true:
that some result depends on it.  :func:`write_only_attributes` scans
every module under ``src/``, ``examples/`` and ``benchmarks/`` and lists
each attribute name that is stored (``x.a = ...``) or augmented
(``x.a += ...``) somewhere but loaded nowhere.

The scan matches by name, not by type, so what it finds is a floor: a
name it reports is read by no code at all, but a name that some other
object loads, or that some string constant spells, escapes it.  The
engine's event handle once kept a ``time`` nothing read, and the scan
could not see it, because string constants elsewhere read ``"time"``.

Besides an attribute load, a string constant that equals the name counts
as a read, outside a ``__slots__`` declaration, because the counter
tables, ``getattr`` and ``dataclasses`` reach attributes by their names.
An attribute that an exception class's ``__init__`` stores is skipped,
as payload for whoever handles the exception.
"""

from __future__ import annotations

import ast
import builtins
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "examples", "benchmarks")


def _base_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _exception_classes(trees: list[ast.Module]) -> set[str]:
    """Builtin exception names plus every class that derives from one,
    by base-class name, to a fixed point."""
    found = {
        name for name, obj in vars(builtins).items()
        if isinstance(obj, type) and issubclass(obj, BaseException)
    }
    bases = [
        (node.name, [_base_name(b) for b in node.bases])
        for tree in trees for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    ]
    grew = True
    while grew:
        grew = False
        for name, names in bases:
            if name not in found and any(b in found for b in names):
                found.add(name)
                grew = True
    return found


def _nodes_under(roots: list[ast.AST]) -> set[int]:
    return {id(node) for root in roots for node in ast.walk(root)}


def write_only_attributes(sources: dict[str, str]) -> dict[str, list[str]]:
    """Each attribute stored but never read in ``sources`` (a map from a
    path to its text), with the ``path:line`` of every store."""
    trees = {path: ast.parse(text, path) for path, text in sources.items()}
    exceptions = _exception_classes(list(trees.values()))
    stored: dict[str, list[str]] = {}
    read: set[str] = set()
    for path, tree in trees.items():
        slots = _nodes_under([
            node.value for node in ast.walk(tree)
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            and node.value is not None
            and any(
                isinstance(t, ast.Name) and t.id == "__slots__"
                for t in (node.targets if isinstance(node, ast.Assign)
                          else [node.target])
            )
        ])
        payload = _nodes_under([
            member for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name in exceptions
            for member in node.body
            if isinstance(member, ast.FunctionDef)
            and member.name == "__init__"
        ])
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                if not isinstance(node.ctx, ast.Store):
                    read.add(node.attr)
                elif id(node) not in payload:
                    stored.setdefault(node.attr, []).append(
                        f"{path}:{node.lineno}"
                    )
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in slots
            ):
                read.add(node.value)
    return {
        name: sites for name, sites in sorted(stored.items())
        if name not in read
    }


def test_nothing_is_stored_that_nothing_reads():
    sources = {
        str(path.relative_to(ROOT)): path.read_text()
        for top in SCANNED
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    found = write_only_attributes(sources)
    assert not found, "\n".join(
        f"{name}: stored at {', '.join(sites)}, read nowhere"
        for name, sites in found.items()
    )


def test_the_scan_sees_stores_and_each_kind_of_read():
    source = (
        "class Handle:\n"
        "    __slots__ = ('spare', 'kept', 'named')\n"
        "    def __init__(self):\n"
        "        self.spare = 0\n"
        "        self.kept = 0\n"
        "        self.named = 0\n"
        "    def tick(self):\n"
        "        self.spare += 1\n"
        "        return self.kept\n"
        "def value(h):\n"
        "    return getattr(h, 'named')\n"
        "class Problem(ValueError):\n"
        "    def __init__(self, detail):\n"
        "        self.detail = detail\n"
        "class Worse(Problem):\n"
        "    def __init__(self, more):\n"
        "        self.more = more\n"
    )
    assert write_only_attributes({"m.py": source}) == {
        "spare": ["m.py:4", "m.py:8"],
    }
