"""The docs name only code that exists.

Every ``repro.`` dotted name and every ``repro/...py`` path in the user
docs must resolve by import plus ``getattr``, and every backticked
``*.py`` path must name a file under the repo root, ``src/`` or
``src/repro/``.  CHANGES.md and ROADMAP.md are history and may name code
that is gone.  Every "## `<Class>` knobs" table in ``docs/*.md`` lists
exactly the fields of the dataclass its ``repro`` subpackage exports
under that name.
"""

import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = sorted(
    [
        ROOT / "README.md",
        ROOT / "DESIGN.md",
        ROOT / "EXPERIMENTS.md",
        ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
        *(ROOT / "docs").glob("*.md"),
    ]
)

DOTTED = re.compile(r"\brepro(?:\.\w+)+")
PATH = re.compile(r"\brepro(?:/\w+)+\.py\b")
FILE = re.compile(r"`([\w./-]+\.py)`")
#: the directories a doc's file paths are written relative to
FILE_ROOTS = (ROOT, ROOT / "src", ROOT / "src" / "repro")
#: a "## `<Class>` knobs" section: the class name and the text up to the
#: next heading
KNOBS = re.compile(r"^## `(\w+)` knobs$(.*?)(?=^#|\Z)", re.M | re.S)
#: the first cell of a knob table row
KNOB_ROW = re.compile(r"^\| `(\w+)` \|", re.M)


def _resolves(dotted: str) -> bool:
    """Import the longest module prefix, then ``getattr`` the rest."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attr in parts[split:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def references(text: str) -> set[str]:
    names = set(DOTTED.findall(text))
    for path in PATH.findall(text):
        module = path.removesuffix(".py").replace("/", ".")
        names.add(module.removesuffix(".__init__"))
    return names


def missing_files(text: str) -> list[str]:
    return sorted(
        path
        for path in set(FILE.findall(text))
        if not any((root / path).is_file() for root in FILE_ROOTS)
    )


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: str(p.relative_to(ROOT)))
def test_docs_name_only_existing_code(doc):
    text = doc.read_text()
    missing = sorted(name for name in references(text) if not _resolves(name))
    missing += missing_files(text)
    assert not missing, f"{doc.name} names code that does not exist: {missing}"


def _exported_class(name: str):
    """The object a ``repro`` subpackage exports as ``name``, or None."""
    import repro

    for info in pkgutil.iter_modules(repro.__path__, "repro."):
        if info.ispkg:
            found = getattr(importlib.import_module(info.name), name, None)
            if found is not None:
                return found
    return None


def knob_table_problems(text: str) -> tuple[list[str], list[str]]:
    """(classes whose knob table was checked, what is wrong with them)."""
    checked: list[str] = []
    problems: list[str] = []
    for name, section in KNOBS.findall(text):
        cls = _exported_class(name)
        if not (isinstance(cls, type) and dataclasses.is_dataclass(cls)):
            problems.append(f"{name}: no repro subpackage exports it as a dataclass")
            continue
        checked.append(name)
        rows = KNOB_ROW.findall(section)
        fields = [f.name for f in dataclasses.fields(cls)]
        if sorted(rows) != sorted(fields):
            problems.append(f"{name} knobs table lists {rows}; its fields are {fields}")
    return checked, problems


def test_knob_tables_list_exactly_the_class_fields():
    checked: list[str] = []
    problems: list[str] = []
    for doc in sorted((ROOT / "docs").glob("*.md")):
        names, found = knob_table_problems(doc.read_text())
        checked += names
        problems += [f"{doc.name}: {p}" for p in found]
    assert not problems, problems
    # The check is not vacuous: these tables exist.
    assert {"TailConfig", "RecoveryConfig"} <= set(checked), checked
