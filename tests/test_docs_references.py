"""The docs name only code that exists.

Every ``repro.`` dotted name and every ``repro/...py`` path in the user
docs must resolve by import plus ``getattr``, and every backticked
``*.py`` path must name a file under the repo root, ``src/`` or
``src/repro/``.  CHANGES.md and ROADMAP.md are history and may name code
that is gone.
"""

import importlib
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
