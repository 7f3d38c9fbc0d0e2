"""Exact series digests for reproduced figures (``tests/golden/*.json``).

A figure's shape checks tolerate drift by design, so they cannot show that
a refactor changed nothing.  These pins can: each golden file holds a
sha256 over every panel name, series label and ``repr`` of every point, in
the order the runner produced them, at the scale the owning test runs.
Any change to a value, a label or the series order moves the digest.

The per-panel digests stored beside the overall one only localise a
mismatch; the overall digest is the pin.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.experiments.report import FigureResult

GOLDEN_DIR = Path(__file__).parent / "golden"


def _panel_lines(name: str, series_list) -> list[str]:
    lines = [f"panel {name!r}"]
    for series in series_list:
        lines.append(f"series {series.label!r}")
        lines.extend(f"{x!r} {y!r}" for x, y in series.points)
    return lines


def _sha256(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def figure_digest(fig: FigureResult) -> dict:
    """The overall and per-panel sha256 of ``fig``'s series."""
    panels = {
        name: _panel_lines(name, series_list)
        for name, series_list in fig.panels.items()
    }
    return {
        "sha256": _sha256([line for lines in panels.values() for line in lines]),
        "panels": {name: _sha256(lines) for name, lines in panels.items()},
    }


def write_golden(fig: FigureResult, name: str, scale: str) -> None:
    """Pin ``fig``'s series digest as ``tests/golden/<name>.json``.

    ``scale`` names the scale the owning test runs, e.g. ``"smoke"`` or
    ``"smoke, points_per_decade=1"``.  Writing a new pin and re-baselining
    one that a change moves on purpose are both this one call.
    """
    pinned = {"figure": name, "scale": scale, **figure_digest(fig)}
    path = GOLDEN_DIR / f"{name}.json"
    path.write_text(json.dumps(pinned, indent=2) + "\n")


def assert_golden(fig: FigureResult, name: str) -> None:
    """Assert ``fig``'s series digest equals ``tests/golden/<name>.json``."""
    pinned = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    actual = figure_digest(fig)
    if actual["sha256"] == pinned["sha256"]:
        return
    moved = sorted(
        panel
        for panel in set(pinned["panels"]) | set(actual["panels"])
        if pinned["panels"].get(panel) != actual["panels"].get(panel)
    )
    raise AssertionError(
        f"{name}: series digest moved from the golden pin "
        f"(scale {pinned['scale']}); panels that differ: {moved}"
    )
