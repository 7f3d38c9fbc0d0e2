"""Machine-readable benchmark log: ``BENCH_<rev>.json``.

``make bench`` (``pytest benchmarks/ --benchmark-only``) reproduces one
paper artifact per benchmark and asserts its shape checks, but the wall
time and task-count trail used to live only in pytest-benchmark's
terminal table.  This module collects one :class:`BenchRecord` per
figure run — experiment name, wall-clock seconds, simulated-task count,
scale — and writes them as ``BENCH_<git short rev>.json`` next to the
repo root when the benchmark session finishes, so CI can archive a
per-revision performance trail and regressions show up as a diff
between two small JSON files.

The plumbing: :func:`run_figure_benchmark <benchmarks._support.
run_figure_benchmark>` calls :func:`record` around every figure run,
and ``benchmarks/conftest.py`` calls :func:`write` from
``pytest_sessionfinish``.

:func:`compare` is the regression gate over two such logs:

    python -m repro.experiments.benchlog compare OLD.json NEW.json

prints a per-figure wall-time table and exits non-zero when any
experiment present in both logs slowed down by more than the threshold
(default 25%).  CI downloads the previous revision's ``bench-log``
artifact and runs exactly this, so a wall-time regression fails the
build with a readable diff instead of burying it in a JSON blob.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

__all__ = [
    "BenchRecord",
    "CompareResult",
    "CompareRow",
    "RECORDS",
    "compare",
    "compare_files",
    "format_table",
    "git_revision",
    "main",
    "record",
    "reset",
    "write",
]


@dataclass(frozen=True)
class BenchRecord:
    """One benchmarked figure run."""

    experiment: str
    #: wall-clock seconds for ``module.run(scale)``
    wall_s: float
    #: simulated tasks created during the run (across all its sub-runs)
    tasks: int
    scale: str


#: the session accumulator ``write()`` drains
RECORDS: list[BenchRecord] = []


def record(
    experiment: str, wall_s: float, tasks: int, scale: str = "bench"
) -> BenchRecord:
    """Append one run to the session log and return it."""
    rec = BenchRecord(
        experiment=experiment,
        wall_s=round(float(wall_s), 4),
        tasks=int(tasks),
        scale=scale,
    )
    RECORDS.append(rec)
    return rec


def reset() -> None:
    """Drop accumulated records (test isolation)."""
    RECORDS.clear()


def _git(args: list[str], cwd: str | Path | None) -> str | None:
    try:
        out = subprocess.run(
            ["git", *args],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout if out.returncode == 0 else None


def git_revision(cwd: str | Path | None = None) -> str:
    """The short revision of HEAD *right now*, or ``"unknown"``.

    Stamped at emission time — not import time — so a long benchmark
    session that straddles a commit is attributed to the revision the
    log was written under.  A working tree with uncommitted changes
    gets a ``-dirty`` suffix: a trail measured against unreviewed edits
    must never be mistaken for the commit's own baseline.
    """
    rev = (_git(["rev-parse", "--short", "HEAD"], cwd) or "").strip()
    if not rev:
        return "unknown"
    status = _git(["status", "--porcelain"], cwd)
    if status is None or status.strip():
        return f"{rev}-dirty"
    return rev


def write(directory: str | Path = ".", revision: str | None = None) -> Path | None:
    """Write ``BENCH_<rev>.json`` into ``directory``; ``None`` when the
    session recorded nothing (e.g. ``-k`` deselected every benchmark).

    Besides the per-run records, the payload lists the sorted set of
    experiments that ran.  ``benchmarks/bench_figures.py`` runs every
    experiment the CLI registers, so a full session covers them all.
    """
    if not RECORDS:
        return None
    rev = revision if revision is not None else git_revision(directory)
    path = Path(directory) / f"BENCH_{rev}.json"
    payload = {
        "revision": rev,
        "records": [asdict(r) for r in sorted(RECORDS, key=lambda r: r.experiment)],
        "experiments": sorted({r.experiment for r in RECORDS}),
        "total_wall_s": round(sum(r.wall_s for r in RECORDS), 4),
        "total_tasks": sum(r.tasks for r in RECORDS),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


# -- the regression gate --------------------------------------------------------


@dataclass(frozen=True)
class CompareRow:
    """One experiment's wall time across two bench logs."""

    experiment: str
    #: seconds in the old / new log; None when absent from that log
    old_wall_s: float | None
    new_wall_s: float | None

    @property
    def ratio(self) -> float | None:
        """``new / old``, or None when either side is missing or old is 0."""
        if self.old_wall_s is None or self.new_wall_s is None:
            return None
        if self.old_wall_s <= 0.0:
            return None
        return self.new_wall_s / self.old_wall_s

    def regressed(self, threshold: float) -> bool:
        ratio = self.ratio
        return ratio is not None and ratio > 1.0 + threshold


@dataclass(frozen=True)
class CompareResult:
    """Outcome of :func:`compare` — rows plus the verdict."""

    rows: tuple[CompareRow, ...]
    threshold: float

    @property
    def regressions(self) -> tuple[CompareRow, ...]:
        return tuple(r for r in self.rows if r.regressed(self.threshold))

    @property
    def ok(self) -> bool:
        return not self.regressions


def _wall_by_experiment(payload: dict) -> dict[str, float]:
    walls: dict[str, float] = {}
    for rec in payload.get("records", []):
        # a figure benchmarked twice in one session accumulates
        walls[rec["experiment"]] = (
            walls.get(rec["experiment"], 0.0) + float(rec["wall_s"])
        )
    return walls


def compare(old: dict, new: dict, threshold: float = 0.25) -> CompareResult:
    """Diff two ``BENCH_<rev>.json`` payloads, flagging slowdowns.

    An experiment regresses when it appears in both logs and its new
    wall time exceeds the old by more than ``threshold`` (a fraction:
    0.25 means 25% slower fails).  Experiments present on only one side
    (newly added or retired figures) are listed but never regress.
    """
    if threshold < 0.0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    old_walls = _wall_by_experiment(old)
    new_walls = _wall_by_experiment(new)
    rows = tuple(
        CompareRow(
            experiment=name,
            old_wall_s=old_walls.get(name),
            new_wall_s=new_walls.get(name),
        )
        for name in sorted(set(old_walls) | set(new_walls))
    )
    return CompareResult(rows=rows, threshold=threshold)


def compare_files(
    old_path: str | Path, new_path: str | Path, threshold: float = 0.25
) -> CompareResult:
    old = json.loads(Path(old_path).read_text())
    new = json.loads(Path(new_path).read_text())
    return compare(old, new, threshold=threshold)


def format_table(result: CompareResult) -> str:
    """The per-figure table the CI log shows — one row per experiment."""
    header = (
        f"{'experiment':<12} {'old (s)':>9} {'new (s)':>9} "
        f"{'delta':>8}  verdict"
    )
    lines = [header, "-" * len(header)]
    for row in result.rows:
        old_s = "-" if row.old_wall_s is None else f"{row.old_wall_s:.3f}"
        new_s = "-" if row.new_wall_s is None else f"{row.new_wall_s:.3f}"
        ratio = row.ratio
        if ratio is None:
            delta = "-"
            verdict = "new" if row.old_wall_s is None else "retired"
        else:
            delta = f"{(ratio - 1.0) * 100.0:+.1f}%"
            if row.regressed(result.threshold):
                verdict = f"REGRESSED (> {result.threshold * 100:.0f}%)"
            elif ratio < 1.0:
                verdict = "faster"
            else:
                verdict = "ok"
        lines.append(
            f"{row.experiment:<12} {old_s:>9} {new_s:>9} {delta:>8}  {verdict}"
        )
    if result.ok:
        lines.append(
            f"no wall-time regression above {result.threshold * 100:.0f}%"
        )
    else:
        names = ", ".join(r.experiment for r in result.regressions)
        lines.append(
            f"{len(result.regressions)} regression(s) above "
            f"{result.threshold * 100:.0f}%: {names}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.benchlog",
        description="Benchmark-log tooling (BENCH_<rev>.json).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    cmp_parser = sub.add_parser(
        "compare",
        help="diff two bench logs; exit 1 on a wall-time regression",
    )
    cmp_parser.add_argument("old", help="baseline BENCH_<rev>.json")
    cmp_parser.add_argument("new", help="candidate BENCH_<rev>.json")
    cmp_parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="slowdown fraction that fails the gate (default 0.25 = 25%%)",
    )
    args = parser.parse_args(argv)
    result = compare_files(args.old, args.new, threshold=args.threshold)
    print(format_table(result))
    return 0 if result.ok else 1


if __name__ == "__main__":  # pragma: no cover - CLI shim
    sys.exit(main())
