#!/usr/bin/env python3
"""The repository benchmark: host time of the simulator on four workloads.

Usage (from the repository root)::

    python benchmarks/perf/run.py [WORKLOAD ...] [--seed S] [--seconds N]
                                  [--trace [0|1]] [--out FILE.json]
    python benchmarks/perf/run.py --workload NAME --seed S --seconds N --trace 0
    python benchmarks/perf/run.py compare --parent A.json ... --change B.json ...
                                  [--claim METRIC@WORKLOAD ...]
    python benchmarks/perf/run.py check [WORKLOAD ...] [--update]

Each workload runs in its own fresh ``python`` subprocess, one after
another, and that process runs the workload's cells back to back in one
thread (a closed loop with one client).  With ``--seconds N`` the cells
repeat, in order, until ``N`` seconds have passed and every cell has run
at least once; each cell's times are the median of its repeats.  Without
it every cell runs once.

``--trace`` (or ``--trace 1``) adds a second subprocess that runs every
cell once more under ``cProfile`` and reports the per-layer metrics
(``layers.py``); its digests must equal the untraced ones.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics, or with
``--trace`` the per-layer ones; named ``metric@workload`` when more than
one workload ran).  ``--out`` writes the full record that ``compare``
reads.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
EXPECTED = HERE / "expected.json"
#: ``workloads.WORKLOADS``'s keys, spelled out because this process never
#: imports repro: each worker's import is part of what it times
WORKLOAD_NAMES = ("stencil-fine", "stencil-starved", "dist-gray", "qos-shed")
#: a worker that takes longer than this has hung
WORKER_TIMEOUT_S = 170
#: fresh interpreters timing the import; ``setup_s`` uses their median
IMPORT_SAMPLES = 5

from compare import END_TO_END, compare


def layer_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


# -- the worker: one workload in one fresh process ---------------------------------


def _count_events(simulator_cls) -> list[int]:
    """Wrap ``Simulator.run``/``run_until`` to sum the events they fire."""
    fired = [0]
    for name in ("run", "run_until"):
        original = getattr(simulator_cls, name)

        def counted(self, *args, _original=original, **kwargs):
            n = _original(self, *args, **kwargs)
            fired[0] += n
            return n

        setattr(simulator_cls, name, counted)
    return fired


def import_seconds() -> float:
    """Host seconds to import the workloads and the repro modules they use."""
    start = time.perf_counter()
    import workloads  # noqa: F401
    return time.perf_counter() - start


def worker(workload: str, seed: int, seconds: float, traced: bool,
           prof_path: str | None) -> dict:
    # The traced pass profiles the import too, as set-up time every layer
    # pays: a layer the cells never enter still reads its import time.
    profiler = cProfile.Profile() if traced else None
    if profiler is not None:
        profiler.enable()
    import_s = import_seconds()
    if profiler is not None:
        profiler.disable()

    import repro
    import workloads
    from layers import per_layer
    from repro.runtime.task import tasks_created
    from repro.sim.engine import Simulator

    fired = _count_events(Simulator)
    cells = workloads.WORKLOADS[workload](seed)
    records = [
        {"label": c.label, "setup_s": [], "run_s": [], "errors": []}
        for c in cells
    ]
    counts = dict.fromkeys(workloads.COUNT_KEYS + ("tasks", "events"), 0)
    begin = time.perf_counter()
    n = 0
    while True:
        rec = records[n % len(cells)]
        cell = cells[n % len(cells)]
        n += 1
        gc.collect()
        tasks0, events0 = tasks_created(), fired[0]
        try:
            if profiler is not None:
                profiler.enable()
            try:
                t0 = time.perf_counter()
                run, check = cell.setup()
                t1 = time.perf_counter()
                result = run()
                t2 = time.perf_counter()
            finally:
                if profiler is not None:
                    profiler.disable()
            checked = check(result)
        except Exception as exc:  # a failed cell is reported, not fatal
            rec["errors"].append(f"{type(exc).__name__}: {exc}")
        else:
            sample = {
                "digest": checked.digest,
                "tasks": tasks_created() - tasks0,
                "events": fired[0] - events0,
            }
            if "digest" in rec and any(rec[k] != v for k, v in sample.items()):
                rec["errors"].append(f"rerun differs: {sample}")
            else:
                if "digest" not in rec:
                    rec.update(sample)
                    for key, value in checked.counts.items():
                        counts[key] += value
                    counts["tasks"] += sample["tasks"]
                    counts["events"] += sample["events"]
                rec["setup_s"].append(t1 - t0)
                rec["run_s"].append(t2 - t1)
        if n >= len(cells) and (
            traced or time.perf_counter() - begin >= seconds
        ):
            break
    out = {
        "import_s": import_s,
        "attempted": n,
        "cells": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if profiler is not None:
        profiler.create_stats()
        out["per_layer"] = per_layer(
            profiler.stats, str(Path(repro.__file__).parent), counts
        )
        if prof_path:
            profiler.dump_stats(prof_path)
    return out


def _run_self(args: list[str]) -> str:
    """Run this script in a fresh interpreter; return its last output line."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(args)}: exited with {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def spawn_worker(workload: str, seed: int, seconds: float, traced: bool,
                 prof_path: str | None = None) -> dict:
    args = [
        "_worker", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if traced else "0",
    ]
    if prof_path:
        args += ["--prof", prof_path]
    return json.loads(_run_self(args))


# -- turning worker output into metrics ---------------------------------------------


def pass_wall_s(out: dict) -> float:
    """Median host seconds of one pass over the cells, import excluded."""
    return sum(
        median(c["setup_s"]) + median(c["run_s"])
        for c in out["cells"] if c["run_s"]
    )


def end_to_end(out: dict, import_s: float) -> dict[str, float]:
    timed = [c for c in out["cells"] if c["run_s"]]
    setup = import_s + sum(median(c["setup_s"]) for c in timed)
    run = sum(median(c["run_s"]) for c in timed)
    return {
        "wall_s": setup + run,
        "setup_s": setup,
        "sim_tasks_per_s": sum(c["tasks"] for c in timed) / run if run else 0.0,
        "sim_events_per_s": sum(c["events"] for c in timed) / run if run else 0.0,
        "peak_rss_mb": out["peak_rss_mb"],
    }


def load_pins() -> dict:
    return json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            prof_path: str | None, pins: dict) -> dict:
    """Run one workload (and its traced pass); return its run record."""
    plain = spawn_worker(workload, seed, 0 if trace else seconds, False)
    digests = {c["label"]: c.get("digest") for c in plain["cells"]}
    errors = [f"{c['label']}: {e}" for c in plain["cells"] for e in c["errors"]]
    attempted = plain["attempted"]
    if pins.get("seed") == seed:
        pinned = pins["digests"].get(workload, {})
        for label, dig in digests.items():
            if dig is not None and pinned.get(label) != dig:
                errors.append(f"{label}: digest {dig[:12]} differs from the pin")
    import_s = median([plain["import_s"]] + [
        float(_run_self(["_import"])) for _ in range(IMPORT_SAMPLES - 1)
    ])
    record = {
        "metrics": end_to_end(plain, import_s),
        "passes": plain["attempted"] / len(digests),
    }
    if trace:
        traced = spawn_worker(workload, seed, 0, True, prof_path)
        attempted += traced["attempted"]
        errors += [
            f"{c['label']} (traced): {e}"
            for c in traced["cells"] for e in c["errors"]
        ]
        for c in traced["cells"]:
            if c.get("digest") is not None and c["digest"] != digests[c["label"]]:
                errors.append(f"{c['label']}: traced digest differs from untraced")
        record["per_layer"] = {
            **traced["per_layer"],
            "trace.overhead_ratio": pass_wall_s(traced) / pass_wall_s(plain),
        }
    record.update(
        attempted=attempted, failed=len(errors), errors=errors,
        digests=digests, import_s=import_s, cells=plain["cells"],
    )
    record["metrics"]["error_rate"] = len(errors) / attempted
    return record


# -- commands ------------------------------------------------------------------------


def _workload_list(names: list[str]) -> list[str]:
    for name in names:
        if name not in WORKLOAD_NAMES:
            raise SystemExit(
                f"unknown workload {name!r}; choose from {', '.join(WORKLOAD_NAMES)}"
            )
    return list(dict.fromkeys(names)) or list(WORKLOAD_NAMES)


def cmd_run(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD")
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", nargs="?", const="1", default="0",
                        metavar="0|1")
    parser.add_argument("--out", help="write the full run record here")
    args = parser.parse_args(argv)
    if args.trace not in ("0", "1"):
        # a bare --trace followed by a workload name
        args.workloads.insert(0, args.trace)
        args.trace = "1"
    args.trace = args.trace == "1"
    names = _workload_list(args.workload + args.workloads)
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"no repro package under {SRC}")

    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    pins = load_pins()
    run = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
           "workloads": {}}
    for name in names:
        prof = None
        if args.trace and args.out:
            prof = str(Path(args.out).with_suffix(f".{name}.prof"))
        rec = measure(name, args.seed, args.seconds, args.trace, prof, pins)
        run["workloads"][name] = rec
        print(f"{name}: seed {args.seed}, {rec['passes']:.2f} passes, "
              f"{rec['attempted']} cells run, {rec['failed']} failed")
        for metric, value in rec["metrics"].items():
            print(f"  {metric:<30} {value:14.6g} {END_TO_END[metric].unit}")
        for metric, value in rec.get("per_layer", {}).items():
            print(f"  {metric:<30} {value:14.6g} {layer_unit(metric)}")
        for error in rec["errors"]:
            print(f"  FAILED {error}")
    if args.out:
        Path(args.out).write_text(json.dumps(run, indent=1) + "\n")

    metrics = {}
    for name, rec in run["workloads"].items():
        suffix = "" if len(names) == 1 else f"@{name}"
        if args.trace:
            chosen = {k: (v, layer_unit(k)) for k, v in rec["per_layer"].items()}
        else:
            chosen = {
                k: (v, END_TO_END[k].unit)
                for k, v in rec["metrics"].items() if k != "error_rate"
            }
        for key, (value, unit) in chosen.items():
            metrics[key + suffix] = {"value": value, "unit": unit}
    failed = sum(r["failed"] for r in run["workloads"].values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in run["workloads"].values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def cmd_compare(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--claim", action="append", default=[],
                        metavar="METRIC@WORKLOAD")
    args = parser.parse_args(argv)

    def load(paths):
        return [json.loads(Path(p).read_text()) for p in paths]

    lines, ok = compare(load(args.parent), load(args.change), args.claim)
    print("\n".join(lines))
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_check(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py check")
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD")
    parser.add_argument("--update", action="store_true",
                        help="re-pin the digests instead of checking them")
    args = parser.parse_args(argv)
    names = _workload_list(args.workloads)
    pins = load_pins() or {"seed": 0, "digests": {}}
    ok = True
    for name in names:
        out = spawn_worker(name, pins["seed"], 0, False)
        got = {c["label"]: c.get("digest") for c in out["cells"]}
        errors = [f"{c['label']}: {e}" for c in out["cells"] for e in c["errors"]]
        if args.update and not errors:
            pins["digests"][name] = got
        else:
            want = pins["digests"].get(name, {})
            errors += [
                f"{label}: {dig} differs from the pin {want.get(label)}"
                for label, dig in got.items() if want.get(label) != dig
            ]
        ok &= not errors
        print(f"{name}: {len(got)} cells, {'FAIL' if errors else 'ok'}")
        for error in errors:
            print(f"  {error}")
    if args.update and ok:
        EXPECTED.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


def cmd_worker(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py _worker")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--prof")
    args = parser.parse_args(argv)
    out = worker(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.prof)
    print(json.dumps(out))
    return 0


def cmd_import(argv: list[str]) -> int:
    print(import_seconds())
    return 0


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    commands = {
        "compare": cmd_compare, "check": cmd_check,
        "_worker": cmd_worker, "_import": cmd_import,
    }
    if argv and argv[0] in commands:
        return commands[argv[0]](argv[1:])
    return cmd_run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
