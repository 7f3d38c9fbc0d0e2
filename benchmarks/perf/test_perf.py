"""Tests of the benchmark harness itself.

Run from the repository root with ``PYTHONPATH=src pytest benchmarks/perf``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE)]

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

#: the cheapest cell of each workload (about 3 s together)
CHEAPEST = {
    "stencil-fine": "haswell/p1024/s1",
    "stencil-starved": "xeon-phi/p65536/s2",
    "dist-gray": "w2/x8/notail/s19",
    "qos-shed": "x4/s2",
}


@pytest.mark.parametrize("workload", sorted(CHEAPEST))
def test_cheapest_cell_matches_pin(workload):
    pins = json.loads((HERE / "expected.json").read_text())
    label = CHEAPEST[workload]
    cell = next(
        c for c in workloads.WORKLOADS[workload](pins["seed"])
        if c.label == label
    )
    run, check = cell.setup()
    assert check(run()).digest == pins["digests"][workload][label]


def _run_set(values, metric="wall_s", seed=0, digest="d"):
    return [
        {"seed": seed, "workloads": {"w": {
            "metrics": {metric: v}, "digests": {"cell": digest},
        }}}
        for v in values
    ]


PARENT = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]
#: a lower-is-better time with a 10% bound
WALL = compare.Metric("s", "lower", 0.10)


def test_claim_passes_with_nine_of_ten_wins():
    change = [p - 10 for p in PARENT[:9]] + [PARENT[9] + 1]
    assert compare.pair_wins(PARENT, change, "lower") == (9, 10)
    assert compare.claim_passes(WALL, PARENT, change)
    lines, ok = compare.compare(
        _run_set(PARENT), _run_set(change), ["wall_s@w"]
    )
    assert ok and "claim wall_s@w: PASS (9/10 pairs won)" in lines


def test_claim_fails_with_eight_of_ten_wins():
    change = [p - 10 for p in PARENT[:8]] + [p + 1 for p in PARENT[8:]]
    assert compare.pair_wins(PARENT, change, "lower") == (8, 10)
    assert not compare.claim_passes(WALL, PARENT, change)
    _, ok = compare.compare(_run_set(PARENT), _run_set(change), ["wall_s@w"])
    assert not ok


def test_claim_needs_medians_apart_by_more_than_parent_spread():
    change = [p - 0.5 for p in PARENT]
    assert compare.pair_wins(PARENT, change, "lower") == (10, 10)
    assert not compare.claim_passes(WALL, PARENT, change)


def test_spread_wider_than_bound_is_unresolved():
    parent = [80.0, 120.0, 90.0, 110.0, 100.0, 85.0, 115.0, 95.0, 105.0, 100.0]
    change = list(reversed(parent))
    assert compare.verdict(WALL, parent, change) == "unresolved"


def test_every_change_run_better_resolves_a_wide_spread():
    parent = [80.0, 120.0, 90.0, 110.0, 100.0, 85.0, 115.0, 95.0, 105.0, 100.0]
    change = [70.0] * 10
    assert compare.verdict(WALL, parent, change) == "better"


def test_median_worse_by_more_than_bound_is_worse():
    change = [p * 1.2 for p in PARENT]
    assert compare.verdict(WALL, PARENT, change) == "worse"
    bound = compare.END_TO_END["wall_s"].bound
    change = [p * (1 + 2 * bound) for p in PARENT]
    lines, ok = compare.compare(_run_set(PARENT), _run_set(change))
    assert not ok and lines[2].endswith("worse")


def test_same_runs_are_ok():
    assert compare.verdict(WALL, PARENT, list(PARENT)) == "ok"
    rate = compare.END_TO_END["error_rate"]
    assert compare.verdict(rate, [0.0] * 5, [0.0] * 5) == "ok"
    assert compare.verdict(rate, [0.0] * 5, [0.0] * 4 + [0.1]) == "worse"


def test_digest_mismatch_fails():
    parent = _run_set(PARENT, digest="aaa")
    change = _run_set(PARENT, digest="bbb")
    lines, ok = compare.compare(parent, change)
    assert not ok
    assert "digest divergence: w seed 0 cell" in lines


ROOT = "/x/src/repro"
TAIL_FN = (f"{ROOT}/tail/manager.py", 398, "_speculate")
SIM_FN = (f"{ROOT}/sim/engine.py", 57, "schedule_at")
SUM = ("~", 0, "<built-in method builtins.sum>")
HEAPPUSH = ("~", 0, "<built-in method _heapq.heappush>")
HARNESS = ("/x/benchmarks/perf/run.py", 90, "worker")
LEN = ("~", 0, "<built-in method builtins.len>")


def _stats():
    # pstats layout: (cc, nc, tt, ct, callers); callers: (nc, cc, tt, ct)
    return {
        HARNESS: (1, 1, 0.25, 4.0, {}),
        TAIL_FN: (2, 2, 1.0, 2.5, {HARNESS: (2, 2, 1.0, 2.5)}),
        SIM_FN: (4, 4, 0.5, 1.0, {HARNESS: (4, 4, 0.5, 1.0)}),
        SUM: (6, 6, 1.5, 1.5, {TAIL_FN: (6, 6, 1.5, 1.5)}),
        HEAPPUSH: (4, 4, 0.5, 0.5, {SIM_FN: (4, 4, 0.5, 0.5)}),
        LEN: (1, 1, 0.25, 0.25, {HARNESS: (1, 1, 0.25, 0.25)}),
    }


def test_builtin_called_from_tail_lands_in_tail():
    times = layers.self_times(_stats(), ROOT)
    assert times["tail"] == pytest.approx(2.5)
    assert times["sim"] == pytest.approx(1.0)
    assert times["other"] == pytest.approx(0.5)
    assert sum(times.values()) == pytest.approx(4.0)


def test_layer_of_sorts_files():
    assert layers.layer_of(f"{ROOT}/tail/manager.py", ROOT) == "tail"
    assert layers.layer_of(f"{ROOT}/experiments/figH.py", ROOT) == "other"
    assert layers.layer_of("/usr/lib/python3/heapq.py", ROOT) is None


def test_benchmark_json_matches_the_catalogue():
    spec_path = HERE.parents[1] / "BENCHMARK.json"
    if not spec_path.exists():
        pytest.skip("no BENCHMARK.json beside the benchmark")
    spec = json.loads(spec_path.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    for m in spec["end_to_end"]:
        metric = compare.END_TO_END[m["name"]]
        assert (m["unit"], m["better"], m["bound"]) == (
            metric.unit, metric.better, metric.bound
        )
    assert {m["name"] for m in spec["end_to_end"]} == (
        set(compare.END_TO_END) - {"error_rate"}
    )
    counts = dict.fromkeys(workloads.COUNT_KEYS + ("tasks", "events"), 0)
    names = set(layers.per_layer({}, ROOT, counts)) | {"trace.overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == names
