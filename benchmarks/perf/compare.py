"""Comparing two sets of benchmark runs: the parent's and the change's.

The rule, per workload and end-to-end metric:

- ``worse``: the change's median is worse than the parent's by more than
  the metric's bound (a share of the parent's median);
- ``unresolved``: the parent's own spread between quartiles is wider than
  the bound, so the runs cannot show a regression of that size, unless
  every change run beats every parent run;
- ``better``: every change run beats every parent run, or the change wins
  at least 9 in 10 parent/change pairs and the medians differ by more than
  the parent's spread between quartiles (the rule a claimed gain needs);
- ``ok``: none of the above.

``error_rate`` has an absolute bound of zero: any rise is ``worse``.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean, median, quantiles


@dataclass(frozen=True)
class Metric:
    unit: str
    better: str  # "lower" or "higher"
    #: how far the median may worsen, as a share of the parent's median;
    #: 0 means any worsening at all counts
    bound: float


#: the end-to-end metrics, measured with tracing off.  Host times get the
#: widest bound BENCHMARK.json allows: on a shared 2-core VM, neighbours
#: alone move them by 5-15% between runs minutes apart (README.md).
END_TO_END = {
    "wall_s": Metric("s", "lower", 0.25),
    "setup_s": Metric("s", "lower", 0.25),
    "sim_tasks_per_s": Metric("1/s", "higher", 0.25),
    "sim_events_per_s": Metric("1/s", "higher", 0.25),
    "peak_rss_mb": Metric("MB", "lower", 0.15),
    "error_rate": Metric("ratio", "lower", 0.0),
}

#: share of pairs the change must win for a claimed gain
CLAIM_WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = quantiles(values, n=4)
    return q1, q2, q3


def _beats(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def pair_wins(
    parent: list[float], change: list[float], better: str
) -> tuple[int, int]:
    """Pairs the change wins, and pairs compared (runs paired in order;
    ties count for neither side)."""
    pairs = list(zip(parent, change))
    return sum(_beats(c, p, better) for p, c in pairs), len(pairs)


def claim_passes(
    metric: Metric, parent: list[float], change: list[float]
) -> bool:
    """The change wins >= 9/10 of pairs and the medians differ, in the
    change's favour, by more than the parent's spread between quartiles."""
    wins, pairs = pair_wins(parent, change, metric.better)
    if pairs == 0 or wins < CLAIM_WIN_SHARE * pairs:
        return False
    q1, p_med, q3 = quartiles(parent)
    c_med = median(change)
    return _beats(c_med, p_med, metric.better) and abs(c_med - p_med) > q3 - q1


def verdict(metric: Metric, parent: list[float], change: list[float]) -> str:
    """``better`` / ``ok`` / ``worse`` / ``unresolved`` for one metric."""
    if metric.bound == 0:
        p, c = mean(parent), mean(change)
        if _beats(p, c, metric.better):
            return "worse"
        return "better" if _beats(c, p, metric.better) else "ok"
    if all(_beats(c, p, metric.better) for c in change for p in parent):
        return "better"
    q1, p_med, q3 = quartiles(parent)
    allowed = metric.bound * abs(p_med)
    if q3 - q1 > allowed:
        return "unresolved"
    c_med = median(change)
    if _beats(p_med, c_med, metric.better) and abs(c_med - p_med) > allowed:
        return "worse"
    return "better" if claim_passes(metric, parent, change) else "ok"


def divergent_cells(runs: list[dict]) -> list[str]:
    """Cells whose digest differs between any two runs of the same seed."""
    seen: dict[tuple, set[str]] = {}
    for run in runs:
        for name, wl in run["workloads"].items():
            for label, dig in wl["digests"].items():
                seen.setdefault((name, run["seed"], label), set()).add(dig)
    return [
        f"{name} seed {seed} {label}"
        for (name, seed, label), digests in sorted(seen.items())
        if len(digests) > 1
    ]


def _values(runs: list[dict], workload: str, key: str, metric: str):
    return [
        run["workloads"][workload][key][metric]
        for run in runs
        if workload in run["workloads"]
        and metric in run["workloads"][workload].get(key, {})
    ]


def _fmt(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:12.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def compare(
    parent: list[dict], change: list[dict], claims: list[str] = ()
) -> tuple[list[str], bool]:
    """Report lines and whether the change passes (no ``worse``, no rise
    in ``error_rate``, no digest divergence, every claim met)."""
    lines: list[str] = []
    ok = True
    workloads = sorted(
        {w for run in parent for w in run["workloads"]}
        & {w for run in change for w in run["workloads"]}
    )
    for workload in workloads:
        lines.append(workload)
        lines.append(
            f"  {'metric':<18} {'parent median [q1, q3]':>36} "
            f"{'change median [q1, q3]':>36}  verdict"
        )
        for name, metric in END_TO_END.items():
            p = _values(parent, workload, "metrics", name)
            c = _values(change, workload, "metrics", name)
            if not p or not c:
                continue
            v = verdict(metric, p, c)
            ok &= v != "worse"
            lines.append(
                f"  {name:<18} {_fmt(p):>36} {_fmt(c):>36}  {v}"
            )
        layer_names = sorted(
            {k for run in parent + change
             for k in run["workloads"].get(workload, {}).get("per_layer", {})}
        )
        for name in layer_names:
            p = _values(parent, workload, "per_layer", name)
            c = _values(change, workload, "per_layer", name)
            if p and c:
                lines.append(f"  {name:<30} {median(p):14.6g} -> {median(c):.6g}")
    for cell in divergent_cells(parent + change):
        ok = False
        lines.append(f"digest divergence: {cell}")
    for claim in claims:
        name, _, workload = claim.partition("@")
        if name not in END_TO_END:
            raise ValueError(f"unknown metric in claim {claim!r}")
        p = _values(parent, workload, "metrics", name)
        c = _values(change, workload, "metrics", name)
        met = bool(p and c) and claim_passes(END_TO_END[name], p, c)
        if p and c:
            wins, pairs = pair_wins(p, c, END_TO_END[name].better)
            detail = f"{wins}/{pairs} pairs won"
        else:
            detail = "no runs"
        ok &= met
        lines.append(f"claim {claim}: {'PASS' if met else 'FAIL'} ({detail})")
    return lines, ok
