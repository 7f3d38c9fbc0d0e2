"""Per-layer numbers from a cProfile pass over a workload's cells.

A layer is a directory ``src/repro/<layer>/``; a function's self time
belongs to the layer its file sits in.  Builtins, the stdlib and the
benchmark's own helpers are charged to whichever layer called them, using
the per-caller times ``pstats`` keeps, so ``heapq.heappush`` called from
``repro.sim`` counts as ``sim`` time.  What no repro function called
lands in ``other``, as do repro modules outside :data:`LAYERS`.
"""

from __future__ import annotations

import os
from typing import Any

#: layers reported by name; every other repro module counts as ``other``
LAYERS = (
    "schedulers", "runtime", "apps", "sim", "counters", "dist", "faults",
    "recovery", "tail", "overload", "qos",
)

#: per-layer call counts: metric -> (file under src/repro, function names)
CALL_COUNTS = {
    "queue_probes": ("schedulers/queues.py", ("pop_pending", "pop_staged")),
    "future_sets": ("runtime/future.py", ("set_value", "set_exception")),
    "scheduled": ("sim/engine.py", ("schedule_at",)),
    "snapshots": ("counters/registry.py", ("snapshot",)),
    "rng_draws": ("faults/plan.py", ("stream_u64",)),
}

# pstats layouts: stats[func] = (cc, nc, tt, ct, callers) and
# callers[caller] = (nc, cc, tt, ct)
_NC, _TT, _CALLERS = 1, 2, 4
_CALLER_NC, _CALLER_TT = 0, 2


def layer_of(filename: str, repro_root: str) -> str | None:
    """The layer a source file belongs to; None outside ``repro``."""
    prefix = repro_root.rstrip(os.sep) + os.sep
    if not filename.startswith(prefix):
        return None
    head = filename[len(prefix):].split(os.sep, 1)[0]
    return head if head in LAYERS else "other"


def self_times(stats: dict, repro_root: str) -> dict[str, float]:
    """Self seconds per layer (plus ``other``), summing to the total."""
    shares: dict[Any, dict[str, float]] = {}

    def share(func, visiting: frozenset) -> dict[str, float]:
        """How ``func``'s calls split across the layers of its callers."""
        own = layer_of(func[0], repro_root)
        if own is not None:
            return {own: 1.0}
        if func in shares:
            return shares[func]
        callers = stats[func][_CALLERS] if func in stats else {}
        if func in visiting or not callers:
            return {"other": 1.0}
        column = _CALLER_TT
        total = sum(v[column] for v in callers.values())
        if total <= 0:
            column = _CALLER_NC
            total = sum(v[column] for v in callers.values())
        out: dict[str, float] = {}
        for caller, v in callers.items():
            for layer, x in share(caller, visiting | {func}).items():
                out[layer] = out.get(layer, 0.0) + x * v[column] / total
        shares[func] = out
        return out

    times = dict.fromkeys(LAYERS + ("other",), 0.0)
    for func, entry in stats.items():
        tt = entry[_TT]
        own = layer_of(func[0], repro_root)
        if own is not None:
            times[own] += tt
            continue
        charged = 0.0
        for caller, v in entry[_CALLERS].items():
            for layer, x in share(caller, frozenset({func})).items():
                times[layer] += x * v[_CALLER_TT]
            charged += v[_CALLER_TT]
        times["other"] += tt - charged
    return times


def call_count(stats: dict, repro_root: str, relpath: str, names) -> int:
    """ncalls summed over functions ``names`` defined in ``relpath``."""
    path = os.path.join(repro_root, *relpath.split("/"))
    return sum(
        entry[_NC] for (filename, _line, name), entry in stats.items()
        if filename == path and name in names
    )


def searches(stats: dict, repro_root: str) -> int:
    """Scheduler searches: calls to any policy's ``find_work``."""
    return sum(
        entry[_NC] for (filename, _line, name), entry in stats.items()
        if name == "find_work" and layer_of(filename, repro_root) is not None
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(
    stats: dict, repro_root: str, counts: dict[str, float]
) -> dict[str, float]:
    """Every per-layer metric but ``trace.overhead_ratio``, from profile
    ``stats`` and the cells' model ``counts`` (summed over the pass)."""
    total = sum(entry[_TT] for entry in stats.values())
    times = self_times(stats, repro_root)
    if abs(sum(times.values()) - total) > 0.05 * total:
        raise ValueError(
            f"layer self times sum to {sum(times.values()):.3f} s, "
            f"profile total is {total:.3f} s"
        )
    calls = {
        key: call_count(stats, repro_root, relpath, names)
        for key, (relpath, names) in CALL_COUNTS.items()
    }
    n_search = searches(stats, repro_root)
    c = counts
    out = {f"{layer}.self_s": t for layer, t in times.items()}
    out.update({
        "schedulers.searches": n_search,
        "schedulers.search_hit_ratio": _ratio(c["phases"], n_search),
        "schedulers.queue_probes": calls["queue_probes"],
        "schedulers.probe_hit_ratio": _ratio(
            c["probe_hits"], calls["queue_probes"]
        ),
        "schedulers.steals": c["steals"],
        "runtime.tasks": c["tasks"],
        "runtime.phases": c["phases"],
        "runtime.future_sets": calls["future_sets"],
        "sim.events": c["events"],
        "sim.scheduled": calls["scheduled"],
        "sim.fired_ratio": _ratio(c["events"], calls["scheduled"]),
        "counters.snapshots": calls["snapshots"],
        "dist.parcels_sent": c["parcels_sent"],
        "dist.retransmit_ratio": _ratio(
            c["parcels_retransmitted"], c["parcels_sent"]
        ),
        "faults.rng_draws": calls["rng_draws"],
        "recovery.heartbeats": c["heartbeats"],
        "recovery.checkpoints": c["checkpoints"],
        "tail.hedges_sent": c["hedges_sent"],
        "tail.hedge_win_ratio": _ratio(c["hedges_won"], c["hedges_sent"]),
        "tail.tasks_speculated": c["tasks_speculated"],
        "tail.speculation_win_ratio": _ratio(
            c["speculation_wins"], c["tasks_speculated"]
        ),
        "overload.offered": c["offered"],
        "overload.admit_ratio": _ratio(c["offered"] - c["shed"], c["offered"]),
        "qos.arrivals": c["arrivals"],
    })
    return out
