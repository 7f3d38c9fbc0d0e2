"""Paper claims, series and shape checks of Figs. 9 and 10 (pending-queue
accesses).

Paper (Sec. IV-E): "Measuring the number of accesses to the pending queues
gives an indication of the amount of activity involving the thread
scheduler. [...] this metric can be used to determine adequate task grain
size. [...] This metric gives similar results to the idle-rate metric but
does not require timestamps."

Each panel: execution time plus total pending-queue accesses (in millions at
paper scale; raw counts here) against partition size.
"""

from __future__ import annotations

from repro.experiments.harness import check_u_shape
from repro.experiments.report import FigureResult

PAPER_CLAIMS = [
    "pending-queue accesses are very high at fine grain (many tasks), "
    "minimal in the medium region, and rise again at coarse grain "
    "(starved workers polling)",
    "the grain with minimal accesses has execution time close to the best "
    "(within 13% in the paper's 28-core example; checked in the selection "
    "experiment)",
]


YLABEL = "execution time (s) / pending-queue accesses"
SERIES = (
    ("execution time (s)", "execution_time_s"),
    ("pending-Q accesses", "pending_accesses"),
)


def pending_queue_shape_checks(fig: FigureResult) -> list[str]:
    problems: list[str] = []
    for panel, series_list in fig.panels.items():
        by_label = {s.label: s.points for s in series_list}
        label = f"{fig.figure_id} {panel}"
        accesses = by_label["pending-Q accesses"]
        problems += check_u_shape(accesses, f"{label}: accesses", tolerance=1.5)

        # The access-minimizing grain must sit near the time-minimizing one
        # in execution time (the paper's "determine adequate task grain
        # size" claim; quantified precisely in the selection experiment).
        times = dict(by_label["execution time (s)"])
        best_t = min(times.values())
        min_access_grain = min(accesses, key=lambda p: p[1])[0]
        if min_access_grain in times:
            t = times[min_access_grain]
            if t > best_t * 1.5:
                problems.append(
                    f"{label}: access-minimizing grain {min_access_grain:g} is "
                    f"{t / best_t:.2f}x slower than the best time"
                )
    return problems
