"""Paper claims, series and shape checks of Figs. 7 and 8 (overhead
decomposition).

Paper (Sec. IV-B, IV-D): the HPX-thread-management overhead (Eq. 4) "is high
for very fine- and coarse-grained tasks"; in the centre it is flat and the
execution time instead follows wait time (Eq. 6).  "The combination of time
for managing HPX-threads and waiting on resources show that these are the
driving effects on execution time" — the TM+WT curve mimics the
execution-time curve, and "wait time is negative [...] for the experiments
with very coarse-grained tasks".

Each panel plots four series against partition size: execution time, TM
(Eq. 4), WT (Eq. 6), and TM+WT, all in seconds per core, exactly as the
paper's stacked figures do.
"""

from __future__ import annotations

from repro.experiments.harness import check_negative_tail, check_tracks
from repro.experiments.report import FigureResult

PAPER_CLAIMS = [
    "thread-management overhead is high at the fine and coarse extremes and "
    "flat in the middle",
    "the TM+WT combination mimics the execution-time curve",
    "wait time is negative for very coarse-grained tasks (fewer tasks per "
    "step than cores)",
    "the gap between execution time and TM+WT is the actual computation "
    "time, which shrinks as cores increase",
]


YLABEL = "seconds"
#: the wait-time series need the single-core reference t_d1
SERIES = (
    ("Exec Time", "execution_time_s"),
    ("HPX-TM", "tm_per_core_s"),
    ("WT", "wait_per_core_s"),
    ("HPX-TM & WT", "combined_cost_s"),
)


def decomposition_shape_checks(fig: FigureResult) -> list[str]:
    problems: list[str] = []
    for panel, series_list in fig.panels.items():
        by_label = {s.label: s.points for s in series_list}
        label = f"{fig.figure_id} {panel}"
        exec_t = by_label["Exec Time"]
        tm = by_label["HPX-TM"]
        wt = by_label["WT"]
        combined = by_label["HPX-TM & WT"]

        # TM is high at both extremes relative to its mid-region floor.
        tm_ys = [y for _, y in tm]
        tm_floor = min(tm_ys)
        if tm_ys[0] < tm_floor * 3:
            problems.append(f"{label}: no fine-end TM wall")
        if tm_ys[-1] < tm_floor * 3:
            problems.append(f"{label}: no coarse-end TM wall")

        # Combined cost mimics execution time.
        problems += check_tracks(
            combined, exec_t, f"{label}: TM+WT vs exec time",
            min_correlation=0.7,
        )

        # Negative wait at the coarse extreme.
        problems += check_negative_tail(wt, f"{label}: WT tail")

        # Combined cost never exceeds execution time by much (the gap is
        # compute time, which must be non-negative up to noise).
        e = dict(exec_t)
        over = [
            x for x, y in combined
            if x in e and y > e[x] * 1.05 + 1e-9
        ]
        if over:
            problems.append(
                f"{label}: TM+WT exceeds execution time at grains {over[:4]}"
            )
    return problems
