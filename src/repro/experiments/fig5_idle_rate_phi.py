"""Fig. 5: idle-rate and execution time on the Xeon Phi (16/32/60 cores).

See :mod:`repro.experiments.idle_rate_common` for the paper context.
"""

from __future__ import annotations

from repro.experiments.config import Scale
from repro.experiments.harness import run_panel_figure
from repro.experiments.idle_rate_common import (
    FIG5_CORES,
    PAPER_CLAIMS_FIG5,
    SERIES,
    YLABEL,
    idle_rate_shape_checks,
)
from repro.experiments.report import FigureResult

FIGURE_ID = "fig5"
TITLE = "Idle-rate: Intel Xeon Phi (16/32/60 cores)"
PAPER_CLAIMS = PAPER_CLAIMS_FIG5


def run(scale: Scale) -> FigureResult:
    return run_panel_figure(
        scale, "xeon-phi", FIG5_CORES, FIGURE_ID, TITLE, YLABEL, SERIES
    )


def shape_checks(fig: FigureResult) -> list[str]:
    return idle_rate_shape_checks(fig, fine_floor=0.45, decoupled_cores=(32, 60))
