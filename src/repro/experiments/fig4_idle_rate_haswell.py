"""Fig. 4: idle-rate and execution time on Haswell (8/16/28 cores).

See :mod:`repro.experiments.idle_rate_common` for the paper context.
"""

from __future__ import annotations

from repro.experiments.config import Scale
from repro.experiments.harness import run_panel_figure
from repro.experiments.idle_rate_common import (
    FIG4_CORES,
    PAPER_CLAIMS_FIG4,
    SERIES,
    YLABEL,
    idle_rate_shape_checks,
)
from repro.experiments.report import FigureResult

FIGURE_ID = "fig4"
TITLE = "Idle-rate: Intel Haswell (8/16/28 cores)"
PAPER_CLAIMS = PAPER_CLAIMS_FIG4


def run(scale: Scale) -> FigureResult:
    return run_panel_figure(
        scale, "haswell", FIG4_CORES, FIGURE_ID, TITLE, YLABEL, SERIES
    )


def shape_checks(fig: FigureResult) -> list[str]:
    return idle_rate_shape_checks(fig, fine_floor=0.55, decoupled_cores=(8, 16))
