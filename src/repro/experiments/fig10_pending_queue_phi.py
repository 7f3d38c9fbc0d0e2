"""Fig. 10: pending-queue accesses on the Xeon Phi.

See :mod:`repro.experiments.pending_queue_common` for the paper context.
"""

from __future__ import annotations

from repro.experiments.config import Scale
from repro.experiments.harness import run_panel_figure
from repro.experiments.pending_queue_common import (
    PAPER_CLAIMS,
    SERIES,
    YLABEL,
    pending_queue_shape_checks,
)
from repro.experiments.report import FigureResult

FIGURE_ID = "fig10"
TITLE = "Pending Queue Accesses: Intel Xeon Phi"
CORES = (16, 32, 60)

__all__ = ["FIGURE_ID", "TITLE", "PAPER_CLAIMS", "run", "shape_checks"]


def run(scale: Scale) -> FigureResult:
    return run_panel_figure(
        scale, "xeon-phi", CORES, FIGURE_ID, TITLE, YLABEL, SERIES
    )


def shape_checks(fig: FigureResult) -> list[str]:
    return pending_queue_shape_checks(fig)
