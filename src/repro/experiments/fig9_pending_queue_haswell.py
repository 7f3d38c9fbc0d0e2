"""Fig. 9: pending-queue accesses on Haswell.

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

FIGURE_ID = "fig9"
TITLE = "Pending Queue Accesses: Intel Haswell"
CORES = (8, 16, 28)

__all__ = ["FIGURE_ID", "TITLE", "PAPER_CLAIMS", "run", "shape_checks"]


def run(scale: Scale) -> FigureResult:
    return run_panel_figure(
        scale, "haswell", CORES, FIGURE_ID, TITLE, YLABEL, SERIES
    )


def shape_checks(fig: FigureResult) -> list[str]:
    return pending_queue_shape_checks(fig)
