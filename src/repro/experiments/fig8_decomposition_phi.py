"""Fig. 8: thread management (TM) and wait time (WT) on the Xeon Phi.

See :mod:`repro.experiments.decomposition_common` for the paper context.
"""

from __future__ import annotations

from repro.experiments.config import Scale
from repro.experiments.decomposition_common import (
    PAPER_CLAIMS,
    SERIES,
    YLABEL,
    decomposition_shape_checks,
)
from repro.experiments.harness import run_panel_figure
from repro.experiments.report import FigureResult

FIGURE_ID = "fig8"
TITLE = "HPX-Thread Management (TM) and Wait Time (WT): Intel Xeon Phi"
CORES = (16, 32, 60)

__all__ = ["FIGURE_ID", "TITLE", "PAPER_CLAIMS", "run", "shape_checks"]


def run(scale: Scale) -> FigureResult:
    return run_panel_figure(
        scale, "xeon-phi", CORES, FIGURE_ID, TITLE, YLABEL, SERIES,
        single_core_reference=True,
    )


def shape_checks(fig: FigureResult) -> list[str]:
    return decomposition_shape_checks(fig)
