"""Fig. 7: thread management (TM) and wait time (WT) on Haswell.

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

FIGURE_ID = "fig7"
TITLE = "HPX-Thread Management (TM) and Wait Time (WT): Intel Haswell"
CORES = (8, 16, 28)

__all__ = ["FIGURE_ID", "TITLE", "PAPER_CLAIMS", "run", "shape_checks"]


def run(scale: Scale) -> FigureResult:
    return run_panel_figure(
        scale, "haswell", CORES, FIGURE_ID, TITLE, YLABEL, SERIES,
        single_core_reference=True,
    )


def shape_checks(fig: FigureResult) -> list[str]:
    return decomposition_shape_checks(fig)
