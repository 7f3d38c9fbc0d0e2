"""figD acceptance tests: the claims are asserted, not just plotted."""

import pytest

from repro.experiments import figD_distributed_grain as figd
from repro.experiments.config import get_scale
from tests._golden import assert_golden


@pytest.fixture(scope="module")
def smoke_figure():
    fig = figd.run(get_scale("smoke"))
    assert_golden(fig, "figD")
    return fig


class TestFigD:
    def test_shape_checks_pass_at_smoke_scale(self, smoke_figure):
        assert figd.shape_checks(smoke_figure) == []

    def test_best_grain_strictly_coarser_at_8_localities(self, smoke_figure):
        summary = next(
            panel for panel in smoke_figure.panels
            if panel.startswith("summary")
        )
        series = {
            s.label: dict(s.points) for s in smoke_figure.panels[summary]
        }
        best = series["best grain (points)"]
        assert best[8] > best[1], (
            f"best grain at 8 localities ({best[8]:.0f}) must be strictly "
            f"coarser than at 1 locality ({best[1]:.0f})"
        )

    def test_parcels_conserved_and_present(self, smoke_figure):
        summary = next(
            panel for panel in smoke_figure.panels
            if panel.startswith("summary")
        )
        series = {
            s.label: dict(s.points) for s in smoke_figure.panels[summary]
        }
        sent = series["parcels sent"]
        received = series["parcels received"]
        assert sent == received
        assert sent[1] == 0
        for loc in (2, 4, 8):
            assert sent[loc] > 0

    def test_registered_in_cli(self):
        from repro.experiments.cli import EXPERIMENT_MODULES, load_experiment

        assert "figD" in EXPERIMENT_MODULES
        assert load_experiment("figD") is figd

    def test_grain_sweep_leaves_a_partition_per_locality(self):
        scale = get_scale("smoke")
        grains = figd.grain_sweep(scale)
        assert grains == sorted(grains)
        coarsest = max(grains)
        assert scale.total_points // coarsest >= max(figd.LOCALITIES)
