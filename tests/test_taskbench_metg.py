"""The METG sweep and bisection."""

import pytest

from repro.core.characterize import default_partition_sweep
from repro.taskbench.metg import (
    DEFAULT_GRAINS,
    EfficiencyPoint,
    MetgResult,
    efficiency_curve,
    measure_efficiency,
    metg,
)
from repro.taskbench.patterns import TaskBenchSpec

SPEC = TaskBenchSpec(pattern="stencil_1d", width=16, steps=6)
KW = dict(platform="haswell", num_cores=4, scheduler="priority-local", seed=0)


class TestGrainSweep:
    """METG's default sweep is :func:`default_partition_sweep`'s grid."""

    def test_strictly_increasing_with_endpoints(self):
        sweep = DEFAULT_GRAINS
        assert sweep[0] == 200
        assert sweep[-1] == 100_000
        assert all(a < b for a, b in zip(sweep, sweep[1:]))
        # ~2.7 decades at 3/decade plus the forced endpoint
        assert 8 <= len(sweep) <= 10

    def test_degenerate_single_point(self):
        assert default_partition_sweep(500, finest=500) == [500]

    def test_validation(self):
        with pytest.raises(ValueError, match="finest"):
            default_partition_sweep(100, finest=0)
        with pytest.raises(ValueError, match="finest"):
            default_partition_sweep(100, finest=200)
        with pytest.raises(ValueError, match="per_decade"):
            default_partition_sweep(2_000, finest=200, points_per_decade=0)


class TestEfficiencyCurve:
    def test_efficiency_rises_with_grain(self):
        curve = efficiency_curve(SPEC, [400, 4_000, 40_000], **KW)
        assert [p.grain for p in curve] == [400, 4_000, 40_000]
        for p in curve:
            assert 0.0 <= p.efficiency <= 1.0
            assert p.efficiency == pytest.approx(1.0 - p.idle_rate)
            assert p.tasks_executed == SPEC.total_tasks
        assert curve[-1].efficiency > curve[0].efficiency

    def test_distributed_path(self):
        point = measure_efficiency(
            TaskBenchSpec(pattern="stencil_1d", width=8, steps=4),
            20_000,
            platform="haswell",
            num_cores=2,
            scheduler="priority-local",
            seed=0,
            num_localities=2,
        )
        assert 0.0 <= point.efficiency <= 1.0
        assert point.tasks_executed == 32


class TestMetg:
    def test_bracketed_crossing(self):
        result = metg(SPEC, target=0.5, **KW)
        assert isinstance(result, MetgResult)
        assert result.grain is not None
        # the reported grain really does meet the target...
        assert result.efficiency_at(result.grain) >= 0.5
        # ...and the interpolated crossing sits at or below it, inside the
        # measured curve's range
        assert result.curve[0].grain <= result.interpolated_grain
        assert result.interpolated_grain <= result.grain
        # bisection refined beyond the coarse sweep
        assert len(result.curve) > len(DEFAULT_GRAINS)

    def test_target_never_reached(self):
        result = metg(SPEC, target=0.9, grains=[200, 400], **KW)
        assert result.grain is None
        assert result.interpolated_grain is None
        assert "not reached" in result.summary()

    def test_finest_grain_already_passes(self):
        result = metg(SPEC, target=0.5, grains=[50_000, 100_000], **KW)
        assert result.grain == 50_000
        assert result.interpolated_grain == 50_000.0
        assert len(result.curve) == 2  # nothing to bisect

    def test_deterministic(self):
        a = metg(SPEC, **KW)
        b = metg(SPEC, **KW)
        assert a == b

    def test_more_cores_coarser_metg(self):
        narrow = metg(SPEC, **{**KW, "num_cores": 1})
        wide = metg(SPEC, **{**KW, "num_cores": 8})
        assert wide.interpolated_grain >= narrow.interpolated_grain

    def test_validation(self):
        with pytest.raises(ValueError, match="target"):
            metg(SPEC, target=1.5, **KW)
        with pytest.raises(ValueError, match="rel_tol"):
            metg(SPEC, rel_tol=0.0, **KW)

    def test_efficiency_at_unknown_grain(self):
        result = metg(SPEC, grains=[50_000, 100_000], **KW)
        with pytest.raises(KeyError):
            result.efficiency_at(123)

    def test_summary_mentions_the_configuration(self):
        text = metg(SPEC, **KW).summary()
        assert "stencil_1d" in text
        assert "4 cores" in text
        assert "haswell" in text


class TestEfficiencyPoint:
    def test_frozen_value_object(self):
        p = EfficiencyPoint(1_000, 0.5, 0.5, 123, 96)
        with pytest.raises(AttributeError):
            p.grain = 2_000
