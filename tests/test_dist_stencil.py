"""Tests for the distributed stencil (repro.apps.stencil1d_dist)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.apps.stencil1d import initial_condition, serial_reference
from repro.apps.stencil1d_dist import (
    DistStencilConfig,
    run_dist_stencil,
)
from repro.dist import DistConfig


class TestDecomposition:
    def test_owners_are_contiguous_blocks(self):
        config = DistStencilConfig(
            total_points=1 << 12, partition_points=256, time_steps=1
        )
        owners = config.owners(4)
        assert len(owners) == config.num_partitions
        assert owners == sorted(owners)
        # Evenly sized blocks: 16 partitions over 4 localities.
        assert [owners.count(loc) for loc in range(4)] == [4, 4, 4, 4]

    def test_uneven_blocks_differ_by_at_most_one(self):
        config = DistStencilConfig(
            total_points=10 * 257, partition_points=257, time_steps=1
        )
        owners = config.owners(4)  # 10 partitions over 4 localities
        counts = [owners.count(loc) for loc in range(4)]
        assert counts == [3, 3, 2, 2]

    def test_more_localities_than_partitions_rejected(self):
        config = DistStencilConfig(
            total_points=1 << 12, partition_points=1 << 12, time_steps=1
        )
        with pytest.raises(ValueError, match="localities"):
            config.owners(2)

    def test_rejection_names_the_coarsest_usable_grain(self):
        config = DistStencilConfig(
            total_points=1000, partition_points=600, time_steps=1
        )
        with pytest.raises(ValueError, match="partition_points=333$"):
            config.owners(4)
        # 333 points per partition still give 4 partitions; 334 give 3.
        covering = replace(config, partition_points=333).owners(4)
        assert sorted(set(covering)) == [0, 1, 2, 3]
        with pytest.raises(ValueError, match="partition_points=333$"):
            replace(config, partition_points=334).owners(4)
        few = DistStencilConfig(total_points=3, partition_points=1, time_steps=1)
        with pytest.raises(ValueError, match="partition_points=1 gives only 3"):
            few.owners(4)


class TestValidatedRun:
    def test_matches_serial_reference_across_localities(self):
        config = DistStencilConfig(
            total_points=2_048,
            partition_points=256,
            time_steps=4,
            validate=True,
        )
        outcome = run_dist_stencil(
            DistConfig(num_localities=4, cores_per_locality=2, seed=3), config
        )
        expected = serial_reference(
            initial_condition(config.total_points),
            config.time_steps,
            config.heat_coefficient,
        )
        np.testing.assert_allclose(
            outcome.final_array(), expected, rtol=0, atol=1e-12
        )

    def test_two_partition_ring_ships_both_edges(self):
        # NP == L == 2: each partition is BOTH neighbours of the other, so
        # the same source future must ship two different edge projections.
        config = DistStencilConfig(
            total_points=512,
            partition_points=256,
            time_steps=3,
            validate=True,
        )
        outcome = run_dist_stencil(
            DistConfig(num_localities=2, cores_per_locality=2, seed=0), config
        )
        expected = serial_reference(
            initial_condition(config.total_points),
            config.time_steps,
            config.heat_coefficient,
        )
        np.testing.assert_allclose(
            outcome.final_array(), expected, rtol=0, atol=1e-12
        )
        # 2 boundaries * 2 directions * 3 steps.
        assert outcome.result.parcels_sent == 12


class TestParcelAccounting:
    def run_tokens(self, num_localities, steps=4):
        return run_dist_stencil(
            DistConfig(
                num_localities=num_localities, cores_per_locality=2, seed=0
            ),
            DistStencilConfig(
                total_points=1 << 14, partition_points=1 << 10, time_steps=steps
            ),
        ).result

    def test_single_locality_never_touches_the_network(self):
        result = self.run_tokens(1)
        assert result.parcels_sent == 0
        assert result.parcels_received == 0
        assert result.network_wait_ns == 0

    def test_parcels_are_two_per_boundary_per_step(self):
        for num_localities in (2, 4):
            result = self.run_tokens(num_localities, steps=4)
            assert result.parcels_sent == 2 * num_localities * 4
            assert result.parcels_sent == result.parcels_received

    def test_per_locality_counters_balance(self):
        result = self.run_tokens(4, steps=3)
        for loc in range(4):
            sent = result.counters.get(
                f"/parcels{{locality#{loc}/total}}/count/sent"
            )
            received = result.counters.get(
                f"/parcels{{locality#{loc}/total}}/count/received"
            )
            # The ring is symmetric: every locality sends and receives 2
            # halos per step.
            assert sent == received == 2 * 3

    def test_agas_misses_count_neighbours_and_hits_the_rest(self):
        steps = 5
        result = self.run_tokens(4, steps=steps)
        # Each locality resolves its two neighbour partitions' gids once
        # (the misses), then hits the cache for the remaining steps.
        assert result.agas_cache_misses == 2 * 4
        assert result.agas_cache_hits == 2 * 4 * (steps - 1)
