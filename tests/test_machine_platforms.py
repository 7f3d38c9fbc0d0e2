"""Unit tests for machine topology and the Table I platform database."""

import pytest

from repro.sim.machine import Machine
from repro.sim.platforms import (
    HASWELL,
    IVY_BRIDGE,
    PLATFORMS,
    SANDY_BRIDGE,
    XEON_PHI,
    get_platform,
)


class TestPlatformDatabase:
    def test_four_platforms(self):
        assert set(PLATFORMS) == {
            "sandy-bridge", "ivy-bridge", "haswell", "xeon-phi",
        }

    def test_table1_haswell(self):
        assert HASWELL.cores == 28
        assert HASWELL.clock_ghz == 2.3
        assert HASWELL.turbo_ghz == 3.3
        assert HASWELL.l2_bytes == 256 * 1024
        assert HASWELL.shared_l3_bytes == 35 * 1024 * 1024
        assert HASWELL.ram_bytes == 128 * 1024**3

    def test_table1_xeon_phi(self):
        assert XEON_PHI.cores == 61
        assert XEON_PHI.clock_ghz == 1.2
        assert XEON_PHI.hardware_threads_per_core == 4
        assert XEON_PHI.l2_bytes == 512 * 1024
        assert XEON_PHI.shared_l3_bytes is None
        assert XEON_PHI.ram_bytes == 8 * 1024**3

    def test_table1_sandy_bridge(self):
        assert SANDY_BRIDGE.cores == 16
        assert SANDY_BRIDGE.clock_ghz == 2.9
        assert SANDY_BRIDGE.turbo_ghz == 3.8
        assert SANDY_BRIDGE.shared_l3_bytes == 20 * 1024 * 1024

    def test_table1_ivy_bridge(self):
        assert IVY_BRIDGE.cores == 20
        assert IVY_BRIDGE.clock_ghz == 2.3
        assert IVY_BRIDGE.shared_l3_bytes == 35 * 1024 * 1024

    def test_aliases(self):
        assert get_platform("hw") is HASWELL
        assert get_platform("KNC") is XEON_PHI
        assert get_platform("phi") is XEON_PHI
        assert get_platform("sb") is SANDY_BRIDGE
        assert get_platform("Haswell".lower()) is HASWELL

    def test_unknown_platform_raises(self):
        with pytest.raises(KeyError, match="unknown platform"):
            get_platform("skylake")

    def test_calibration_anchor_haswell(self):
        # Sec. IV-A: 12,500 points take ~21 us on one Haswell core.  The
        # per-point calibration must place the raw compute time in that
        # neighbourhood (cache/interference factors move it at most ~30%).
        raw_us = 12_500 * HASWELL.costs.per_point_ns / 1e3
        assert 10 < raw_us < 30

    def test_calibration_anchor_phi(self):
        # Sec. IV-A: the same partition takes ~1.1 ms on a Phi core.
        raw_ms = 12_500 * XEON_PHI.costs.per_point_ns / 1e6
        assert 0.7 < raw_ms < 1.6

    def test_fig3_core_counts_within_platform(self):
        for spec in PLATFORMS.values():
            assert spec.fig3_core_counts
            assert max(spec.fig3_core_counts) <= spec.cores
            assert min(spec.fig3_core_counts) == 1


class TestMachine:
    def test_full_haswell_topology(self):
        m = Machine(HASWELL, 28)
        assert len(m.cores) == 28
        assert len(m.domains) == 2
        assert len(m.domains[0].core_indices) == 14
        assert len(m.domains[1].core_indices) == 14

    def test_cores_fill_domains_contiguously(self):
        m = Machine(HASWELL, 16)
        # 14 cores in domain 0, then 2 spill into domain 1.
        assert m.domain_of(0) == 0
        assert m.domain_of(13) == 0
        assert m.domain_of(14) == 1
        assert m.domain_of(15) == 1

    def test_single_core(self):
        m = Machine(HASWELL, 1)
        assert len(m.domains) == 1
        assert m.same_domain_cores(0) == ()
        assert m.remote_domain_cores(0) == ()

    def test_same_domain_excludes_self(self):
        m = Machine(HASWELL, 4)
        assert m.same_domain_cores(2) == (0, 1, 3)

    def test_remote_domain_cores(self):
        m = Machine(HASWELL, 16)
        assert m.remote_domain_cores(0) == (14, 15)
        assert set(m.remote_domain_cores(15)) == set(range(14))

    def test_phi_single_domain(self):
        m = Machine(XEON_PHI, 60)
        assert len(m.domains) == 1
        assert len(m.same_domain_cores(30)) == 59
        assert m.remote_domain_cores(30) == ()

    def test_invalid_core_counts(self):
        with pytest.raises(ValueError):
            Machine(HASWELL, 0)
        with pytest.raises(ValueError):
            Machine(HASWELL, 29)

    def test_domains_by_index_missing(self):
        m = Machine(HASWELL, 4)
        with pytest.raises(KeyError):
            m.domains_by_index(1)
