"""Unit tests for the parcel network model (repro.dist.network)."""

import pytest

from repro.dist.network import LinkParams, NetworkModel, NetworkParams


class TestParams:
    def test_link_defaults_are_commodity_cluster(self):
        link = LinkParams()
        assert link.latency_ns == 15_000
        assert link.bandwidth_bytes_per_ns == 4.0

    def test_link_validation(self):
        with pytest.raises(ValueError):
            LinkParams(latency_ns=-1)
        with pytest.raises(ValueError):
            LinkParams(bandwidth_bytes_per_ns=0.0)

    def test_network_params_validation(self):
        with pytest.raises(ValueError):
            NetworkParams(serialization_base_ns=-1)
        with pytest.raises(ValueError):
            NetworkParams(default_payload_bytes=0)


class TestCostArithmetic:
    def test_wire_bytes_adds_envelope(self):
        model = NetworkModel()
        assert model.wire_bytes(8) == 8 + 512

    def test_serialization_is_base_plus_per_byte(self):
        model = NetworkModel(
            NetworkParams(
                serialization_base_ns=1_000,
                serialization_ns_per_byte=2.0,
                parcel_header_bytes=100,
            )
        )
        assert model.serialization_ns(50) == 1_000 + 2 * 150

    def test_transfer_is_latency_plus_size_over_bandwidth(self):
        model = NetworkModel(
            NetworkParams(
                default_link=LinkParams(
                    latency_ns=10_000, bandwidth_bytes_per_ns=2.0
                ),
                parcel_header_bytes=0,
            )
        )
        assert model.transfer_ns(0, 1, 1_000) == 10_000 + 500

    def test_loopback_is_free(self):
        model = NetworkModel()
        assert model.transfer_ns(3, 3, 1 << 20) == 0

    def test_zero_network_costs_nothing(self):
        model = NetworkModel.zero()
        assert model.serialization_ns(1 << 20) == 0
        assert model.transfer_ns(0, 1, 1 << 20) == 0
        assert model.wire_bytes(64) == 64

