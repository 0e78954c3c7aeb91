"""Tests for the OCI and ICI interconnect models."""

import pytest

from repro.memory.interconnect import ICILink, OCIConfig, OnChipInterconnect, RingTopology


class TestOCI:
    def test_transfer_cycles(self):
        oci = OnChipInterconnect(OCIConfig(bandwidth_bytes_per_cycle=1024, latency_cycles=10))
        assert oci.transfer_cycles(10240) == pytest.approx(10 + 10)

    def test_zero_bytes_free(self):
        oci = OnChipInterconnect()
        assert oci.transfer_cycles(0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            OCIConfig(bandwidth_bytes_per_cycle=0)
        with pytest.raises(ValueError):
            OnChipInterconnect().transfer_cycles(-1)


class TestICILink:
    def test_table1_bandwidth(self):
        link = ICILink()
        assert link.bandwidth_gbps == 100.0
        assert link.bytes_per_cycle == pytest.approx(100e9 / 1.05e9)

    def test_transfer_includes_latency(self):
        link = ICILink(latency_us=1.0)
        small = link.transfer_cycles(1)
        assert small >= link.latency_cycles

    def test_validation(self):
        with pytest.raises(ValueError):
            ICILink(bandwidth_gbps=0)
        with pytest.raises(ValueError):
            ICILink().transfer_cycles(-1)


class TestRingTopology:
    def test_single_device_has_no_communication(self):
        ring = RingTopology(num_devices=1)
        assert ring.all_reduce_cycles(1 << 20) == 0.0
        assert ring.point_to_point_cycles(1 << 20) == 0.0

    def test_all_reduce_volume_formula(self):
        ring = RingTopology(num_devices=4, link=ICILink(latency_us=0.0))
        num_bytes = 4 * 2**20
        expected_steps = 2 * 3
        expected = expected_steps * (num_bytes / 4) / ring.link.bytes_per_cycle
        assert ring.all_reduce_cycles(num_bytes) == pytest.approx(expected)

    def test_point_to_point_is_one_link_transfer(self):
        ring = RingTopology(num_devices=4)
        assert ring.point_to_point_cycles(1 << 20) == ring.link.transfer_cycles(1 << 20)

    def test_all_reduce_of_nothing_is_free(self):
        assert RingTopology(num_devices=4).all_reduce_cycles(0) == 0.0

    @pytest.mark.parametrize("num_devices", [2, 4, 8])
    def test_all_reduce_costs_more_than_one_hop(self, num_devices):
        ring = RingTopology(num_devices=num_devices)
        payload = 1 << 20
        assert ring.all_reduce_cycles(payload) > ring.point_to_point_cycles(payload)

    def test_all_reduce_grows_with_devices_due_to_latency(self):
        payload = 1 << 16
        two = RingTopology(num_devices=2).all_reduce_cycles(payload)
        eight = RingTopology(num_devices=8).all_reduce_cycles(payload)
        assert eight > two

    def test_validation(self):
        with pytest.raises(ValueError):
            RingTopology(num_devices=0)
        with pytest.raises(ValueError):
            RingTopology(num_devices=2).all_reduce_cycles(-1)
