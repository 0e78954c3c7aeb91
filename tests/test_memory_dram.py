"""Tests for the HBM main-memory model."""

import pytest

from repro.memory.dram import MainMemory, MainMemoryConfig


class TestConfig:
    def test_defaults_match_table1(self):
        config = MainMemoryConfig()
        assert config.capacity_bytes == 8 * 2**30
        assert config.bandwidth_gbps == 614.0

    def test_bytes_per_cycle(self):
        config = MainMemoryConfig()
        assert config.bytes_per_cycle == pytest.approx(614e9 / 1.05e9)

    def test_validation(self):
        with pytest.raises(ValueError):
            MainMemoryConfig(bandwidth_gbps=0)
        with pytest.raises(ValueError):
            MainMemoryConfig(coalesced_efficiency=1.5)
        with pytest.raises(ValueError):
            MainMemoryConfig(access_latency_cycles=-1)


class TestTransfers:
    def setup_method(self):
        self.memory = MainMemory()

    def test_zero_bytes_is_free(self):
        assert self.memory.transfer_cycles(0) == 0.0

    def test_coalesced_faster_than_strided(self):
        assert self.memory.transfer_cycles(1 << 20, coalesced=True) < \
            self.memory.transfer_cycles(1 << 20, coalesced=False)

    def test_large_transfer_dominated_by_bandwidth(self):
        num_bytes = 100 * 2**20
        cycles = self.memory.transfer_cycles(num_bytes)
        ideal = num_bytes / self.memory.config.bytes_per_cycle
        assert cycles == pytest.approx(ideal / self.memory.config.coalesced_efficiency, rel=0.01)

    def test_effective_bandwidth(self):
        assert self.memory.effective_bandwidth_gbps() == pytest.approx(614 * 0.92)
        assert self.memory.effective_bandwidth_gbps(coalesced=False) == pytest.approx(614 * 0.55)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            self.memory.transfer_cycles(-1)

    def test_transfer_cycles_monotonic_in_size(self):
        sizes = [2**10, 2**15, 2**20, 2**25]
        cycles = [self.memory.transfer_cycles(s) for s in sizes]
        assert cycles == sorted(cycles)
