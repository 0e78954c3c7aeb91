"""Tests for the SRAM buffer model (VMEM / CMEM)."""

import pytest

from repro.memory.sram import SRAMBuffer, SRAMConfig, cmem_default, vmem_default


class TestConfig:
    def test_defaults(self):
        vmem = vmem_default()
        cmem = cmem_default()
        assert vmem.capacity_bytes == 16 * 2**20
        assert cmem.capacity_bytes == 128 * 2**20

    def test_validation(self):
        with pytest.raises(ValueError):
            SRAMConfig(name="", capacity_bytes=10, read_bytes_per_cycle=1, write_bytes_per_cycle=1)
        with pytest.raises(ValueError):
            SRAMConfig(name="x", capacity_bytes=0, read_bytes_per_cycle=1, write_bytes_per_cycle=1)
        with pytest.raises(ValueError):
            SRAMConfig(name="x", capacity_bytes=10, read_bytes_per_cycle=0, write_bytes_per_cycle=1)


class TestTiming:
    def setup_method(self):
        self.buffer = SRAMBuffer(SRAMConfig(name="test", capacity_bytes=1024,
                                            read_bytes_per_cycle=64, write_bytes_per_cycle=32))

    def test_read_cycles(self):
        assert self.buffer.read_cycles(640) == pytest.approx(10.0)

    def test_write_cycles(self):
        assert self.buffer.write_cycles(640) == pytest.approx(20.0)

    def test_zero_bytes_free(self):
        assert self.buffer.read_cycles(0) == 0.0

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            self.buffer.read_cycles(-1)
