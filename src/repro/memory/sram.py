"""On-chip SRAM buffer model (VMEM and CMEM).

Both on-chip memories are modelled as banked SRAMs with a capacity, a read
bandwidth and a write bandwidth expressed in bytes per core clock cycle.
Whether a tile fits is the mapping engine's question, answered against the
buffer's capacity by :func:`repro.mapping.tiling.choose_vmem_tiling`.
"""

from __future__ import annotations

from dataclasses import dataclass



@dataclass(frozen=True)
class SRAMConfig:
    """Static parameters of one on-chip SRAM buffer."""

    name: str
    capacity_bytes: int
    read_bytes_per_cycle: float
    write_bytes_per_cycle: float
    banks: int = 16

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("SRAM buffer needs a non-empty name")
        if self.capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        if self.read_bytes_per_cycle <= 0 or self.write_bytes_per_cycle <= 0:
            raise ValueError("bandwidth must be positive")
        if self.banks <= 0:
            raise ValueError("bank count must be positive")


class SRAMBuffer:
    """A capacity- and bandwidth-constrained on-chip buffer."""

    def __init__(self, config: SRAMConfig) -> None:
        self.config = config

    # ---------------------------------------------------------------- timing
    def read_cycles(self, num_bytes: float) -> float:
        """Cycles needed to read ``num_bytes`` from the buffer."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        return num_bytes / self.config.read_bytes_per_cycle

    def write_cycles(self, num_bytes: float) -> float:
        """Cycles needed to write ``num_bytes`` into the buffer."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        return num_bytes / self.config.write_bytes_per_cycle


def vmem_default() -> SRAMConfig:
    """The TPUv4i 16 MB vector memory, wide enough to feed four MXUs."""
    return SRAMConfig(name="VMEM", capacity_bytes=16 * 2**20,
                      read_bytes_per_cycle=4096.0, write_bytes_per_cycle=4096.0, banks=128)


def cmem_default() -> SRAMConfig:
    """The TPUv4i 128 MB common memory."""
    return SRAMConfig(name="CMEM", capacity_bytes=128 * 2**20,
                      read_bytes_per_cycle=2048.0, write_bytes_per_cycle=2048.0, banks=64)
