"""Main-memory (HBM) model.

The TPUv4i attaches 8 GB of HBM delivering 614 GB/s.  The model converts byte
transfers to core clock cycles, applies an achievable-bandwidth efficiency
factor (row-buffer and refresh overheads), and reports the interface energy.
Memory coalescing — gathering strided accesses into long contiguous bursts —
is modelled as recovering most of that efficiency loss, matching the paper's
use of memory coalescing as a scheduling option.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MainMemoryConfig:
    """Static parameters of the HBM main memory."""

    capacity_bytes: int = 8 * 2**30
    bandwidth_gbps: float = 614.0
    frequency_ghz: float = 1.05
    #: Fraction of peak bandwidth achieved for long, coalesced bursts.
    coalesced_efficiency: float = 0.92
    #: Fraction of peak bandwidth achieved for short / strided accesses.
    strided_efficiency: float = 0.55
    #: Fixed request latency (cycles) hidden only by deep pipelining.
    access_latency_cycles: int = 120

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0 or self.bandwidth_gbps <= 0 or self.frequency_ghz <= 0:
            raise ValueError("capacity, bandwidth and frequency must be positive")
        for name in ("coalesced_efficiency", "strided_efficiency"):
            value = getattr(self, name)
            if not 0 < value <= 1:
                raise ValueError(f"{name} must be in (0, 1], got {value}")
        if self.access_latency_cycles < 0:
            raise ValueError("access latency must be non-negative")

    @property
    def bytes_per_cycle(self) -> float:
        """Peak bandwidth expressed in bytes per core clock cycle."""
        return self.bandwidth_gbps * 1e9 / (self.frequency_ghz * 1e9)


class MainMemory:
    """Bandwidth model of the HBM interface."""

    def __init__(self, config: MainMemoryConfig | None = None) -> None:
        self.config = config if config is not None else MainMemoryConfig()

    def transfer_cycles(self, num_bytes: float, coalesced: bool = True) -> float:
        """Cycles to move ``num_bytes`` across the HBM interface.

        ``coalesced`` selects between the long-burst and strided efficiency
        points; the fixed access latency is added once because the simulator
        issues transfers at tile granularity, which is large enough to hide
        per-beat latencies behind pipelining.
        """
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        if num_bytes == 0:
            return 0.0
        efficiency = (self.config.coalesced_efficiency if coalesced
                      else self.config.strided_efficiency)
        effective_bandwidth = self.config.bytes_per_cycle * efficiency
        return num_bytes / effective_bandwidth + self.config.access_latency_cycles

    def effective_bandwidth_gbps(self, coalesced: bool = True) -> float:
        """Achievable bandwidth in GB/s for the selected access pattern."""
        efficiency = (self.config.coalesced_efficiency if coalesced
                      else self.config.strided_efficiency)
        return self.config.bandwidth_gbps * efficiency
