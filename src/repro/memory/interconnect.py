"""On-chip (OCI) and chip-to-chip (ICI) interconnect models.

The OCI carries traffic between CMEM and the TensorCore-local VMEM; the two
ICI links connect TPUs into a ring for multi-device inference.  Both are
modelled as bandwidth pipes with a fixed latency, sufficient for the
tile-granular transfers the mapping engine schedules.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class OCIConfig:
    """On-chip interconnect between CMEM and VMEM."""

    bandwidth_bytes_per_cycle: float = 2048.0
    latency_cycles: int = 24

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_cycle <= 0:
            raise ValueError("bandwidth must be positive")
        if self.latency_cycles < 0:
            raise ValueError("latency must be non-negative")


class OnChipInterconnect:
    """Bandwidth model of the CMEM↔VMEM on-chip interconnect."""

    def __init__(self, config: OCIConfig | None = None) -> None:
        self.config = config if config is not None else OCIConfig()

    def transfer_cycles(self, num_bytes: float) -> float:
        """Cycles to move ``num_bytes`` between CMEM and VMEM."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        if num_bytes == 0:
            return 0.0
        return num_bytes / self.config.bandwidth_bytes_per_cycle + self.config.latency_cycles


@dataclass(frozen=True)
class ICILink:
    """One chip-to-chip interconnect link (TPUv4i has two per chip)."""

    bandwidth_gbps: float = 100.0
    frequency_ghz: float = 1.05
    latency_us: float = 1.0

    def __post_init__(self) -> None:
        if self.bandwidth_gbps <= 0 or self.frequency_ghz <= 0:
            raise ValueError("bandwidth and frequency must be positive")
        if self.latency_us < 0:
            raise ValueError("latency must be non-negative")

    @property
    def bytes_per_cycle(self) -> float:
        """Link bandwidth in bytes per core clock cycle."""
        return self.bandwidth_gbps * 1e9 / (self.frequency_ghz * 1e9)

    @property
    def latency_cycles(self) -> float:
        """Link latency in core clock cycles."""
        return self.latency_us * 1e-6 * self.frequency_ghz * 1e9

    def transfer_cycles(self, num_bytes: float) -> float:
        """Cycles to push ``num_bytes`` across this link."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        if num_bytes == 0:
            return 0.0
        return num_bytes / self.bytes_per_cycle + self.latency_cycles


@dataclass(frozen=True)
class RingTopology:
    """A ring of TPUs connected through their two ICI links.

    The paper's multi-device evaluation interconnects up to four TPUs in a
    ring (the TPUv4i default), using pipeline parallelism between stages and
    optionally tensor parallelism within a stage.
    """

    num_devices: int
    link: ICILink = ICILink()

    def __post_init__(self) -> None:
        if self.num_devices <= 0:
            raise ValueError("a ring needs at least one device")

    def point_to_point_cycles(self, num_bytes: float) -> float:
        """Cycles to send a message to the ring neighbour (one hop)."""
        if self.num_devices == 1:
            return 0.0
        return self.link.transfer_cycles(num_bytes)

    def all_reduce_cycles(self, num_bytes: float) -> float:
        """Cycles for a ring all-reduce of ``num_bytes`` per device.

        The standard ring algorithm moves ``2·(n−1)/n`` of the payload across
        each link, in ``2·(n−1)`` latency-bound steps.
        """
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        n = self.num_devices
        if n == 1 or num_bytes == 0:
            return 0.0
        steps = 2 * (n - 1)
        chunk = num_bytes / n
        per_step = chunk / self.link.bytes_per_cycle + self.link.latency_cycles
        return steps * per_step
