"""Two-level memory hierarchy with memory coalescing.

The hierarchy mirrors the TPUv4i (and the paper's CIM-based TPU, which keeps
it unchanged): HBM → CMEM → VMEM → compute units.  The mapping engine asks
this model two questions for every scheduled tile:

* how many cycles does it take to stage the tile's operands (and drain its
  results) at each level, and
* what is the resulting energy.

Whether those cycles overlap computation (double buffering) is decided by
:func:`repro.mapping.schedule.overlapped_operator_latency`.  Memory
coalescing chooses the long-burst HBM efficiency point.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.energy import EnergyBudget, EnergyModel
from repro.memory.dram import MainMemory, MainMemoryConfig
from repro.memory.interconnect import OCIConfig, OnChipInterconnect
from repro.memory.sram import SRAMBuffer, SRAMConfig, cmem_default, vmem_default


#: The levels a transfer can join, in hierarchy order.
LEVELS = ("hbm", "cmem", "vmem", "compute")


@dataclass(frozen=True)
class TransferRequest:
    """A data movement request between two adjacent levels of the hierarchy."""

    num_bytes: float
    source: str
    destination: str
    coalesced: bool = True

    def __post_init__(self) -> None:
        if self.num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        if self.source not in LEVELS or self.destination not in LEVELS:
            raise ValueError(
                f"source/destination must be one of {LEVELS}, "
                f"got {self.source!r} → {self.destination!r}")
        if self.source == self.destination:
            raise ValueError("source and destination must differ")


@dataclass(frozen=True)
class TransferResult:
    """Cycles and energy of one hierarchy transfer."""

    cycles: float
    energy: EnergyBudget


class MemoryHierarchy:
    """HBM → CMEM → VMEM hierarchy shared by all TPU variants in the model."""

    def __init__(self,
                 vmem: SRAMConfig | None = None,
                 cmem: SRAMConfig | None = None,
                 main_memory: MainMemoryConfig | None = None,
                 oci: OCIConfig | None = None,
                 energy_model: EnergyModel | None = None) -> None:
        self.vmem = SRAMBuffer(vmem if vmem is not None else vmem_default())
        self.cmem = SRAMBuffer(cmem if cmem is not None else cmem_default())
        self.main_memory = MainMemory(main_memory)
        self.oci = OnChipInterconnect(oci)
        self.energy_model = energy_model if energy_model is not None else EnergyModel()

    # ---------------------------------------------------------------- timing
    def transfer(self, request: TransferRequest) -> TransferResult:
        """Evaluate one transfer between adjacent (or bridged) levels."""
        return self._walk(request.num_bytes, _PATHS[request.source, request.destination],
                          request.coalesced)

    def hbm_to_cmem(self, num_bytes: float, coalesced: bool = True) -> TransferResult:
        """Stage data from HBM into CMEM."""
        return self._walk(num_bytes, _PATHS["hbm", "cmem"], coalesced)

    def cmem_to_vmem(self, num_bytes: float) -> TransferResult:
        """Stage data from CMEM into VMEM over the OCI."""
        return self._walk(num_bytes, _PATHS["cmem", "vmem"], True)

    def hbm_to_vmem(self, num_bytes: float, coalesced: bool = True) -> TransferResult:
        """Stream data from HBM through CMEM into VMEM."""
        return self._walk(num_bytes, _PATHS["hbm", "vmem"], coalesced)

    def vmem_to_cmem(self, num_bytes: float) -> TransferResult:
        """Drain results from VMEM back into CMEM."""
        return self._walk(num_bytes, _PATHS["vmem", "cmem"], True)

    def _walk(self, num_bytes: float, hops: tuple, coalesced: bool) -> TransferResult:
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        cycles = 0.0
        energy = EnergyBudget()
        for hop in hops:
            # Hops are pipelined: a long transfer streams through intermediate
            # buffers, so the slowest hop dominates rather than the sum.
            cycles = max(cycles, hop(self, num_bytes, coalesced, energy))
        return TransferResult(cycles=cycles, energy=energy)

    # Each hop adds its energy into the transfer's budget and returns its
    # cycles; the direction of a hop changes neither.
    def _hbm_cmem(self, num_bytes: float, coalesced: bool, energy: EnergyBudget) -> float:
        energy.add_dynamic("hbm", self.energy_model.hbm_access_energy(num_bytes))
        energy.add_dynamic("cmem", self.energy_model.cmem_access_energy(num_bytes))
        return self.main_memory.transfer_cycles(num_bytes, coalesced)

    def _cmem_vmem(self, num_bytes: float, coalesced: bool, energy: EnergyBudget) -> float:
        energy.add_dynamic("cmem", self.energy_model.cmem_access_energy(num_bytes))
        energy.add_dynamic("vmem", self.energy_model.vmem_access_energy(num_bytes))
        return max(self.oci.transfer_cycles(num_bytes),
                   self.cmem.read_cycles(num_bytes),
                   self.vmem.write_cycles(num_bytes))

    def _vmem_compute(self, num_bytes: float, coalesced: bool, energy: EnergyBudget) -> float:
        energy.add_dynamic("vmem", self.energy_model.vmem_access_energy(num_bytes))
        return self.vmem.read_cycles(num_bytes)


#: The hop between each level of ``LEVELS`` and the next one down.
_ADJACENT = (MemoryHierarchy._hbm_cmem, MemoryHierarchy._cmem_vmem,
             MemoryHierarchy._vmem_compute)
#: ``(source, destination)`` -> the hops a transfer walks, in walk order.
_PATHS = {
    (LEVELS[i], LEVELS[j]): tuple(
        _ADJACENT[hop] for hop in (range(i, j) if i < j else range(i - 1, j - 1, -1)))
    for i in range(len(LEVELS)) for j in range(len(LEVELS)) if i != j}
