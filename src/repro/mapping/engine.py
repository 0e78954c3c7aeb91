"""The mapping engine: choose how each operator runs on the chip.

For every matmul operator the engine enumerates the pruned partitioning
candidates (:mod:`repro.mapping.mapspace`), evaluates each one exactly against
the installed matrix-unit model, the memory hierarchy and the scheduling
options, and returns the best mapping under the selected objective (latency by
default, energy or energy-delay product for explorations).  This mirrors the
paper's "mapping engine [that] explores the performance-optimal mapping to
better utilize hardware resources".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.hw.energy import EnergyBudget
from repro.mapping.mapspace import MappingCandidate, enumerate_candidates
from repro.mapping.schedule import ScheduleOptions, overlapped_operator_latency
from repro.mapping.tiling import choose_vmem_tiling, Tiling
from repro.memory.hierarchy import MemoryHierarchy, TransferResult
from repro.vector.vpu import VectorUnit
from repro.workloads.operators import MatMulOp, OperandSource


class MappingObjective(enum.Enum):
    """Optimisation objective used to rank mapping candidates."""

    LATENCY = "latency"
    ENERGY = "energy"
    ENERGY_DELAY = "edp"


@dataclass(frozen=True)
class MatmulMapping:
    """The chosen mapping of one matmul operator and its evaluated cost."""

    op_name: str
    candidate: MappingCandidate
    tiling: Tiling
    compute_cycles: float
    weight_transfer_cycles: float
    activation_transfer_cycles: float
    reduction_cycles: float
    total_cycles: float
    mxu_busy_cycles: float
    energy: EnergyBudget
    utilization: float

    @property
    def bound(self) -> str:
        """Whether the operator is compute- or memory-bound under this mapping."""
        transfers = max(self.weight_transfer_cycles, self.activation_transfer_cycles)
        return "compute" if self.compute_cycles >= transfers else "memory"


@dataclass
class MappingEngine:
    """Maps matmul operators onto the available matrix units."""

    mxu_template: object  # DigitalMXU or CIMMXU (duck-typed: .gemm, .macs_per_cycle, ...)
    mxu_count: int
    hierarchy: MemoryHierarchy
    vpu: VectorUnit
    schedule: ScheduleOptions = field(default_factory=ScheduleOptions)
    objective: MappingObjective = MappingObjective.LATENCY

    def __post_init__(self) -> None:
        if self.mxu_count <= 0:
            raise ValueError("mxu_count must be positive")

    # ------------------------------------------------------------------ API
    def map_matmul(self, op: MatMulOp) -> MatmulMapping:
        """Evaluate every pruned candidate and return the best mapping."""
        return min(self.evaluate_all(op), key=self._score)

    def evaluate_all(self, op: MatMulOp) -> list[MatmulMapping]:
        """Evaluate every candidate (used by tests and mapping ablations)."""
        candidates = enumerate_candidates(op, self.mxu_count)
        # The operator's own memory traffic does not depend on how it is
        # split, so it is priced once; every candidate merges the shared
        # results into a budget of its own and never returns them.
        if op.weight_source is OperandSource.HBM:
            weights = self.hierarchy.hbm_to_vmem(op.weight_bytes,
                                                 self.schedule.memory_coalescing)
        else:
            weights = self.hierarchy.cmem_to_vmem(op.weight_bytes)
        activations = self.hierarchy.cmem_to_vmem(op.input_bytes + op.output_bytes)
        return [self._evaluate(op, candidate, weights, activations)
                for candidate in candidates]

    # ------------------------------------------------------------ internals
    def _score(self, mapping: MatmulMapping) -> float:
        if self.objective is MappingObjective.LATENCY:
            return mapping.total_cycles
        if self.objective is MappingObjective.ENERGY:
            return mapping.energy.total
        return mapping.energy.total * mapping.total_cycles

    def _evaluate(self, op: MatMulOp, candidate: MappingCandidate,
                  weights: TransferResult, activations: TransferResult) -> MatmulMapping:
        per_mxu = self.mxu_template.gemm(
            candidate.m, candidate.k, candidate.n, op.precision,
            stationary_weights=op.stationary_weights,
            instances=candidate.instances_per_mxu)
        compute_cycles = float(per_mxu.cycles)

        # Dynamic + busy-leakage energy across every MXU doing its share.
        energy = per_mxu.energy.scaled(candidate.mxu_count)

        # Cross-MXU reduction for K partitioning: the partial sums of all but
        # one MXU travel over the OCI and are added on the VPU.
        reduction_cycles = 0.0
        if candidate.needs_reduction:
            partial_elements = op.batch * op.m * op.n
            partial_bytes = partial_elements * op.precision.accumulator_bytes
            reduction_traffic = (candidate.mxu_count - 1) * partial_bytes
            vpu_result = self.vpu.execute(
                total_ops=(candidate.mxu_count - 1) * partial_elements,
                input_bytes=reduction_traffic, output_bytes=partial_bytes)
            oci_cycles = self.hierarchy.oci.transfer_cycles(reduction_traffic)
            reduction_cycles = max(vpu_result.cycles, oci_cycles)
            energy.merge(vpu_result.energy)
            energy.merge(self.hierarchy.cmem_to_vmem(reduction_traffic).energy)

        # Memory traffic of the operator as a whole.
        weight_transfer_cycles = weights.cycles
        activation_transfer_cycles = activations.cycles
        energy.merge(weights.energy)
        energy.merge(activations.energy)

        total_cycles = overlapped_operator_latency(
            compute_cycles, weight_transfer_cycles, activation_transfer_cycles,
            double_buffered=self.schedule.double_buffering) + reduction_cycles

        tiling = choose_vmem_tiling(
            candidate.m, candidate.k, candidate.n, op.precision,
            self.hierarchy.vmem.config.capacity_bytes,
            double_buffered=self.schedule.double_buffering)

        peak_macs_per_cycle = self.mxu_template.macs_per_cycle * candidate.mxu_count
        utilization = (op.macs / (total_cycles * peak_macs_per_cycle)
                       if total_cycles > 0 else 0.0)
        return MatmulMapping(
            op_name=op.name,
            candidate=candidate,
            tiling=tiling,
            compute_cycles=compute_cycles,
            weight_transfer_cycles=weight_transfer_cycles,
            activation_transfer_cycles=activation_transfer_cycles,
            reduction_cycles=reduction_cycles,
            total_cycles=total_cycles,
            mxu_busy_cycles=compute_cycles,
            energy=energy,
            utilization=min(1.0, utilization),
        )
