"""Mapping engine: tiling, partitioning and scheduling of operators onto the TPU.

Given an operator and the hardware configuration, the mapping engine explores
how to partition the work across the chip's MXUs (along the batch, M, K or N
dimension), how to tile the operands through the CMEM/VMEM hierarchy, and
whether double buffering and memory coalescing can hide the transfers — then
returns the latency- (or energy-) optimal mapping.  The mapspace is pruned
with the same class of heuristics used by Timeloop and LLMCompass, which the
paper cites as the basis of its mapping engine.
"""

from repro.mapping.tiling import TileShape, Tiling, matmul_tile_bytes, choose_vmem_tiling
from repro.mapping.mapspace import PartitionDim, MappingCandidate, enumerate_candidates
from repro.mapping.schedule import ScheduleOptions
from repro.mapping.engine import MappingEngine, MatmulMapping, MappingObjective

__all__ = [
    "TileShape",
    "Tiling",
    "matmul_tile_bytes",
    "choose_vmem_tiling",
    "PartitionDim",
    "MappingCandidate",
    "enumerate_candidates",
    "ScheduleOptions",
    "MappingEngine",
    "MatmulMapping",
    "MappingObjective",
]
