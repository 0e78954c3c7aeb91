"""A SCALE-Sim-compatible front end over the analytical systolic model.

SCALE-Sim [26] consumes a hardware configuration (array dimensions, SRAM
sizes, dataflow) and a layer topology file (one GEMM/conv layer per row) and
reports per-layer cycles, utilisation and SRAM traffic.  The paper uses it to
evaluate the baseline systolic MXU.  This module re-creates that front end on
top of :mod:`repro.systolic.dataflows` so that the baseline evaluation flow of
the paper can be reproduced verbatim (including topology-file style input),
while the chip-level simulator uses the richer :class:`DigitalMXU` interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common import Precision, ceil_div
from repro.systolic.dataflows import Dataflow, systolic_gemm_cycles


@dataclass(frozen=True)
class ScaleSimConfig:
    """Hardware configuration in SCALE-Sim terms."""

    array_rows: int = 128
    array_cols: int = 128
    ifmap_sram_kb: int = 1024
    filter_sram_kb: int = 1024
    ofmap_sram_kb: int = 1024
    dataflow: Dataflow = Dataflow.WEIGHT_STATIONARY
    precision: Precision = Precision.INT8

    def __post_init__(self) -> None:
        if self.array_rows <= 0 or self.array_cols <= 0:
            raise ValueError("array dimensions must be positive")
        for name in ("ifmap_sram_kb", "filter_sram_kb", "ofmap_sram_kb"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class GemmLayerSpec:
    """One row of a SCALE-Sim GEMM topology file."""

    name: str
    m: int
    k: int
    n: int

    def __post_init__(self) -> None:
        if self.m <= 0 or self.k <= 0 or self.n <= 0:
            raise ValueError(f"layer '{self.name}' has non-positive dimensions")


@dataclass(frozen=True)
class ScaleSimLayerReport:
    """Per-layer results in the style of SCALE-Sim's COMPUTE_REPORT."""

    name: str
    total_cycles: int
    stall_cycles: int
    overall_utilization: float
    mapping_efficiency: float
    sram_ifmap_reads: int
    sram_filter_reads: int
    sram_ofmap_writes: int


@dataclass
class ScaleSimReport:
    """Aggregated results over a topology sweep."""

    config: ScaleSimConfig
    layers: list[ScaleSimLayerReport] = field(default_factory=list)

    @property
    def total_cycles(self) -> int:
        """Sum of per-layer cycles."""
        return sum(layer.total_cycles for layer in self.layers)

    @property
    def average_utilization(self) -> float:
        """Cycle-weighted average utilisation across the topology."""
        total = self.total_cycles
        if total == 0:
            return 0.0
        weighted = sum(layer.overall_utilization * layer.total_cycles for layer in self.layers)
        return weighted / total


def _mapping_efficiency(m: int, k: int, n: int, rows: int, cols: int, dataflow: Dataflow) -> float:
    """Fraction of the array's MACs occupied by useful work across folds."""
    if dataflow is Dataflow.OUTPUT_STATIONARY:
        row_dim, col_dim = m, n
    else:
        row_dim, col_dim = k, n
    row_folds = ceil_div(row_dim, rows)
    col_folds = ceil_div(col_dim, cols)
    used = row_dim * col_dim
    allocated = row_folds * rows * col_folds * cols
    return used / allocated


def run_scale_sim(config: ScaleSimConfig, topology: list[GemmLayerSpec]) -> ScaleSimReport:
    """Run the analytical model over every layer of a GEMM topology."""
    report = ScaleSimReport(config=config)
    for layer in topology:
        breakdown = systolic_gemm_cycles(
            layer.m, layer.k, layer.n, config.array_rows, config.array_cols, config.dataflow)
        operand_bytes = config.precision.bytes
        ifmap_reads = layer.m * layer.k * operand_bytes * ceil_div(layer.n, config.array_cols)
        filter_reads = layer.k * layer.n * operand_bytes
        ofmap_writes = layer.m * layer.n * config.precision.accumulator_bytes
        stall_cycles = breakdown.weight_load_cycles + breakdown.fill_drain_cycles
        report.layers.append(ScaleSimLayerReport(
            name=layer.name,
            total_cycles=breakdown.total_cycles,
            stall_cycles=min(stall_cycles, breakdown.total_cycles),
            overall_utilization=breakdown.utilization,
            mapping_efficiency=_mapping_efficiency(
                layer.m, layer.k, layer.n, config.array_rows, config.array_cols, config.dataflow),
            sram_ifmap_reads=ifmap_reads,
            sram_filter_reads=filter_reads,
            sram_ofmap_writes=ofmap_writes,
        ))
    return report


def transformer_gemm_topology(batch: int, seq_len: int, d_model: int,
                              d_ff: int) -> list[GemmLayerSpec]:
    """Convenience generator: the GEMM topology of one Transformer layer.

    This mirrors the topology files the paper feeds to SCALE-Sim for the
    standalone MXU evaluation (QKV generation, output projection, both FFN
    matmuls), with the token dimension flattened over the batch.
    """
    tokens = batch * seq_len
    return [
        GemmLayerSpec("layer_qkv", tokens, d_model, 3 * d_model),
        GemmLayerSpec("layer_proj", tokens, d_model, d_model),
        GemmLayerSpec("layer_ffn1", tokens, d_model, d_ff),
        GemmLayerSpec("layer_ffn2", tokens, d_ff, d_model),
    ]
