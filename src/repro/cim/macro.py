"""Digital SRAM CIM macro model.

The macro follows the organisation in Fig. 4 of the paper: the bitcell array
is split into banks, each bank into sub-arrays with a local readout-and-compute
circuit per column pair, and an adder tree reduces the per-sub-array products
into one partial sum per output channel.  Input activations are broadcast to
all output channels in a bit-serial manner; a shift-accumulator outside the
array recombines the bit-plane partial sums.  A dedicated weight I/O port
allows SRAM writes (weight updates) to be interleaved with computation, the
property the CIM-MXU relies on to sustain systolic weight propagation.

The model is analytical: it exposes cycle counts for computing a batch of
input vectors against the stored weight block and for writing a new weight
block, plus storage/geometry book-keeping used by the grid-level model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common import Precision, ceil_div


@dataclass(frozen=True)
class CIMMacroConfig:
    """Geometry and throughput parameters of one digital CIM macro.

    The defaults describe the paper's 128×256 CIM core: 128 input channels,
    256 output channels, 128 effective MAC operations per cycle (the net
    throughput after bit-serial input processing), a 32-bit systolic input
    port and a 256-bit weight I/O port that supports writes concurrent with
    computation.

    Attributes
    ----------
    input_channels:
        Number of weight rows stored in the macro (reduction dimension).
    output_channels:
        Number of weight columns / output channels.
    macs_per_cycle:
        Net MAC throughput of the macro, already accounting for bit-serial
        input processing at the reference precision (INT8).
    banks:
        Number of banks (each producing a group of output channels).
    subarrays_per_bank:
        Bitcell sub-arrays per bank, each handling one input-channel group.
    input_port_bits:
        Width of the systolic input port (activations enter 32 b per cycle).
    weight_io_bits:
        Width of the dedicated weight read/write port.
    concurrent_weight_update:
        Whether weight writes can overlap computation (the paper's macro,
        following [24], supports this; setting it to ``False`` is used for
        ablation).
    weight_bits_per_cell:
        Stored weight bits per bitcell column group (8 for INT8 weights or
        BF16 mantissas).
    """

    input_channels: int = 128
    output_channels: int = 256
    macs_per_cycle: int = 128
    banks: int = 32
    subarrays_per_bank: int = 32
    input_port_bits: int = 32
    weight_io_bits: int = 256
    concurrent_weight_update: bool = True
    weight_bits_per_cell: int = 8

    def __post_init__(self) -> None:
        positive = (
            "input_channels", "output_channels", "macs_per_cycle", "banks",
            "subarrays_per_bank", "input_port_bits", "weight_io_bits", "weight_bits_per_cell",
        )
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.macs_per_cycle > self.input_channels * self.output_channels:
            raise ValueError("macs_per_cycle cannot exceed the stored weight count")

    @property
    def weight_capacity(self) -> int:
        """Number of weight elements stored in the macro."""
        return self.input_channels * self.output_channels

    @property
    def weight_capacity_bits(self) -> int:
        """Storage capacity of the macro in bits."""
        return self.weight_capacity * self.weight_bits_per_cell


@dataclass
class CIMMacro:
    """Analytical behaviour model of one digital CIM macro."""

    config: CIMMacroConfig

    def __init__(self, config: CIMMacroConfig | None = None) -> None:
        self.config = config if config is not None else CIMMacroConfig()

    def cycles_per_input_vector(self, used_output_channels: int | None = None,
                                precision: Precision = Precision.INT8,
                                used_input_channels: int | None = None) -> int:
        """Cycles to multiply one input vector against the stored weights.

        One input vector touches every stored weight cell that is in use:
        ``used_input_channels × used_output_channels`` MAC operations at the
        macro's net throughput.  Unused output channels and unused sub-arrays
        (input-channel groups) are clock-gated and skipped, so a partially
        filled macro finishes proportionally faster — the behaviour the
        chip-level mapping relies on when an operand does not align with the
        128×256 macro geometry.
        """
        cfg = self.config
        if used_output_channels is None:
            used_output_channels = cfg.output_channels
        if used_input_channels is None:
            used_input_channels = cfg.input_channels
        if not 0 < used_output_channels <= cfg.output_channels:
            raise ValueError(
                f"used_output_channels must be in (0, {cfg.output_channels}], got {used_output_channels}")
        if not 0 < used_input_channels <= cfg.input_channels:
            raise ValueError(
                f"used_input_channels must be in (0, {cfg.input_channels}], got {used_input_channels}")
        macs = used_input_channels * used_output_channels
        cycles = ceil_div(macs, cfg.macs_per_cycle)
        if precision is Precision.BF16:
            # BF16 keeps the same MACs/cycle in the paper's design; the
            # pre/post-processing pipeline adds a fixed alignment latency that
            # is amortised over the vector and modelled as one extra cycle.
            cycles += 1
        return cycles

    def compute_cycles(self, num_input_vectors: int, used_output_channels: int | None = None,
                       precision: Precision = Precision.INT8,
                       used_input_channels: int | None = None) -> int:
        """Cycles to stream ``num_input_vectors`` through the macro."""
        if num_input_vectors < 0:
            raise ValueError("num_input_vectors must be non-negative")
        if num_input_vectors == 0:
            return 0
        return num_input_vectors * self.cycles_per_input_vector(
            used_output_channels, precision, used_input_channels)

    def weight_write_cycles(self, rows: int | None = None, cols: int | None = None,
                            precision: Precision = Precision.INT8) -> int:
        """Cycles to write an ``rows × cols`` weight block through the weight I/O."""
        cfg = self.config
        rows = cfg.input_channels if rows is None else rows
        cols = cfg.output_channels if cols is None else cols
        if not 0 <= rows <= cfg.input_channels:
            raise ValueError(f"rows must be in [0, {cfg.input_channels}], got {rows}")
        if not 0 <= cols <= cfg.output_channels:
            raise ValueError(f"cols must be in [0, {cfg.output_channels}], got {cols}")
        bits = rows * cols * precision.mantissa_bits
        return ceil_div(bits, cfg.weight_io_bits) if bits > 0 else 0

    def input_delivery_cycles(self, num_input_vectors: int,
                              precision: Precision = Precision.INT8) -> int:
        """Cycles needed to deliver the input vectors through the 32 b port."""
        if num_input_vectors < 0:
            raise ValueError("num_input_vectors must be non-negative")
        bits = num_input_vectors * self.config.input_channels * precision.bits
        return ceil_div(bits, self.config.input_port_bits) if bits > 0 else 0

    def macs_for(self, num_input_vectors: int, used_rows: int | None = None,
                 used_cols: int | None = None) -> int:
        """Useful MACs performed for the given workload slice."""
        cfg = self.config
        used_rows = cfg.input_channels if used_rows is None else used_rows
        used_cols = cfg.output_channels if used_cols is None else used_cols
        return num_input_vectors * used_rows * used_cols
