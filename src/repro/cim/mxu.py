"""CIM-MXU: a systolic grid of CIM cores replacing the digital MXU.

The CIM-MXU (Fig. 4 of the paper) arranges ``grid_rows × grid_cols`` CIM
cores in a two-dimensional systolic array.  Rows of the grid cover the GEMM
reduction dimension (each core stores ``input_channels`` weight rows), columns
of the grid cover the output dimension (each core produces
``output_channels`` outputs).  Inputs propagate systolically along the grid
rows; weights propagate along the grid columns through the cores' dedicated
weight I/O ports, concurrently with computation; outputs are accumulated in
an output-stationary fashion wave by wave.

Compared with the digital systolic array the model captures the two effects
the paper attributes the CIM benefits to:

* inside a core, the input vector is broadcast to all output channels, so a
  GEMV does not pay the ``R + C − 2`` array-traversal skew of a MAC-grid
  systolic array — only the much smaller grid-level skew; and
* weight updates stream through the weight I/O concurrently with computation,
  so low-reuse operands (attention score/value matrices) do not stall the
  array; the visible cost per fold is ``max(compute, weight-write)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common import Precision, ceil_div
from repro.cim.core import CIMCore
from repro.cim.macro import CIMMacro, CIMMacroConfig
from repro.hw.area import AreaModel
from repro.hw.energy import EnergyBudget, EnergyModel
from repro.systolic.systolic_array import MXUComputeResult
from repro.workloads.operators import MatMulOp


@dataclass(frozen=True)
class CIMCycleBreakdown:
    """Cycle breakdown of one (possibly batched) GEMM executed on a CIM-MXU."""

    total_cycles: int
    compute_cycles: int
    weight_write_cycles: int
    hidden_weight_write_cycles: int
    grid_fill_cycles: int
    k_folds: int
    n_folds: int
    instances: int
    packed_instances: int
    macs: int
    utilization: float


@dataclass(frozen=True)
class CIMMXUConfig:
    """Static configuration of one CIM-MXU.

    Attributes
    ----------
    grid_rows, grid_cols:
        Dimensions of the CIM-core grid.  The paper's default is 16×8; the
        design-space exploration (Table IV) also uses 8×8 and 16×16.
    core:
        Geometry of each CIM core (default 128×256).
    frequency_ghz:
        Clock frequency (matched to the baseline TPU for fair comparison).
    overlap_weight_update:
        Whether weight writes overlap computation (the paper's design point).
        Disabling it serialises compute and weight update for ablation.
    """

    grid_rows: int = 16
    grid_cols: int = 8
    core: CIMMacroConfig = field(default_factory=CIMMacroConfig)
    frequency_ghz: float = 1.05
    overlap_weight_update: bool = True

    def __post_init__(self) -> None:
        if self.grid_rows <= 0 or self.grid_cols <= 0:
            raise ValueError("CIM grid dimensions must be positive")
        if self.frequency_ghz <= 0:
            raise ValueError("frequency must be positive")

    @property
    def core_count(self) -> int:
        """Number of CIM cores in the grid."""
        return self.grid_rows * self.grid_cols

    @property
    def macs_per_cycle(self) -> int:
        """Peak MAC throughput of the whole CIM-MXU."""
        return self.core_count * self.core.macs_per_cycle

    @property
    def k_extent(self) -> int:
        """Reduction-dimension coverage of one weight load (grid rows × core rows)."""
        return self.grid_rows * self.core.input_channels

    @property
    def n_extent(self) -> int:
        """Output-dimension coverage of one weight load (grid cols × core cols)."""
        return self.grid_cols * self.core.output_channels

    @property
    def weight_capacity_bytes(self) -> int:
        """Total weight storage across the grid, in bytes."""
        return self.core_count * self.core.weight_capacity_bits // 8

    @property
    def peak_tops(self) -> float:
        """Peak INT8 TOPS of the CIM-MXU."""
        return 2.0 * self.macs_per_cycle * self.frequency_ghz * 1e9 / 1e12


@dataclass
class CIMMXU:
    """A CIM-based matrix multiply unit (drop-in replacement for DigitalMXU)."""

    config: CIMMXUConfig = field(default_factory=CIMMXUConfig)
    energy_model: EnergyModel = field(default_factory=EnergyModel)
    area_model: AreaModel = field(default_factory=AreaModel)

    def __post_init__(self) -> None:
        macro = CIMMacro(self.config.core)
        self._core = CIMCore(macro=macro, energy_model=self.energy_model,
                             area_model=self.area_model)
        # Every GEMM and idle interval charges this power, which depends on
        # the configuration alone.
        self._leakage_power_w = self._core.leakage_power_w * self.config.core_count

    @property
    def name(self) -> str:
        """Short descriptor used in reports."""
        return f"cim-{self.config.grid_rows}x{self.config.grid_cols}"

    @property
    def core(self) -> CIMCore:
        """The CIM core replicated across the grid."""
        return self._core

    @property
    def macs_per_cycle(self) -> int:
        """Peak MAC throughput of this MXU."""
        return self.config.macs_per_cycle

    @staticmethod
    def supported_operator_types() -> tuple[type, ...]:
        """Capability declaration consumed by the execution-unit registry."""
        return (MatMulOp,)

    @property
    def area_mm2(self) -> float:
        """Silicon area of this MXU."""
        return self.area_model.cim_mxu_area(self.config.grid_rows, self.config.grid_cols)

    @property
    def leakage_power_w(self) -> float:
        """Static power of this MXU (per-core leakage × core count)."""
        return self._leakage_power_w

    # ------------------------------------------------------------------ timing
    def instance_packing(self, k: int, n: int) -> int:
        """How many independent GEMM instances fit on the grid concurrently.

        When an instance's reduction dimension fits in a subset of the grid
        rows and its output dimension in a subset of the grid columns (the
        attention matmuls of both LLM decode and DiT), the remaining cores can
        host further instances: every grid row has its own systolic input port
        and every core its own weight I/O, so instances mapped to disjoint
        cores proceed in parallel.  This is the "better DiT mapping" effect
        the paper attributes part of the CIM attention speedup to.
        """
        cfg = self.config
        rows_needed = ceil_div(k, cfg.core.input_channels)
        cols_needed = ceil_div(n, cfg.core.output_channels)
        if rows_needed > cfg.grid_rows or cols_needed > cfg.grid_cols:
            return 1
        return (cfg.grid_rows // rows_needed) * (cfg.grid_cols // cols_needed)

    def gemm_cycles(self, m: int, k: int, n: int, precision: Precision = Precision.INT8,
                    weights_resident: bool = False, instances: int = 1) -> CIMCycleBreakdown:
        """Cycle count for ``instances`` independent ``[M,K]×[K,N]`` GEMMs.

        ``weights_resident`` marks folds whose weights are already stored in
        the CIM macros (e.g. when a higher-level mapping re-visits the same
        weight tile for successive M tiles), in which case no weight-write
        cycles are charged.  Small instances are packed onto disjoint cores of
        the grid (see :meth:`instance_packing`).
        """
        if m <= 0 or k <= 0 or n <= 0:
            raise ValueError(f"GEMM dimensions must be positive, got M={m}, K={k}, N={n}")
        if instances <= 0:
            raise ValueError("instances must be positive")
        cfg = self.config
        core_cfg = cfg.core
        packing = min(instances, self.instance_packing(k, n)) if instances > 1 else 1
        groups = ceil_div(instances, packing)

        # When several instances are packed onto the grid, each instance only
        # occupies the cores it needs (its "region"); a single instance is
        # spread over the whole grid to minimise its latency.
        if packing > 1:
            region_rows = ceil_div(k, core_cfg.input_channels)
            region_cols = ceil_div(n, core_cfg.output_channels)
        else:
            region_rows = cfg.grid_rows
            region_cols = cfg.grid_cols
        k_region_extent = region_rows * core_cfg.input_channels
        n_region_extent = region_cols * core_cfg.output_channels
        k_folds = ceil_div(k, k_region_extent)
        n_folds = ceil_div(n, n_region_extent)

        total_compute = 0
        total_weight_write = 0
        hidden_weight_write = 0
        visible = 0
        previous_compute = 0

        for n_fold in range(n_folds):
            n_extent = min(n - n_fold * n_region_extent, n_region_extent)
            cols_per_core = min(core_cfg.output_channels, ceil_div(n_extent, region_cols))
            for k_fold in range(k_folds):
                k_extent = min(k - k_fold * k_region_extent, k_region_extent)
                rows_per_core = min(core_cfg.input_channels, ceil_div(k_extent, region_rows))
                fold_compute = self._core.macro.compute_cycles(
                    m, cols_per_core, precision, used_input_channels=rows_per_core)
                fold_write = 0
                if not weights_resident:
                    fold_write = self._core.macro.weight_write_cycles(
                        rows_per_core, cols_per_core, precision)
                total_compute += fold_compute
                total_weight_write += fold_write
                if cfg.overlap_weight_update:
                    # The fold's weight write is hidden behind the previous
                    # fold's computation; any excess becomes visible.
                    hidden = min(fold_write, previous_compute)
                    hidden_weight_write += hidden
                    visible += fold_compute + (fold_write - hidden)
                else:
                    visible += fold_compute + fold_write
                previous_compute = fold_compute

        # Systolic propagation across the grid: inputs skew across grid
        # columns, outputs/partial sums across grid rows, paid once per GEMM.
        grid_fill = cfg.grid_rows + cfg.grid_cols - 2
        total = groups * visible + grid_fill

        if packing > 1:
            # Packing instances onto disjoint core regions competes with
            # spreading each instance over the whole grid and running the
            # batch sequentially; the mapping engine takes whichever wins
            # (spreading writes a smaller weight slice per core, which can be
            # cheaper when the weight write dominates).
            single = self.gemm_cycles(m, k, n, precision, weights_resident, instances=1)
            sequential_total = (single.total_cycles - single.grid_fill_cycles) * instances + grid_fill
            if sequential_total < total:
                return CIMCycleBreakdown(
                    total_cycles=int(sequential_total),
                    compute_cycles=int(single.compute_cycles * instances),
                    weight_write_cycles=int(single.weight_write_cycles * instances),
                    hidden_weight_write_cycles=int(single.hidden_weight_write_cycles * instances),
                    grid_fill_cycles=int(grid_fill),
                    k_folds=single.k_folds,
                    n_folds=single.n_folds,
                    instances=instances,
                    packed_instances=1,
                    macs=instances * m * k * n,
                    utilization=min(1.0, instances * m * k * n
                                    / (sequential_total * cfg.macs_per_cycle)),
                )

        macs = instances * m * k * n
        utilization = macs / (total * cfg.macs_per_cycle) if total > 0 else 0.0
        return CIMCycleBreakdown(
            total_cycles=int(total),
            compute_cycles=int(groups * total_compute),
            weight_write_cycles=int(groups * total_weight_write),
            hidden_weight_write_cycles=int(groups * hidden_weight_write),
            grid_fill_cycles=int(grid_fill),
            k_folds=k_folds,
            n_folds=n_folds,
            instances=instances,
            packed_instances=packing,
            macs=macs,
            utilization=min(1.0, utilization),
        )

    # ------------------------------------------------------------------ energy
    def gemm(self, m: int, k: int, n: int, precision: Precision = Precision.INT8,
             stationary_weights: bool = True, weights_resident: bool = False,
             instances: int = 1) -> MXUComputeResult:
        """Execute ``instances`` GEMM tiles and return cycles, energy and traffic.

        ``stationary_weights`` is accepted for interface parity with
        :class:`repro.systolic.systolic_array.DigitalMXU`; the CIM-MXU handles
        stationary and dynamic operands identically because weight updates
        always stream through the dedicated weight I/O.
        """
        del stationary_weights  # identical handling on the CIM-MXU
        breakdown = self.gemm_cycles(m, k, n, precision, weights_resident, instances)

        energy = EnergyBudget()
        energy.add_dynamic("mxu", self._core.mac_energy(breakdown.macs, precision))
        weight_bytes = 0 if weights_resident else instances * k * n * precision.bytes
        if weight_bytes:
            energy.add_dynamic("mxu", self._core.weight_write_energy(weight_bytes))
        seconds = breakdown.total_cycles / (self.config.frequency_ghz * 1e9)
        energy.add_leakage("mxu", self.leakage_power_w * seconds)

        input_bytes = instances * m * k * precision.bytes
        output_bytes = instances * m * n * precision.accumulator_bytes
        return MXUComputeResult(
            cycles=breakdown.total_cycles,
            macs=breakdown.macs,
            utilization=breakdown.utilization,
            energy=energy,
            input_bytes=input_bytes,
            weight_bytes=instances * k * n * precision.bytes,
            output_bytes=output_bytes,
            breakdown=None,
        )

    def idle_energy(self, cycles: float) -> EnergyBudget:
        """Leakage energy burned while the CIM-MXU sits idle for ``cycles``."""
        if cycles < 0:
            raise ValueError("idle cycles must be non-negative")
        budget = EnergyBudget()
        seconds = cycles / (self.config.frequency_ghz * 1e9)
        budget.add_leakage("mxu", self.leakage_power_w * seconds)
        return budget

    def energy_efficiency_tops_per_watt(self, precision: Precision = Precision.INT8) -> float:
        """Sustained TOPS/W at full utilisation (reproduces Table II)."""
        macs_per_second = self.macs_per_cycle * self.config.frequency_ghz * 1e9
        dynamic_power = self.energy_model.cim_mac_energy(precision.bits) * macs_per_second
        total_power = dynamic_power + self.leakage_power_w
        return (2.0 * macs_per_second / 1e12) / total_power

    def area_efficiency_tops_per_mm2(self) -> float:
        """Peak TOPS per mm² (reproduces Table II)."""
        return self.config.peak_tops / self.area_mm2
