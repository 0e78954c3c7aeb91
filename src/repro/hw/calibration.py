"""Silicon-calibrated constants used by the cost models.

The paper calibrates its architecture model against two physical
implementations in TSMC 22 nm (Table II):

* a Gemmini-generated 128×128 digital systolic array, taken through synthesis
  and place & route with Cadence Genus/Innovus, and
* a CIM-MXU built from a 16×8 grid of 128×256 digital SRAM CIM cores, with a
  manually drawn CIM core layout.

We cannot run a commercial P&R flow from Python, so — as documented in
DESIGN.md — those measured efficiencies are carried here as calibration
constants, exactly as the paper itself consumes them: scalar inputs to the
architecture-level simulator.  Everything derived from them (per-MAC energy,
leakage power, per-core area, MXU area) is computed in
:mod:`repro.hw.energy` and :mod:`repro.hw.area` so the derivation is explicit
and testable.

The TPUv4i chip-level specification (Table I of the paper, originally from
Jouppi et al., ISCA'21) is also collected here.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CalibrationConstants:
    """Measured MXU-level efficiencies at the calibration node (22 nm, 1.05 GHz).

    All "TOPS" figures are INT8 tera-operations per second where one
    multiply-accumulate counts as two operations, matching the convention of
    the paper and of vendor datasheets.

    Attributes
    ----------
    digital_tops_per_watt:
        Energy efficiency of the digital 128×128 systolic MXU.
    digital_tops_per_mm2:
        Area efficiency of the digital MXU.
    cim_tops_per_watt:
        Energy efficiency of the CIM-MXU (16×8 grid of CIM cores).
    cim_tops_per_mm2:
        Area efficiency of the CIM-MXU.
    digital_leakage_fraction:
        Fraction of the digital MXU's full-utilisation power that is static
        (leakage + always-on clocking).  Post-P&R digital arrays at 22 nm
        typically sit in the 15–25 % range; the value is exposed so ablations
        can sweep it.
    cim_leakage_fraction:
        Same for the CIM-MXU.  The CIM array's static share is dominated by
        the retention leakage of its dense SRAM bitcells plus the always-on
        weight I/O; it is lower than the digital array's in absolute watts but
        forms a comparable fraction of its (much smaller) full-power budget.
    bf16_energy_overhead:
        Multiplicative dynamic-energy overhead of BF16 (mantissa alignment in
        the pre-processing unit plus wider accumulation) relative to INT8 for
        the same MAC count.  BF16 keeps INT8's MACs/cycle in the paper.
    """

    digital_tops_per_watt: float = 0.77
    digital_tops_per_mm2: float = 0.648
    cim_tops_per_watt: float = 7.26
    cim_tops_per_mm2: float = 1.31
    digital_leakage_fraction: float = 0.22
    cim_leakage_fraction: float = 0.20
    bf16_energy_overhead: float = 1.45

    def __post_init__(self) -> None:
        for field_name in (
            "digital_tops_per_watt",
            "digital_tops_per_mm2",
            "cim_tops_per_watt",
            "cim_tops_per_mm2",
            "bf16_energy_overhead",
        ):
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{field_name} must be positive")
        for field_name in ("digital_leakage_fraction", "cim_leakage_fraction"):
            value = getattr(self, field_name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{field_name} must be in [0, 1), got {value}")

    @property
    def cim_energy_efficiency_gain(self) -> float:
        """Energy-efficiency ratio of CIM-MXU over digital MXU (paper: 9.43×)."""
        return self.cim_tops_per_watt / self.digital_tops_per_watt

    @property
    def cim_area_efficiency_gain(self) -> float:
        """Area-efficiency ratio of CIM-MXU over digital MXU (paper: 2.02×)."""
        return self.cim_tops_per_mm2 / self.digital_tops_per_mm2


#: The constants reported in Table II of the paper.
PAPER_CALIBRATION = CalibrationConstants()


@dataclass(frozen=True)
class TPUSpec:
    """Chip-level specification shared by the baseline and CIM-based TPU.

    These are the Table I parameters that the paper keeps identical between
    the baseline TPUv4i and its CIM-based variant: memory capacities,
    bandwidths, the vector unit width and the clock frequency.
    """

    frequency_ghz: float = 1.05
    tensor_core_count: int = 1
    mxu_count: int = 4
    systolic_rows: int = 128
    systolic_cols: int = 128
    cim_grid_rows: int = 16
    cim_grid_cols: int = 8
    cim_core_rows: int = 128
    cim_core_cols: int = 256
    vector_lanes: int = 8 * 128
    vmem_bytes: int = 16 * 2**20
    cmem_bytes: int = 128 * 2**20
    main_memory_bytes: int = 8 * 2**30
    main_memory_bandwidth_gbps: float = 614.0
    ici_link_bandwidth_gbps: float = 100.0
    ici_link_count: int = 2

    def __post_init__(self) -> None:
        positive_fields = (
            "frequency_ghz",
            "tensor_core_count",
            "mxu_count",
            "systolic_rows",
            "systolic_cols",
            "cim_grid_rows",
            "cim_grid_cols",
            "cim_core_rows",
            "cim_core_cols",
            "vector_lanes",
            "vmem_bytes",
            "cmem_bytes",
            "main_memory_bytes",
            "main_memory_bandwidth_gbps",
            "ici_link_bandwidth_gbps",
            "ici_link_count",
        )
        for field_name in positive_fields:
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{field_name} must be positive")

    @property
    def systolic_macs_per_cycle(self) -> int:
        """MAC operations per cycle of one digital systolic MXU."""
        return self.systolic_rows * self.systolic_cols

    @property
    def cim_macs_per_cycle(self) -> int:
        """MAC operations per cycle of one default (16×8) CIM-MXU."""
        return self.cim_grid_rows * self.cim_grid_cols * 128

    @property
    def main_memory_bytes_per_cycle(self) -> float:
        """HBM bandwidth expressed in bytes per core clock cycle."""
        return self.main_memory_bandwidth_gbps * 1e9 / (self.frequency_ghz * 1e9)

    @property
    def ici_bytes_per_cycle(self) -> float:
        """Single ICI link bandwidth in bytes per core clock cycle."""
        return self.ici_link_bandwidth_gbps * 1e9 / (self.frequency_ghz * 1e9)


#: Table I parameters of the TPUv4i baseline used throughout the paper.
TPUV4I_SPEC = TPUSpec()
