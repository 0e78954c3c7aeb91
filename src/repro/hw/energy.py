"""Energy models derived from the silicon calibration constants.

The paper's evaluation reports *MXU energy*: the energy consumed by the matrix
units during an inference, combining dynamic (per-MAC and per-weight-update)
energy with static (leakage) energy accumulated over the runtime.  This module
turns the Table II efficiencies into those per-operation quantities and also
provides per-byte energies for the on-chip SRAMs and HBM so that full-chip
energy breakdowns can be produced.

Conventions
-----------
* Energies are expressed in joules, powers in watts, times in seconds.
* One MAC counts as two operations (the TOPS convention used by the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hw.calibration import CalibrationConstants, PAPER_CALIBRATION, TPUSpec, TPUV4I_SPEC
from repro.hw.technology import TechnologyNode, CALIBRATION_NODE, scale_energy, scale_leakage_density


def peak_tops(macs_per_cycle: int, frequency_ghz: float) -> float:
    """Peak INT8 throughput in TOPS for a unit executing ``macs_per_cycle``."""
    return 2.0 * macs_per_cycle * frequency_ghz * 1e9 / 1e12


@dataclass
class EnergyBudget:
    """An accumulating energy breakdown keyed by component name.

    Dynamic and leakage contributions are tracked separately so reports can
    show both "energy per operation" effects and "idle energy over runtime"
    effects, which is what differentiates the paper's Fig. 6 ratios (9.2×–13.4×)
    from the raw per-MAC ratio (9.43×).
    """

    dynamic_joules: dict[str, float] = field(default_factory=dict)
    leakage_joules: dict[str, float] = field(default_factory=dict)

    def add_dynamic(self, component: str, joules: float) -> None:
        """Add dynamic energy for ``component``."""
        if joules < 0:
            raise ValueError(f"dynamic energy must be non-negative, got {joules}")
        self.dynamic_joules[component] = self.dynamic_joules.get(component, 0.0) + joules

    def add_leakage(self, component: str, joules: float) -> None:
        """Add leakage energy for ``component``."""
        if joules < 0:
            raise ValueError(f"leakage energy must be non-negative, got {joules}")
        self.leakage_joules[component] = self.leakage_joules.get(component, 0.0) + joules

    def merge(self, other: "EnergyBudget") -> None:
        """Accumulate another budget into this one.

        Every entry of ``other`` passed the non-negative check when it was
        added, so the entries are summed directly, in ``other``'s order.
        """
        dynamic = self.dynamic_joules
        for component, joules in other.dynamic_joules.items():
            dynamic[component] = dynamic.get(component, 0.0) + joules
        leakage = self.leakage_joules
        for component, joules in other.leakage_joules.items():
            leakage[component] = leakage.get(component, 0.0) + joules

    def scaled(self, factor: float) -> "EnergyBudget":
        """Return a copy with every contribution multiplied by ``factor``."""
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        # Each entry is stored as adding it to an empty budget would store
        # it (``0.0 + x``), without re-checking a sign already checked.
        return EnergyBudget(
            {component: 0.0 + joules * factor
             for component, joules in self.dynamic_joules.items()},
            {component: 0.0 + joules * factor
             for component, joules in self.leakage_joules.items()})

    def component_total(self, component: str) -> float:
        """Total (dynamic + leakage) energy of a single component."""
        return self.dynamic_joules.get(component, 0.0) + self.leakage_joules.get(component, 0.0)

    @property
    def components(self) -> set[str]:
        """Names of every component with a recorded contribution."""
        return set(self.dynamic_joules) | set(self.leakage_joules)

    @property
    def total_dynamic(self) -> float:
        """Total dynamic energy across all components."""
        return sum(self.dynamic_joules.values())

    @property
    def total_leakage(self) -> float:
        """Total leakage energy across all components."""
        return sum(self.leakage_joules.values())

    @property
    def total(self) -> float:
        """Total energy across all components."""
        return self.total_dynamic + self.total_leakage


@dataclass(frozen=True)
class EnergyModel:
    """Per-operation energies and leakage powers for every chip component.

    The MXU-level numbers are derived from the Table II calibration: a unit
    that delivers ``peak_tops`` at ``tops_per_watt`` consumes
    ``peak_tops / tops_per_watt`` watts at full utilisation; a configurable
    fraction of that is static, the rest is dynamic and divides evenly over
    the MACs executed per second.

    Memory access energies are representative 22 nm per-byte figures (register
    file < SRAM < large SRAM < HBM) and are scaled with the technology node.
    """

    technology: TechnologyNode = CALIBRATION_NODE
    calibration: CalibrationConstants = PAPER_CALIBRATION
    spec: TPUSpec = TPUV4I_SPEC
    # Representative per-byte access energies at the 22 nm calibration node.
    vmem_pj_per_byte: float = 0.9
    cmem_pj_per_byte: float = 2.1
    hbm_pj_per_byte: float = 31.2
    register_pj_per_byte: float = 0.06
    ici_pj_per_byte: float = 10.0
    vpu_pj_per_op: float = 0.55
    # Fraction of a CIM macro's per-MAC dynamic energy charged for writing one
    # weight byte through the weight I/O (SRAM write + drivers).
    cim_weight_write_pj_per_byte: float = 1.1
    digital_weight_load_pj_per_byte: float = 0.35

    def __post_init__(self) -> None:
        # Every figure below depends on the fields alone, and the cost model
        # asks for them per operator and per transfer, so each is derived
        # once here and kept beside (not among) the frozen fields.
        cal, spec = self.calibration, self.spec
        derived = {
            "_digital_split": self._mxu_power_budget(
                spec.systolic_macs_per_cycle, cal.digital_tops_per_watt,
                cal.digital_leakage_fraction),
            "_cim_split": self._mxu_power_budget(
                spec.cim_macs_per_cycle, cal.cim_tops_per_watt,
                cal.cim_leakage_fraction),
            "_vmem_j_per_byte": self._scaled_pj(self.vmem_pj_per_byte),
            "_cmem_j_per_byte": self._scaled_pj(self.cmem_pj_per_byte),
            # HBM I/O energy is dominated by the PHY and does not scale with
            # the logic node, so it is left unscaled.
            "_hbm_j_per_byte": self.hbm_pj_per_byte * 1e-12,
            "_vpu_j_per_op": self._scaled_pj(self.vpu_pj_per_op),
            "_cim_weight_write_j_per_byte": self._scaled_pj(
                self.cim_weight_write_pj_per_byte),
            "_digital_weight_load_j_per_byte": self._scaled_pj(
                self.digital_weight_load_pj_per_byte),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    # ------------------------------------------------------------------ MXU
    def _mxu_power_budget(self, macs_per_cycle: int, tops_per_watt: float,
                          leakage_fraction: float) -> tuple[float, float]:
        """Return ``(dynamic_energy_per_mac_j, leakage_power_w)`` for one MXU."""
        tops = peak_tops(macs_per_cycle, self.spec.frequency_ghz)
        full_power_w = tops / tops_per_watt
        leakage_power_w = full_power_w * leakage_fraction
        dynamic_power_w = full_power_w - leakage_power_w
        macs_per_second = macs_per_cycle * self.spec.frequency_ghz * 1e9
        energy_per_mac_j = dynamic_power_w / macs_per_second
        energy_per_mac_j = scale_energy(energy_per_mac_j, CALIBRATION_NODE, self.technology)
        leakage_power_w = scale_leakage_density(leakage_power_w, CALIBRATION_NODE, self.technology)
        return energy_per_mac_j, leakage_power_w

    def digital_mac_energy(self, precision_bits: int = 8) -> float:
        """Dynamic energy of one MAC on the digital systolic MXU, in joules."""
        return self._digital_split[0] * self._precision_energy_factor(precision_bits)

    def digital_mxu_leakage_power(self) -> float:
        """Leakage power (W) of one 128×128 digital MXU."""
        return self._digital_split[1]

    def cim_mac_energy(self, precision_bits: int = 8) -> float:
        """Dynamic energy of one MAC inside a digital CIM core, in joules."""
        return self._cim_split[0] * self._precision_energy_factor(precision_bits)

    def cim_core_leakage_power(self) -> float:
        """Leakage power (W) of a single 128×256 CIM core."""
        default_core_count = self.spec.cim_grid_rows * self.spec.cim_grid_cols
        return self._cim_split[1] / default_core_count

    def _precision_energy_factor(self, precision_bits: int) -> float:
        if precision_bits == 8:
            return 1.0
        if precision_bits == 16:
            return self.calibration.bf16_energy_overhead
        raise ValueError(f"unsupported precision: {precision_bits} bits (use 8 or 16)")

    # --------------------------------------------------------------- memory
    def _scaled_pj(self, pj: float) -> float:
        return scale_energy(pj * 1e-12, CALIBRATION_NODE, self.technology)

    def vmem_access_energy(self, num_bytes: float) -> float:
        """Energy (J) of moving ``num_bytes`` into or out of VMEM."""
        return self._vmem_j_per_byte * num_bytes

    def cmem_access_energy(self, num_bytes: float) -> float:
        """Energy (J) of moving ``num_bytes`` into or out of CMEM."""
        return self._cmem_j_per_byte * num_bytes

    def hbm_access_energy(self, num_bytes: float) -> float:
        """Energy (J) of moving ``num_bytes`` across the HBM interface."""
        return self._hbm_j_per_byte * num_bytes

    def vpu_op_energy(self, num_ops: float) -> float:
        """Energy (J) of ``num_ops`` scalar operations on the vector unit."""
        return self._vpu_j_per_op * num_ops

    def cim_weight_write_energy(self, num_bytes: float) -> float:
        """Energy (J) of writing ``num_bytes`` of weights into CIM macros."""
        return self._cim_weight_write_j_per_byte * num_bytes

    def digital_weight_load_energy(self, num_bytes: float) -> float:
        """Energy (J) of loading ``num_bytes`` of weights into the systolic array."""
        return self._digital_weight_load_j_per_byte * num_bytes
