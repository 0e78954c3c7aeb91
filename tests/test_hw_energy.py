"""Tests for the energy model and the EnergyBudget accumulator."""

import pytest

from repro.hw.energy import EnergyBudget, EnergyModel, peak_tops
from repro.hw.technology import (
    CALIBRATION_NODE,
    get_node,
    scale_energy,
    scale_leakage_density,
)


class TestPeakTops:
    def test_reference_value(self):
        # 16384 MACs/cycle at 1.05 GHz = 34.4 INT8 TOPS.
        assert peak_tops(16384, 1.05) == pytest.approx(34.4, rel=0.01)

    def test_linear_in_macs(self):
        assert peak_tops(32768, 1.0) == pytest.approx(2 * peak_tops(16384, 1.0))


class TestEnergyBudget:
    def test_accumulates_by_component(self):
        budget = EnergyBudget()
        budget.add_dynamic("mxu", 1.0)
        budget.add_dynamic("mxu", 2.0)
        budget.add_leakage("mxu", 0.5)
        assert budget.component_total("mxu") == pytest.approx(3.5)

    def test_totals(self):
        budget = EnergyBudget()
        budget.add_dynamic("mxu", 1.0)
        budget.add_dynamic("vpu", 2.0)
        budget.add_leakage("hbm", 3.0)
        assert budget.total_dynamic == pytest.approx(3.0)
        assert budget.total_leakage == pytest.approx(3.0)
        assert budget.total == pytest.approx(6.0)
        assert budget.components == {"mxu", "vpu", "hbm"}

    def test_merge(self):
        a, b = EnergyBudget(), EnergyBudget()
        a.add_dynamic("mxu", 1.0)
        b.add_dynamic("mxu", 2.0)
        b.add_leakage("vpu", 1.5)
        a.merge(b)
        assert a.component_total("mxu") == pytest.approx(3.0)
        assert a.component_total("vpu") == pytest.approx(1.5)

    def test_scaled(self):
        budget = EnergyBudget()
        budget.add_dynamic("mxu", 2.0)
        budget.add_leakage("mxu", 1.0)
        scaled = budget.scaled(3.0)
        assert scaled.total == pytest.approx(9.0)
        # The original is untouched.
        assert budget.total == pytest.approx(3.0)

    def test_rejects_negative_energy(self):
        budget = EnergyBudget()
        with pytest.raises(ValueError, match="^dynamic energy must be non-negative, got -1.0$"):
            budget.add_dynamic("mxu", -1.0)
        with pytest.raises(ValueError, match="^leakage energy must be non-negative, got -1.0$"):
            budget.add_leakage("mxu", -1.0)
        with pytest.raises(ValueError, match="^scale factor must be non-negative$"):
            budget.scaled(-2.0)

    def test_merge_and_scaled_keep_order_and_bits(self):
        a, b = EnergyBudget(), EnergyBudget()
        a.add_dynamic("vmem", 0.1)
        a.add_leakage("mxu", 0.7)
        b.add_dynamic("mxu", 0.2)
        b.add_dynamic("vmem", 0.3)
        b.add_leakage("vpu", 0.4)
        b.add_leakage("mxu", 1e-17)
        a.merge(b)
        assert list(a.dynamic_joules.items()) == [("vmem", 0.1 + 0.3), ("mxu", 0.2)]
        assert list(a.leakage_joules.items()) == [("mxu", 0.7 + 1e-17), ("vpu", 0.4)]
        scaled = a.scaled(3.0)
        assert list(scaled.dynamic_joules.items()) == [("vmem", (0.1 + 0.3) * 3.0),
                                                       ("mxu", 0.2 * 3.0)]
        assert list(scaled.leakage_joules.items()) == [("mxu", (0.7 + 1e-17) * 3.0),
                                                       ("vpu", 0.4 * 3.0)]
        assert scaled is not a and scaled.dynamic_joules is not a.dynamic_joules


class TestEnergyModel:
    def setup_method(self):
        self.model = EnergyModel()

    def test_cim_mac_energy_is_about_9x_lower(self):
        digital = self.model.digital_mac_energy()
        cim = self.model.cim_mac_energy()
        assert digital / cim == pytest.approx(
            (self.model.calibration.cim_tops_per_watt / self.model.calibration.digital_tops_per_watt)
            * (1 - self.model.calibration.digital_leakage_fraction)
            / (1 - self.model.calibration.cim_leakage_fraction), rel=1e-6)
        assert digital > cim

    def test_digital_mac_energy_order_of_magnitude(self):
        # ~2.6 pJ/MAC at 0.77 TOPS/W; the dynamic part must be below that and
        # above a tenth of it.
        energy_pj = self.model.digital_mac_energy() * 1e12
        assert 0.26 < energy_pj < 2.6

    def test_bf16_costs_more_than_int8(self):
        assert self.model.digital_mac_energy(16) > self.model.digital_mac_energy(8)
        assert self.model.cim_mac_energy(16) > self.model.cim_mac_energy(8)

    def test_unsupported_precision_rejected(self):
        with pytest.raises(ValueError):
            self.model.digital_mac_energy(4)

    def test_leakage_powers_positive(self):
        assert self.model.digital_mxu_leakage_power() > 0
        assert self.model.cim_core_leakage_power() > 0

    def test_cim_core_leakage_is_per_core(self):
        # 128 cores of the default grid share the MXU leakage budget.
        total = self.model.cim_core_leakage_power() * 128
        # The whole CIM-MXU leaks less than the digital MXU (it burns ~9× less
        # power overall).
        assert total < self.model.digital_mxu_leakage_power()

    def test_memory_energy_ordering(self):
        n = 1024.0
        assert self.model.vmem_access_energy(n) < self.model.cmem_access_energy(n)
        assert self.model.cmem_access_energy(n) < self.model.hbm_access_energy(n)

    def test_memory_energy_linear_in_bytes(self):
        assert self.model.hbm_access_energy(2000.0) == pytest.approx(
            2 * self.model.hbm_access_energy(1000.0))

    def test_technology_scaling_reduces_dynamic_energy(self):
        scaled = EnergyModel(technology=get_node("tsmc7"))
        assert scaled.digital_mac_energy() < self.model.digital_mac_energy()
        assert scaled.vmem_access_energy(100.0) < self.model.vmem_access_energy(100.0)

    def test_hbm_energy_not_scaled_with_node(self):
        scaled = EnergyModel(technology=get_node("tsmc7"))
        assert scaled.hbm_access_energy(100.0) == pytest.approx(self.model.hbm_access_energy(100.0))


def _reference_split(model, macs_per_cycle, tops_per_watt, leakage_fraction):
    """Per-MAC dynamic energy and leakage power of one MXU, from the fields."""
    full_power_w = peak_tops(macs_per_cycle, model.spec.frequency_ghz) / tops_per_watt
    leakage_power_w = full_power_w * leakage_fraction
    energy_per_mac_j = ((full_power_w - leakage_power_w)
                        / (macs_per_cycle * model.spec.frequency_ghz * 1e9))
    return (scale_energy(energy_per_mac_j, CALIBRATION_NODE, model.technology),
            scale_leakage_density(leakage_power_w, CALIBRATION_NODE, model.technology))


@pytest.mark.parametrize("node", ["tsmc22", "tsmc7", "tsmc65"])
def test_every_figure_equals_its_derivation_from_the_fields(node):
    model = EnergyModel(technology=get_node(node))
    spec, cal = model.spec, model.calibration
    digital = _reference_split(model, spec.systolic_macs_per_cycle,
                               cal.digital_tops_per_watt, cal.digital_leakage_fraction)
    cim = _reference_split(model, spec.cim_macs_per_cycle,
                           cal.cim_tops_per_watt, cal.cim_leakage_fraction)
    assert model.digital_mac_energy(8) == digital[0] * 1.0
    assert model.digital_mac_energy(16) == digital[0] * cal.bf16_energy_overhead
    assert model.digital_mxu_leakage_power() == digital[1]
    assert model.cim_mac_energy(8) == cim[0] * 1.0
    assert model.cim_mac_energy(16) == cim[0] * cal.bf16_energy_overhead
    assert model.cim_core_leakage_power() == cim[1] / (spec.cim_grid_rows * spec.cim_grid_cols)

    def per_byte(pj):
        return scale_energy(pj * 1e-12, CALIBRATION_NODE, model.technology)

    for n in (0, 1, 1000.0, 3 * 2**20 + 1):
        assert model.vmem_access_energy(n) == per_byte(model.vmem_pj_per_byte) * n
        assert model.cmem_access_energy(n) == per_byte(model.cmem_pj_per_byte) * n
        assert model.hbm_access_energy(n) == model.hbm_pj_per_byte * 1e-12 * n
        assert model.vpu_op_energy(n) == per_byte(model.vpu_pj_per_op) * n
        assert model.cim_weight_write_energy(n) == \
            per_byte(model.cim_weight_write_pj_per_byte) * n
        assert model.digital_weight_load_energy(n) == \
            per_byte(model.digital_weight_load_pj_per_byte) * n
    with pytest.raises(ValueError, match="^unsupported precision: 4 bits"):
        model.cim_mac_energy(4)
