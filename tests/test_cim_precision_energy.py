"""Tests for the CIM BF16 datapath and the Table II energy report."""

import pytest

from repro.cim.energy import CIMEnergyReport, compare_mxus, macro_energy_report
from repro.cim.macro import CIMMacro
from repro.cim.mxu import CIMMXU, CIMMXUConfig
from repro.common import Precision
from repro.hw.calibration import CalibrationConstants
from repro.hw.energy import EnergyModel
from repro.systolic.systolic_array import DigitalMXU


class TestBF16Datapath:
    """BF16 on the CIM-MXU: INT8's MACs, one alignment cycle, more energy."""

    def setup_method(self):
        self.mxu = CIMMXU()

    def test_int8_and_bf16_run_the_same_macs(self):
        int8 = self.mxu.gemm_cycles(64, 2048, 2048, Precision.INT8)
        bf16 = self.mxu.gemm_cycles(64, 2048, 2048, Precision.BF16)
        assert bf16.macs == int8.macs
        assert (bf16.k_folds, bf16.n_folds, bf16.grid_fill_cycles) == \
            (int8.k_folds, int8.n_folds, int8.grid_fill_cycles)

    @pytest.mark.parametrize("m,k,n", [(1, 2048, 2048), (64, 2048, 2048),
                                       (64, 4096, 4096), (7, 300, 5000)])
    def test_bf16_adds_one_cycle_per_vector_per_fold(self, m, k, n):
        # The alignment latency is amortised per input vector; no fixed
        # pipeline fill is charged on top.
        int8 = self.mxu.gemm_cycles(m, k, n, Precision.INT8)
        bf16 = self.mxu.gemm_cycles(m, k, n, Precision.BF16)
        extra = m * int8.k_folds * int8.n_folds
        assert bf16.compute_cycles - int8.compute_cycles == extra
        assert bf16.total_cycles - int8.total_cycles == extra

    def test_bf16_weight_writes_load_mantissas_only(self):
        macro = CIMMacro()
        assert macro.weight_write_cycles(precision=Precision.BF16) == \
            macro.weight_write_cycles(precision=Precision.INT8)

    def test_bf16_energy_factor_is_the_calibration_overhead(self):
        model = EnergyModel()
        overhead = model.calibration.bf16_energy_overhead
        assert model.cim_mac_energy(16) == pytest.approx(overhead * model.cim_mac_energy(8))
        assert model.digital_mac_energy(16) == pytest.approx(
            overhead * model.digital_mac_energy(8))

    def test_bf16_energy_follows_a_custom_overhead(self):
        model = EnergyModel(calibration=CalibrationConstants(bf16_energy_overhead=2.0))
        assert model.cim_mac_energy(16) == pytest.approx(2.0 * model.cim_mac_energy(8))


class TestEnergyReport:
    def test_digital_report_matches_table2(self):
        report = macro_energy_report(DigitalMXU())
        assert report.tops_per_watt == pytest.approx(0.77, rel=0.01)
        assert report.tops_per_mm2 == pytest.approx(0.648, rel=0.01)

    def test_cim_report_matches_table2(self):
        report = macro_energy_report(CIMMXU())
        assert report.tops_per_watt == pytest.approx(7.26, rel=0.01)
        assert report.tops_per_mm2 == pytest.approx(1.31, rel=0.01)

    def test_report_total_power(self):
        report = macro_energy_report(CIMMXU())
        assert report.total_power_w == pytest.approx(
            report.dynamic_power_w + report.leakage_power_w)

    def test_report_is_dataclass_with_positive_fields(self):
        report = macro_energy_report(DigitalMXU())
        assert isinstance(report, CIMEnergyReport)
        assert report.peak_tops > 0 and report.area_mm2 > 0


class TestCompareMxus:
    def test_table2_rows(self):
        comparison = compare_mxus(DigitalMXU(), CIMMXU())
        assert comparison["digital_macs_per_cycle"] == 16384
        assert comparison["cim_macs_per_cycle"] == 16384
        assert comparison["energy_efficiency_gain"] == pytest.approx(9.43, rel=0.01)
        assert comparison["area_efficiency_gain"] == pytest.approx(2.02, rel=0.01)

    def test_area_ratio_near_half(self):
        comparison = compare_mxus(DigitalMXU(), CIMMXU())
        assert comparison["cim_area_ratio"] == pytest.approx(0.5, abs=0.1)

    def test_smaller_cim_mxu_keeps_efficiency(self):
        # Efficiency (TOPS/W) is a per-core property and must not depend on
        # the grid dimensions.
        small = CIMMXU(config=CIMMXUConfig(grid_rows=8, grid_cols=8))
        comparison = compare_mxus(DigitalMXU(), small)
        assert comparison["energy_efficiency_gain"] == pytest.approx(9.43, rel=0.01)
