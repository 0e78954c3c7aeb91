"""Tests for the DigitalMXU component model."""

import pytest

from repro.common import Precision
from repro.systolic.dataflows import Dataflow, systolic_gemm_cycles
from repro.systolic.systolic_array import DigitalMXU, SystolicArrayConfig

#: The four weight GEMMs ``(m, k, n)`` of one Transformer layer (batch 2,
#: 64 tokens, d_model 256, d_ff 1024): QKV, output projection, FFN1, FFN2.
LAYER_GEMMS = [(128, 256, 768), (128, 256, 256), (128, 256, 1024), (128, 1024, 256)]


@pytest.fixture(scope="module")
def mxu():
    return DigitalMXU()


class TestConfig:
    def test_defaults_match_tpuv4i(self):
        config = SystolicArrayConfig()
        assert config.rows == 128 and config.cols == 128
        assert config.macs_per_cycle == 16384

    def test_peak_tops(self):
        config = SystolicArrayConfig()
        assert config.peak_tops == pytest.approx(34.4, rel=0.01)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            SystolicArrayConfig(rows=0)
        with pytest.raises(ValueError):
            SystolicArrayConfig(frequency_ghz=-1)


class TestGemm:
    def test_table2_energy_efficiency(self, mxu):
        # Table II: the digital MXU sustains 0.77 TOPS/W at INT8.
        assert mxu.energy_efficiency_tops_per_watt() == pytest.approx(0.77, rel=0.01)

    def test_table2_area_efficiency(self, mxu):
        # Table II: 0.648 TOPS/mm².
        assert mxu.area_efficiency_tops_per_mm2() == pytest.approx(0.648, rel=0.01)

    def test_result_fields_consistent(self, mxu):
        result = mxu.gemm(256, 512, 512)
        assert result.macs == 256 * 512 * 512
        assert result.cycles > 0
        assert 0 < result.utilization <= 1
        assert result.energy.component_total("mxu") > 0
        assert result.weight_bytes == 512 * 512
        assert result.input_bytes == 256 * 512
        assert result.output_bytes == 256 * 512 * 4

    def test_stationary_weights_faster_than_dynamic(self, mxu):
        stationary = mxu.gemm(8, 2048, 2048, stationary_weights=True)
        dynamic = mxu.gemm(8, 2048, 2048, stationary_weights=False)
        assert stationary.cycles < dynamic.cycles

    def test_bf16_same_cycles_more_energy(self, mxu):
        int8 = mxu.gemm(128, 1024, 1024, Precision.INT8)
        bf16 = mxu.gemm(128, 1024, 1024, Precision.BF16)
        assert bf16.cycles == int8.cycles
        assert bf16.energy.total > int8.energy.total

    def test_instances_scale_cycles_linearly(self, mxu):
        one = mxu.gemm(64, 128, 1024, stationary_weights=False, instances=1)
        four = mxu.gemm(64, 128, 1024, stationary_weights=False, instances=4)
        assert four.cycles == 4 * one.cycles
        assert four.macs == 4 * one.macs

    def test_instances_must_be_positive(self, mxu):
        with pytest.raises(ValueError):
            mxu.gemm(64, 128, 128, instances=0)

    def test_idle_energy_is_leakage_only(self, mxu):
        idle = mxu.idle_energy(1000.0)
        assert idle.total_dynamic == 0.0
        assert idle.total_leakage > 0.0

    def test_idle_energy_rejects_negative(self, mxu):
        with pytest.raises(ValueError):
            mxu.idle_energy(-1.0)

    def test_leakage_power_scales_with_array_size(self):
        small = DigitalMXU(config=SystolicArrayConfig(rows=64, cols=64))
        large = DigitalMXU(config=SystolicArrayConfig(rows=128, cols=128))
        assert large.leakage_power_w == pytest.approx(4 * small.leakage_power_w)


class TestLayerGemms:
    """A Transformer layer's GEMMs as the mapping engine prices them."""

    @pytest.mark.parametrize("m,k,n", LAYER_GEMMS)
    def test_stationary_weights_use_the_double_buffered_dataflow(self, mxu, m, k, n):
        result = mxu.gemm(m, k, n, stationary_weights=True)
        expected = systolic_gemm_cycles(m, k, n, 128, 128, Dataflow.WEIGHT_STATIONARY_DB)
        assert result.breakdown == expected
        assert result.cycles == expected.total_cycles

    def test_dynamic_weights_use_the_plain_dataflow(self, mxu):
        for m, k, n in LAYER_GEMMS:
            result = mxu.gemm(m, k, n, stationary_weights=False)
            assert result.breakdown == systolic_gemm_cycles(
                m, k, n, 128, 128, Dataflow.WEIGHT_STATIONARY)

    def test_utilization_is_macs_over_peak_cycles(self, mxu):
        for m, k, n in LAYER_GEMMS:
            result = mxu.gemm(m, k, n)
            assert 0.0 < result.utilization <= 1.0
            assert result.utilization == pytest.approx(
                result.macs / (result.cycles * mxu.macs_per_cycle))

    def test_input_traffic_counts_each_operand_once(self, mxu):
        # Column folds re-read the inputs inside the array; the operand
        # crosses the MXU boundary once.
        narrow = mxu.gemm(128, 256, 128, Precision.BF16)
        wide = mxu.gemm(128, 256, 1024, Precision.BF16)
        assert wide.breakdown.folds == 8 * narrow.breakdown.folds
        assert wide.input_bytes == narrow.input_bytes == 128 * 256 * 2

    def test_dynamic_weights_are_fetched_per_instance(self, mxu):
        stationary = mxu.gemm(64, 128, 512, stationary_weights=True, instances=4)
        dynamic = mxu.gemm(64, 128, 512, stationary_weights=False, instances=4)
        assert stationary.weight_bytes == 128 * 512
        assert dynamic.weight_bytes == 4 * 128 * 512
        assert dynamic.input_bytes == stationary.input_bytes == 4 * 64 * 128

    def test_output_stationary_array(self):
        config = SystolicArrayConfig(stationary_dataflow=Dataflow.OUTPUT_STATIONARY)
        result = DigitalMXU(config=config).gemm(256, 512, 384)
        assert result.cycles == systolic_gemm_cycles(
            256, 512, 384, 128, 128, Dataflow.OUTPUT_STATIONARY).total_cycles
        assert result.breakdown.weight_load_cycles == 0

    def test_bigger_array_is_not_slower_for_large_gemm(self, mxu):
        big = DigitalMXU(config=SystolicArrayConfig(rows=256, cols=256))
        assert big.gemm(4096, 4096, 4096).cycles <= mxu.gemm(4096, 4096, 4096).cycles

    def test_leakage_is_charged_for_the_busy_cycles(self, mxu):
        result = mxu.gemm(128, 1024, 256)
        seconds = result.cycles / (mxu.config.frequency_ghz * 1e9)
        assert result.energy.total_leakage == pytest.approx(mxu.leakage_power_w * seconds)

    def test_invalid_dimensions_rejected(self, mxu):
        with pytest.raises(ValueError):
            mxu.gemm(0, 128, 128)
