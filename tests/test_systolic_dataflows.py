"""Tests for the SCALE-Sim style systolic dataflow cycle models."""

import itertools

import pytest

from repro.systolic.dataflows import (
    Dataflow,
    output_stationary_cycles,
    systolic_gemm_cycles,
    weight_stationary_cycles,
)


class TestWeightStationary:
    def test_single_fold_formula(self):
        # One fold: cycles = R + M + R + C - 2.
        result = weight_stationary_cycles(64, 128, 128, 128, 128, double_buffered=False)
        assert result.folds == 1
        assert result.total_cycles == 128 + 64 + 128 + 128 - 2

    def test_fold_count(self):
        result = weight_stationary_cycles(10, 256, 384, 128, 128, double_buffered=False)
        assert result.folds == 2 * 3

    def test_gemv_utilization_is_poor(self):
        # A GEMV on a 128×128 array achieves very low utilisation because the
        # fill/drain skew dominates — the effect the paper's CIM-MXU removes.
        result = weight_stationary_cycles(1, 128, 128, 128, 128, double_buffered=False)
        assert result.utilization < 0.1

    def test_large_gemm_utilization_is_high(self):
        result = weight_stationary_cycles(4096, 2048, 2048, 128, 128, double_buffered=True)
        assert result.utilization > 0.8

    def test_double_buffering_helps_when_m_large(self):
        naive = weight_stationary_cycles(4096, 1024, 1024, 128, 128, double_buffered=False)
        buffered = weight_stationary_cycles(4096, 1024, 1024, 128, 128, double_buffered=True)
        assert buffered.total_cycles < naive.total_cycles

    def test_double_buffering_limited_by_weight_port_for_gemv(self):
        # With M << R the fold rate is limited by the weight load (R cycles),
        # so double buffering cannot make a fold cheaper than R.
        buffered = weight_stationary_cycles(1, 1024, 1024, 128, 128, double_buffered=True)
        folds = 8 * 8
        assert buffered.total_cycles >= folds * 128

    def test_macs_counted_exactly(self):
        result = weight_stationary_cycles(7, 100, 200, 128, 128, double_buffered=False)
        assert result.macs == 7 * 100 * 200


class TestOutputStationary:
    def test_single_fold_formula(self):
        result = output_stationary_cycles(128, 64, 128, 128, 128)
        assert result.folds == 1
        assert result.total_cycles == 64 + 128 + 128 - 2

    def test_fold_count_uses_m_and_n(self):
        result = output_stationary_cycles(256, 64, 384, 128, 128)
        assert result.folds == 2 * 3

    def test_no_weight_load_cycles(self):
        result = output_stationary_cycles(128, 128, 128, 128, 128)
        assert result.weight_load_cycles == 0


class TestDispatch:
    def test_dispatch_matches_direct_calls(self):
        ws = systolic_gemm_cycles(32, 256, 256, 128, 128, Dataflow.WEIGHT_STATIONARY)
        assert ws.total_cycles == weight_stationary_cycles(
            32, 256, 256, 128, 128, double_buffered=False).total_cycles

        ws_db = systolic_gemm_cycles(32, 256, 256, 128, 128, Dataflow.WEIGHT_STATIONARY_DB)
        assert ws_db.total_cycles == weight_stationary_cycles(
            32, 256, 256, 128, 128, double_buffered=True).total_cycles

        os_ = systolic_gemm_cycles(32, 256, 256, 128, 128, Dataflow.OUTPUT_STATIONARY)
        assert os_.total_cycles == output_stationary_cycles(32, 256, 256, 128, 128).total_cycles

    def test_utilization_never_exceeds_one(self):
        for dataflow in Dataflow:
            result = systolic_gemm_cycles(4096, 4096, 4096, 128, 128, dataflow)
            assert 0.0 < result.utilization <= 1.0

    @pytest.mark.parametrize("dataflow", list(Dataflow))
    def test_breakdown_accounts_for_every_cycle(self, dataflow):
        # Every cycle is fill/drain skew, visible weight load or streaming.
        for (m, k, n), (rows, cols) in itertools.product(
                itertools.product((1, 7, 128, 200, 4096), (1, 100, 128, 1024),
                                  (1, 128, 300)),
                ((128, 128), (32, 64))):
            result = systolic_gemm_cycles(m, k, n, rows, cols, dataflow)
            assert (result.fill_drain_cycles + result.weight_load_cycles
                    + result.streaming_cycles) == result.total_cycles

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            systolic_gemm_cycles(0, 128, 128, 128, 128)
        with pytest.raises(ValueError):
            systolic_gemm_cycles(128, 128, 128, 0, 128)
