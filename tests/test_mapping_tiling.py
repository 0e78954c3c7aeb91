"""Tests for tile shapes and VMEM tiling selection."""

import itertools

import pytest

from repro.common import Precision
from repro.mapping.tiling import TileShape, Tiling, choose_vmem_tiling, matmul_tile_bytes


class TestTileShape:
    def test_macs(self):
        assert TileShape(2, 3, 4).macs == 24

    def test_validation(self):
        with pytest.raises(ValueError):
            TileShape(0, 1, 1)


class TestTiling:
    def test_tile_counts(self):
        tiling = Tiling(problem=TileShape(100, 200, 300), tile=TileShape(50, 100, 100))
        assert tiling.m_tiles == 2
        assert tiling.k_tiles == 2
        assert tiling.n_tiles == 3
        assert tiling.num_tiles == 12

    def test_covers_problem(self):
        tiling = Tiling(problem=TileShape(100, 200, 300), tile=TileShape(64, 128, 128))
        assert tiling.covers_problem()

    def test_tile_larger_than_problem_rejected(self):
        with pytest.raises(ValueError):
            Tiling(problem=TileShape(10, 10, 10), tile=TileShape(20, 10, 10))


class TestTileBytes:
    def test_int8_footprint(self):
        tile = TileShape(4, 8, 16)
        assert matmul_tile_bytes(tile, Precision.INT8) == 4 * 8 + 8 * 16 + 4 * 16 * 4

    def test_without_output(self):
        tile = TileShape(4, 8, 16)
        assert matmul_tile_bytes(tile, Precision.INT8, include_output=False) == 4 * 8 + 8 * 16

    def test_bf16_larger(self):
        tile = TileShape(4, 8, 16)
        assert matmul_tile_bytes(tile, Precision.BF16) > matmul_tile_bytes(tile, Precision.INT8)


class TestChooseVmemTiling:
    def test_small_problem_untouched(self):
        tiling = choose_vmem_tiling(64, 64, 64, Precision.INT8, vmem_capacity_bytes=16 * 2**20)
        assert tiling.tile == TileShape(64, 64, 64)
        assert tiling.num_tiles == 1

    def test_large_problem_fits_budget(self):
        capacity = 16 * 2**20
        tiling = choose_vmem_tiling(8192, 7168, 21504, Precision.INT8, capacity)
        assert matmul_tile_bytes(tiling.tile, Precision.INT8) <= capacity // 2
        assert tiling.covers_problem()

    def test_double_buffering_halves_budget(self):
        capacity = 1 << 20
        single = choose_vmem_tiling(2048, 2048, 2048, Precision.INT8, capacity,
                                    double_buffered=False)
        double = choose_vmem_tiling(2048, 2048, 2048, Precision.INT8, capacity,
                                    double_buffered=True)
        assert matmul_tile_bytes(double.tile, Precision.INT8) <= \
            matmul_tile_bytes(single.tile, Precision.INT8)

    def test_gemv_tile_keeps_single_row(self):
        tiling = choose_vmem_tiling(1, 7168, 7168, Precision.INT8, 16 * 2**20)
        assert tiling.tile.m == 1
        assert tiling.covers_problem()

    def test_double_buffered_tile_may_fill_half_the_buffer(self):
        footprint = matmul_tile_bytes(TileShape(128, 128, 128), Precision.INT8)
        tiling = choose_vmem_tiling(128, 128, 128, Precision.INT8, 2 * footprint)
        assert tiling.num_tiles == 1

    def test_double_buffered_tile_over_half_the_buffer_is_split(self):
        footprint = matmul_tile_bytes(TileShape(128, 128, 128), Precision.INT8)
        tiling = choose_vmem_tiling(128, 128, 128, Precision.INT8, 2 * footprint - 1)
        assert tiling.num_tiles == 2
        assert 2 * matmul_tile_bytes(tiling.tile, Precision.INT8) <= 2 * footprint - 1

    def test_serialised_tile_may_fill_the_whole_buffer(self):
        footprint = matmul_tile_bytes(TileShape(128, 128, 128), Precision.INT8)
        assert choose_vmem_tiling(128, 128, 128, Precision.INT8, footprint,
                                  double_buffered=False).num_tiles == 1
        assert choose_vmem_tiling(128, 128, 128, Precision.INT8, footprint - 1,
                                  double_buffered=False).num_tiles == 2

    def test_impossible_budget_raises(self):
        with pytest.raises(MemoryError):
            choose_vmem_tiling(1, 4096, 4096, Precision.INT8, vmem_capacity_bytes=64)

    @pytest.mark.parametrize("precision", list(Precision))
    @pytest.mark.parametrize("double_buffered", [True, False])
    def test_matches_the_tile_shape_walk(self, precision, double_buffered):
        def walked(m, k, n, capacity):
            """Reference: the shrink loop sized through TileShape objects."""
            budget = capacity // (2 if double_buffered else 1)
            tile = TileShape(m, k, n)
            while matmul_tile_bytes(tile, precision) > budget:
                tm, tk, tn = tile.m, tile.k, tile.n
                if tm > 128 and tm >= tn:
                    tm = max(128, tm // 2)
                elif tn > 128:
                    tn = max(128, tn // 2)
                elif tk > 128:
                    tk = max(128, tk // 2)
                elif tm > 1:
                    tm = max(1, tm // 2)
                else:
                    return None
                tile = TileShape(tm, tk, tn)
            return tile

        dims = (1, 7, 128, 300, 4096, 11008, 65536)
        for (m, k, n), capacity in itertools.product(
                itertools.product(dims, repeat=3), (64 * 2**10, 16 * 2**20)):
            expected = walked(m, k, n, capacity)
            if expected is None:
                with pytest.raises(MemoryError):
                    choose_vmem_tiling(m, k, n, precision, capacity,
                                       double_buffered=double_buffered)
            else:
                tiling = choose_vmem_tiling(m, k, n, precision, capacity,
                                            double_buffered=double_buffered)
                assert (tiling.tile, tiling.problem) == (expected, TileShape(m, k, n))

