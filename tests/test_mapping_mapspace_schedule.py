"""Tests for mapspace enumeration and the scheduling model."""

import pytest

from repro.mapping.mapspace import MappingCandidate, PartitionDim, enumerate_candidates
from repro.mapping.schedule import ScheduleOptions, overlapped_operator_latency
from repro.workloads.operators import LayerCategory, MatMulOp


def make_matmul(m, k, n, batch=1, name="mm"):
    return MatMulOp(name=name, category=LayerCategory.QKV_GEN, m=m, k=k, n=n, batch=batch)


class TestEnumerateCandidates:
    def test_large_gemm_offers_m_and_n_splits(self):
        candidates = enumerate_candidates(make_matmul(8192, 7168, 21504), mxu_count=4)
        dims = {c.partition for c in candidates}
        assert PartitionDim.M in dims
        assert PartitionDim.N in dims

    def test_batched_op_offers_batch_split(self):
        candidates = enumerate_candidates(make_matmul(1024, 72, 1024, batch=128), mxu_count=4)
        batch_candidates = [c for c in candidates if c.partition is PartitionDim.BATCH]
        assert len(batch_candidates) == 1
        assert batch_candidates[0].instances_per_mxu == 32

    def test_gemv_does_not_split_m(self):
        candidates = enumerate_candidates(make_matmul(1, 7168, 7168), mxu_count=4)
        assert all(c.partition is not PartitionDim.M for c in candidates)

    def test_k_split_only_for_k_dominant_shapes(self):
        gemv = enumerate_candidates(make_matmul(1, 16384, 128), mxu_count=4)
        assert any(c.partition is PartitionDim.K for c in gemv)
        square = enumerate_candidates(make_matmul(4096, 4096, 4096), mxu_count=4)
        assert all(c.partition is not PartitionDim.K for c in square)

    def test_k_split_flags_reduction(self):
        candidates = enumerate_candidates(make_matmul(1, 16384, 128), mxu_count=4)
        k_candidate = next(c for c in candidates if c.partition is PartitionDim.K)
        assert k_candidate.needs_reduction

    def test_shards_cover_problem(self):
        op = make_matmul(1000, 3000, 5000)
        for candidate in enumerate_candidates(op, mxu_count=4):
            if candidate.partition is PartitionDim.M:
                assert candidate.m * candidate.mxu_count >= op.m
            elif candidate.partition is PartitionDim.N:
                assert candidate.n * candidate.mxu_count >= op.n
            elif candidate.partition is PartitionDim.K:
                assert candidate.k * candidate.mxu_count >= op.k

    def test_tiny_op_gets_single_mxu_fallback(self):
        candidates = enumerate_candidates(make_matmul(1, 2, 2), mxu_count=4)
        assert len(candidates) >= 1
        assert candidates[-1].mxu_count >= 1

    def test_invalid_mxu_count(self):
        with pytest.raises(ValueError):
            enumerate_candidates(make_matmul(10, 10, 10), mxu_count=0)

    def test_candidate_validation(self):
        with pytest.raises(ValueError):
            MappingCandidate(partition=PartitionDim.M, mxu_count=0, instances_per_mxu=1,
                             m=1, k=1, n=1)


class TestScheduleOptions:
    def test_describe(self):
        assert "double-buffered" in ScheduleOptions().describe()
        assert "serialised" in ScheduleOptions(double_buffering=False).describe()

    def test_describe_coalescing(self):
        assert "coalesced" in ScheduleOptions().describe()
        assert "strided" in ScheduleOptions(memory_coalescing=False).describe()


class TestOverlappedOperatorLatency:
    def test_compute_bound(self):
        assert overlapped_operator_latency(100, 20, 30) == 100

    def test_memory_bound(self):
        assert overlapped_operator_latency(10, 80, 30) == 80

    def test_transfers_run_in_parallel_with_each_other(self):
        # Weight (HBM) and activation (OCI) streams use separate resources.
        assert overlapped_operator_latency(10, 80, 70) == 80

    def test_serialised(self):
        assert overlapped_operator_latency(100, 20, 30, double_buffered=False) == 130

    def test_serialised_charges_only_the_slower_transfer(self):
        assert overlapped_operator_latency(10, 80, 70, double_buffered=False) == 90

    @pytest.mark.parametrize("double_buffered", [True, False])
    def test_no_compute_costs_the_transfer_time(self, double_buffered):
        assert overlapped_operator_latency(0, 50, 20, double_buffered=double_buffered) == 50

    def test_validation(self):
        with pytest.raises(ValueError):
            overlapped_operator_latency(-1, 0, 0)

    def test_negative_transfers_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            overlapped_operator_latency(10, -1, 0)
        with pytest.raises(ValueError, match="non-negative"):
            overlapped_operator_latency(10, 0, -1)
