"""Property-based tests (hypothesis) for the core cost models and invariants."""

from hypothesis import given, settings, strategies as st

from repro.cim.mxu import CIMMXU, CIMMXUConfig
from repro.common import Precision, ceil_div
from repro.hw.energy import EnergyBudget
from repro.mapping.mapspace import PartitionDim, enumerate_candidates
from repro.mapping.schedule import overlapped_operator_latency
from repro.mapping.tiling import choose_vmem_tiling, matmul_tile_bytes
from repro.memory.interconnect import RingTopology
from repro.systolic.dataflows import Dataflow, systolic_gemm_cycles
from repro.vector.softmax import softmax_op_counts
from repro.workloads.operators import LayerCategory, MatMulOp

dims = st.integers(min_value=1, max_value=4096)
small_dims = st.integers(min_value=1, max_value=512)


class TestCeilDivProperties:
    @given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=10**6))
    def test_ceil_div_bounds(self, a, b):
        q = ceil_div(a, b)
        assert q * b >= a
        assert (q - 1) * b < a or q == 0


class TestSystolicProperties:
    @given(dims, dims, dims, st.sampled_from(list(Dataflow)))
    @settings(max_examples=60, deadline=None)
    def test_cycles_at_least_ideal(self, m, k, n, dataflow):
        result = systolic_gemm_cycles(m, k, n, 128, 128, dataflow)
        ideal = m * k * n / (128 * 128)
        assert result.total_cycles >= ideal
        assert 0.0 <= result.utilization <= 1.0

    @given(dims, dims, dims)
    @settings(max_examples=40, deadline=None)
    def test_double_buffering_never_hurts(self, m, k, n):
        naive = systolic_gemm_cycles(m, k, n, 128, 128, Dataflow.WEIGHT_STATIONARY)
        buffered = systolic_gemm_cycles(m, k, n, 128, 128, Dataflow.WEIGHT_STATIONARY_DB)
        assert buffered.total_cycles <= naive.total_cycles

    @given(small_dims, small_dims, small_dims)
    @settings(max_examples=40, deadline=None)
    def test_cycles_monotonic_in_m(self, m, k, n):
        shorter = systolic_gemm_cycles(m, k, n, 128, 128, Dataflow.WEIGHT_STATIONARY)
        longer = systolic_gemm_cycles(m + 7, k, n, 128, 128, Dataflow.WEIGHT_STATIONARY)
        assert longer.total_cycles >= shorter.total_cycles


class TestCIMMXUProperties:
    mxu = CIMMXU()

    @given(small_dims, dims, dims)
    @settings(max_examples=60, deadline=None)
    def test_cycles_at_least_ideal_and_utilization_bounded(self, m, k, n):
        result = self.mxu.gemm_cycles(m, k, n)
        ideal = m * k * n / self.mxu.macs_per_cycle
        assert result.total_cycles >= ideal * 0.999
        assert 0.0 <= result.utilization <= 1.0

    @given(small_dims, dims, dims, st.integers(min_value=1, max_value=64))
    @settings(max_examples=40, deadline=None)
    def test_batched_never_cheaper_than_single(self, m, k, n, instances):
        single = self.mxu.gemm_cycles(m, k, n, instances=1)
        batched = self.mxu.gemm_cycles(m, k, n, instances=instances)
        assert batched.total_cycles >= single.total_cycles
        assert batched.macs == instances * single.macs

    @given(small_dims, dims, dims)
    @settings(max_examples=40, deadline=None)
    def test_weight_residency_never_hurts(self, m, k, n):
        fresh = self.mxu.gemm_cycles(m, k, n, weights_resident=False)
        resident = self.mxu.gemm_cycles(m, k, n, weights_resident=True)
        assert resident.total_cycles <= fresh.total_cycles

    @given(st.integers(min_value=1, max_value=32), st.integers(min_value=1, max_value=32))
    @settings(max_examples=30, deadline=None)
    def test_leakage_scales_with_grid(self, rows, cols):
        mxu = CIMMXU(config=CIMMXUConfig(grid_rows=rows, grid_cols=cols))
        per_core = CIMMXU(config=CIMMXUConfig(grid_rows=1, grid_cols=1)).leakage_power_w
        assert abs(mxu.leakage_power_w - rows * cols * per_core) < 1e-9


class TestEnergyBudgetProperties:
    @given(st.lists(st.tuples(st.sampled_from(["mxu", "vpu", "hbm"]),
                              st.floats(min_value=0, max_value=1e3)), max_size=20))
    def test_total_is_sum_of_components(self, contributions):
        budget = EnergyBudget()
        for component, joules in contributions:
            budget.add_dynamic(component, joules)
        assert abs(budget.total - sum(j for _, j in contributions)) < 1e-6

    @given(st.floats(min_value=0, max_value=100), st.floats(min_value=0, max_value=100),
           st.floats(min_value=0, max_value=10))
    def test_scaling_is_linear(self, dynamic, leakage, factor):
        budget = EnergyBudget()
        budget.add_dynamic("mxu", dynamic)
        budget.add_leakage("mxu", leakage)
        assert abs(budget.scaled(factor).total - factor * budget.total) < 1e-6


class TestSchedulingProperties:
    @given(st.floats(min_value=0, max_value=1e9), st.floats(min_value=0, max_value=1e9),
           st.floats(min_value=0, max_value=1e9))
    def test_double_buffering_never_slower(self, compute, weights, activations):
        buffered = overlapped_operator_latency(compute, weights, activations,
                                               double_buffered=True)
        serial = overlapped_operator_latency(compute, weights, activations,
                                             double_buffered=False)
        assert buffered <= serial

    @given(st.floats(min_value=0, max_value=1e9), st.floats(min_value=0, max_value=1e9),
           st.floats(min_value=0, max_value=1e9))
    def test_operator_latency_bounds(self, compute, weights, activations):
        latency = overlapped_operator_latency(compute, weights, activations)
        assert latency >= max(compute, weights, activations) - 1e-9
        assert latency <= compute + weights + activations + 1e-9


class TestTilingProperties:
    @given(dims, dims, dims)
    @settings(max_examples=60, deadline=None)
    def test_chosen_tiling_fits_and_covers(self, m, k, n):
        capacity = 16 * 2**20
        tiling = choose_vmem_tiling(m, k, n, Precision.INT8, capacity)
        assert tiling.covers_problem()
        assert matmul_tile_bytes(tiling.tile, Precision.INT8) <= capacity // 2


class TestMapspaceProperties:
    @given(small_dims, dims, dims, st.integers(min_value=1, max_value=16),
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_candidates_cover_problem(self, m, k, n, batch, mxu_count):
        op = MatMulOp(name="p", category=LayerCategory.QKV_GEN, m=m, k=k, n=n, batch=batch)
        candidates = enumerate_candidates(op, mxu_count)
        assert candidates
        for candidate in candidates:
            if candidate.partition is PartitionDim.BATCH:
                assert candidate.instances_per_mxu * candidate.mxu_count >= batch
            elif candidate.partition is PartitionDim.M:
                assert candidate.m * candidate.mxu_count >= m
            elif candidate.partition is PartitionDim.N:
                assert candidate.n * candidate.mxu_count >= n
            elif candidate.partition is PartitionDim.K:
                assert candidate.k * candidate.mxu_count >= k
                assert candidate.needs_reduction


class TestSoftmaxProperties:
    @given(st.integers(min_value=1, max_value=1000), st.integers(min_value=1, max_value=4096))
    def test_ops_linear_in_rows(self, rows, length):
        one = softmax_op_counts(1, length)
        many = softmax_op_counts(rows, length)
        assert many.total_ops == rows * one.total_ops


class TestRingProperties:
    @given(st.integers(min_value=2, max_value=16), st.integers(min_value=1, max_value=2**24))
    @settings(max_examples=40, deadline=None)
    def test_all_reduce_at_least_bandwidth_bound(self, devices, payload):
        ring = RingTopology(num_devices=devices)
        cycles = ring.all_reduce_cycles(payload)
        lower_bound = 2 * (devices - 1) / devices * payload / ring.link.bytes_per_cycle
        assert cycles >= lower_bound - 1e-6
