"""Tests for the mapping engine."""

import dataclasses

import pytest

from repro.cim.mxu import CIMMXU
from repro.mapping.engine import MappingEngine, MappingObjective
from repro.mapping.mapspace import PartitionDim
from repro.mapping.schedule import ScheduleOptions
from repro.mapping.tiling import matmul_tile_bytes
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.sram import vmem_default
from repro.systolic.systolic_array import DigitalMXU
from repro.vector.vpu import VectorUnit
from repro.workloads.operators import LayerCategory, MatMulOp, OperandSource


def make_engine(mxu=None, schedule=None, objective=MappingObjective.LATENCY,
                hierarchy=None):
    return MappingEngine(
        mxu_template=mxu if mxu is not None else DigitalMXU(),
        mxu_count=4,
        hierarchy=hierarchy if hierarchy is not None else MemoryHierarchy(),
        vpu=VectorUnit(),
        schedule=schedule if schedule is not None else ScheduleOptions(),
        objective=objective,
    )


def make_matmul(m, k, n, batch=1, stationary=True, weight_source=OperandSource.HBM):
    return MatMulOp(name="op", category=LayerCategory.QKV_GEN, m=m, k=k, n=n, batch=batch,
                    stationary_weights=stationary, weight_source=weight_source)


class TestMapMatmul:
    def test_best_mapping_is_minimum_latency(self):
        engine = make_engine()
        op = make_matmul(4096, 4096, 4096)
        best = engine.map_matmul(op)
        all_mappings = engine.evaluate_all(op)
        assert best.total_cycles == min(m.total_cycles for m in all_mappings)

    def test_large_prefill_gemm_is_compute_bound(self):
        engine = make_engine()
        mapping = engine.map_matmul(make_matmul(8192, 7168, 21504))
        assert mapping.bound == "compute"

    def test_decode_gemv_is_memory_bound_on_cim(self):
        engine = make_engine(mxu=CIMMXU())
        mapping = engine.map_matmul(make_matmul(8, 7168, 21504))
        assert mapping.bound == "memory"

    def test_batched_attention_uses_batch_partition(self):
        engine = make_engine()
        op = make_matmul(1024, 72, 1024, batch=128, stationary=False,
                         weight_source=OperandSource.CMEM)
        mapping = engine.map_matmul(op)
        assert mapping.candidate.partition is PartitionDim.BATCH

    def test_utilization_bounded(self):
        engine = make_engine()
        for shape in [(1, 7168, 7168), (8192, 7168, 7168), (64, 64, 64)]:
            mapping = engine.map_matmul(make_matmul(*shape))
            assert 0.0 <= mapping.utilization <= 1.0

    def test_energy_positive_and_has_mxu_component(self):
        engine = make_engine()
        mapping = engine.map_matmul(make_matmul(512, 1024, 1024))
        assert mapping.energy.component_total("mxu") > 0
        assert mapping.energy.total > 0

    def test_cmem_resident_weights_avoid_hbm(self):
        engine = make_engine()
        hbm_op = make_matmul(1, 7168, 7168, stationary=False, weight_source=OperandSource.HBM)
        cmem_op = make_matmul(1, 7168, 7168, stationary=False, weight_source=OperandSource.CMEM)
        hbm_mapping = engine.map_matmul(hbm_op)
        cmem_mapping = engine.map_matmul(cmem_op)
        assert cmem_mapping.weight_transfer_cycles < hbm_mapping.weight_transfer_cycles

    def test_double_buffering_reduces_latency_for_memory_heavy_op(self):
        buffered = make_engine(schedule=ScheduleOptions(double_buffering=True))
        serial = make_engine(schedule=ScheduleOptions(double_buffering=False))
        op = make_matmul(8, 7168, 21504)
        assert buffered.map_matmul(op).total_cycles < serial.map_matmul(op).total_cycles

    def test_k_partition_charges_reduction(self):
        engine = make_engine()
        op = make_matmul(1, 16384, 128)
        mappings = engine.evaluate_all(op)
        k_mapping = next(m for m in mappings if m.candidate.partition is PartitionDim.K)
        assert k_mapping.reduction_cycles > 0

    def test_energy_objective_changes_choice_criterion(self):
        latency_engine = make_engine(objective=MappingObjective.LATENCY)
        energy_engine = make_engine(objective=MappingObjective.ENERGY)
        op = make_matmul(2048, 2048, 2048)
        latency_best = latency_engine.map_matmul(op)
        energy_best = energy_engine.map_matmul(op)
        assert energy_best.energy.total <= latency_best.energy.total * (1 + 1e-9)

    def test_cim_engine_runs_all_shapes(self):
        engine = make_engine(mxu=CIMMXU())
        for shape, batch in [((8192, 1152, 3456), 1), ((1, 128, 1280), 448), ((8, 7168, 7168), 1)]:
            mapping = engine.map_matmul(make_matmul(*shape, batch=batch, stationary=batch == 1))
            assert mapping.total_cycles > 0

    def test_invalid_mxu_count_rejected(self):
        with pytest.raises(ValueError):
            MappingEngine(mxu_template=DigitalMXU(), mxu_count=0,
                          hierarchy=MemoryHierarchy(), vpu=VectorUnit())


#: Operators from compute-bound prefill to memory-bound decode, one of them
#: K-partitionable so reduction cycles are exercised too.
SCHEDULED_OPS = [(4096, 4096, 4096), (8, 7168, 21504), (1, 16384, 128), (512, 1024, 1024)]


class TestDoubleBuffering:
    """The engine combines compute and transfers with the one operator rule."""

    @pytest.mark.parametrize("shape", SCHEDULED_OPS)
    def test_buffered_latency_is_the_max_of_compute_and_transfers(self, shape):
        for mapping in make_engine().evaluate_all(make_matmul(*shape)):
            assert mapping.total_cycles == max(
                mapping.compute_cycles, mapping.weight_transfer_cycles,
                mapping.activation_transfer_cycles) + mapping.reduction_cycles

    @pytest.mark.parametrize("shape", SCHEDULED_OPS)
    def test_serialised_latency_adds_the_slower_transfer(self, shape):
        engine = make_engine(schedule=ScheduleOptions(double_buffering=False))
        for mapping in engine.evaluate_all(make_matmul(*shape)):
            assert mapping.total_cycles == mapping.compute_cycles + max(
                mapping.weight_transfer_cycles,
                mapping.activation_transfer_cycles) + mapping.reduction_cycles

    def test_double_buffering_never_slower(self):
        buffered = make_engine()
        serial = make_engine(schedule=ScheduleOptions(double_buffering=False))
        for shape in SCHEDULED_OPS:
            op = make_matmul(*shape)
            for fast, slow in zip(buffered.evaluate_all(op), serial.evaluate_all(op)):
                assert fast.candidate == slow.candidate
                assert fast.total_cycles <= slow.total_cycles

    def test_compute_bound_op_hides_its_transfers(self):
        mapping = make_engine().map_matmul(make_matmul(8192, 7168, 21504))
        assert mapping.total_cycles == mapping.compute_cycles + mapping.reduction_cycles

    def test_tiles_fit_half_the_hierarchy_vmem(self):
        engine = make_engine()
        capacity = engine.hierarchy.vmem.config.capacity_bytes
        op = make_matmul(8192, 7168, 21504)
        for mapping in engine.evaluate_all(op):
            assert matmul_tile_bytes(mapping.tiling.tile, op.precision) <= capacity // 2

    def test_smaller_vmem_gives_more_tiles(self):
        small_vmem = dataclasses.replace(vmem_default(), capacity_bytes=1 << 20)
        default = make_engine().map_matmul(make_matmul(4096, 4096, 4096))
        small = make_engine(hierarchy=MemoryHierarchy(vmem=small_vmem)).map_matmul(
            make_matmul(4096, 4096, 4096))
        assert small.candidate == default.candidate
        assert small.tiling.num_tiles > default.tiling.num_tiles
