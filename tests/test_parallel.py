"""Tests for the multi-TPU system under pipeline and tensor parallelism."""

import dataclasses

import pytest

from repro.common import Precision
from repro.core.designs import cim_tpu_default, design_a, tpuv4i_baseline
from repro.core.simulator import (
    DiTInferenceSettings,
    InferenceSimulator,
    LLMInferenceSettings,
)
from repro.memory.interconnect import ICILink, RingTopology
from repro.parallel.multi_device import MultiDeviceResult, MultiTPUSystem
from repro.workloads.llm import LLMConfig, llm_all_reduce_hops, tensor_shard_llm
from repro.workloads.dit import DiTConfig
from repro.workloads.moe import MoEConfig
from repro.workloads.registry import scenario_for


@pytest.fixture(scope="module")
def small_llm():
    return LLMConfig(name="mt-llm", num_layers=8, num_heads=16, d_model=2048, d_ff=8192)


@pytest.fixture(scope="module")
def small_dit():
    return DiTConfig(name="mt-dit", depth=8, num_heads=8, d_model=512)


@pytest.fixture(scope="module")
def small_llm_settings():
    return LLMInferenceSettings(batch=4, input_tokens=128, output_tokens=32, decode_kv_samples=2)


@pytest.fixture(scope="module")
def small_dit_settings():
    return DiTInferenceSettings(batch=2, image_resolution=256, sampling_steps=4)


class TestMultiTPUSystem:
    def test_llm_throughput_scales_with_devices(self, small_llm, small_llm_settings):
        results = [MultiTPUSystem(cim_tpu_default(), n).simulate_llm(small_llm, small_llm_settings)
                   for n in (1, 2, 4)]
        throughputs = [r.throughput for r in results]
        assert throughputs[1] > throughputs[0]
        assert throughputs[2] > throughputs[1]

    def test_dit_throughput_scales_with_devices(self, small_dit, small_dit_settings):
        one = MultiTPUSystem(cim_tpu_default(), 1).simulate_dit(small_dit, small_dit_settings)
        four = MultiTPUSystem(cim_tpu_default(), 4).simulate_dit(small_dit, small_dit_settings)
        assert four.throughput > 2 * one.throughput

    def test_single_device_has_no_communication(self, small_llm, small_llm_settings):
        result = MultiTPUSystem(cim_tpu_default(), 1).simulate_llm(small_llm, small_llm_settings)
        assert result.communication_seconds == 0.0

    def test_multi_device_has_communication(self, small_llm, small_llm_settings):
        result = MultiTPUSystem(cim_tpu_default(), 4).simulate_llm(small_llm, small_llm_settings)
        assert result.communication_seconds > 0.0

    def test_design_a_beats_baseline_llm_throughput(self, small_llm, small_llm_settings):
        base = MultiTPUSystem(tpuv4i_baseline(), 4).simulate_llm(small_llm, small_llm_settings)
        design = MultiTPUSystem(design_a(), 4).simulate_llm(small_llm, small_llm_settings)
        assert design.throughput > base.throughput
        assert design.mxu_energy_joules < base.mxu_energy_joules

    def test_energy_independent_of_device_count(self, small_llm, small_llm_settings):
        # The same total work is done regardless of how many devices share it.
        one = MultiTPUSystem(cim_tpu_default(), 1).simulate_llm(small_llm, small_llm_settings)
        four = MultiTPUSystem(cim_tpu_default(), 4).simulate_llm(small_llm, small_llm_settings)
        assert four.mxu_energy_joules == pytest.approx(one.mxu_energy_joules, rel=1e-6)

    def test_energy_per_item(self, small_llm, small_llm_settings):
        result = MultiTPUSystem(cim_tpu_default(), 2).simulate_llm(small_llm, small_llm_settings)
        assert result.energy_per_item == pytest.approx(
            result.mxu_energy_joules / result.items_per_group)

    def test_custom_link(self, small_llm, small_llm_settings):
        slow_link = ICILink(bandwidth_gbps=10.0)
        fast = MultiTPUSystem(cim_tpu_default(), 4).simulate_llm(small_llm, small_llm_settings)
        slow = MultiTPUSystem(cim_tpu_default(), 4, link=slow_link).simulate_llm(
            small_llm, small_llm_settings)
        assert slow.communication_seconds > fast.communication_seconds

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiTPUSystem(cim_tpu_default(), 0)


class TestTensorParallel:
    """The Megatron-style shard and all-reduce volumes the tensor mode prices."""

    def setup_method(self):
        self.llm = LLMConfig(name="tp-shard", num_layers=4, num_heads=32,
                             d_model=4096, d_ff=16384)

    def test_shard_divides_heads_and_ffn(self):
        shard = tensor_shard_llm(self.llm, 4)
        assert (shard.num_heads, shard.d_ff) == (8, 4096)
        assert (shard.d_model, shard.num_layers, shard.vocab_size) == \
            (self.llm.d_model, self.llm.num_layers, self.llm.vocab_size)

    def test_shard_keeps_the_head_dim(self):
        # Fewer heads per device, each as wide as before.
        shard = tensor_shard_llm(self.llm, 4)
        assert shard.layer_config().resolved_head_dim == \
            self.llm.layer_config().resolved_head_dim == 128

    def test_degree_one_is_identity(self):
        assert tensor_shard_llm(self.llm, 1) is self.llm

    def test_uneven_shard_rejected(self):
        with pytest.raises(ValueError, match="evenly"):
            tensor_shard_llm(self.llm, 5)
        uneven_ffn = LLMConfig(name="odd-ffn", num_layers=2, num_heads=8,
                               d_model=512, d_ff=1020)
        with pytest.raises(ValueError, match="evenly"):
            tensor_shard_llm(uneven_ffn, 8)

    def test_moe_model_is_not_sharded(self):
        moe = MoEConfig(name="tp-moe", num_layers=2, num_heads=8, d_model=512,
                        d_ff=1024, num_experts=4, top_k=2)
        with pytest.raises(ValueError, match="dense"):
            tensor_shard_llm(moe, 2)

    def test_allreduce_bytes(self, small_llm_settings):
        settings = small_llm_settings
        prefill, decode = llm_all_reduce_hops(self.llm, settings)
        assert prefill.bytes == settings.batch * settings.input_tokens * 4096
        assert prefill.count == 2 * 4
        assert decode.bytes == settings.batch * 4096
        assert decode.count == 2 * 4 * settings.output_tokens

    def test_allreduce_bytes_follow_the_precision(self, small_llm_settings):
        bf16 = dataclasses.replace(small_llm_settings, precision=Precision.BF16)
        int8_hops = llm_all_reduce_hops(self.llm, small_llm_settings)
        bf16_hops = llm_all_reduce_hops(self.llm, bf16)
        assert [hop.bytes for hop in bf16_hops] == [2 * hop.bytes for hop in int8_hops]
        assert [hop.count for hop in bf16_hops] == [hop.count for hop in int8_hops]

    def test_communication_zero_for_single_device(self, small_llm, small_llm_settings):
        result = MultiTPUSystem(cim_tpu_default(), 1, parallelism="tensor").simulate_llm(
            small_llm, small_llm_settings)
        assert result.communication_seconds == 0.0

    def test_communication_grows_with_tokens(self, small_llm, small_llm_settings):
        system = MultiTPUSystem(cim_tpu_default(), 4, parallelism="tensor")
        longer = dataclasses.replace(small_llm_settings,
                                     input_tokens=2 * small_llm_settings.input_tokens)
        assert system.simulate_llm(small_llm, longer).communication_seconds > \
            system.simulate_llm(small_llm, small_llm_settings).communication_seconds

    def test_communication_is_the_ring_all_reduce(self, small_llm, small_llm_settings):
        system = MultiTPUSystem(cim_tpu_default(), 4, parallelism="tensor")
        ring = RingTopology(num_devices=4, link=system.link)
        cycles = sum(hop.count * ring.all_reduce_cycles(hop.bytes)
                     for hop in llm_all_reduce_hops(small_llm, small_llm_settings))
        result = system.simulate_llm(small_llm, small_llm_settings)
        assert result.communication_seconds == pytest.approx(
            cycles / (system.link.frequency_ghz * 1e9), rel=1e-12)

    def test_each_device_runs_the_shard(self, small_llm, small_llm_settings):
        tensor = MultiTPUSystem(cim_tpu_default(), 4, parallelism="tensor").simulate_llm(
            small_llm, small_llm_settings)
        shard = MultiTPUSystem(cim_tpu_default(), 1).simulate_llm(
            tensor_shard_llm(small_llm, 4), small_llm_settings)
        assert tensor.stage_occupancy_seconds == pytest.approx(
            shard.stage_occupancy_seconds, rel=1e-12)

    def test_energy_counts_every_shard(self, small_llm, small_llm_settings):
        tensor = MultiTPUSystem(cim_tpu_default(), 4, parallelism="tensor").simulate_llm(
            small_llm, small_llm_settings)
        shard = MultiTPUSystem(cim_tpu_default(), 1).simulate_llm(
            tensor_shard_llm(small_llm, 4), small_llm_settings)
        assert tensor.mxu_energy_joules == pytest.approx(4 * shard.mxu_energy_joules, rel=1e-12)
        assert tensor.total_energy_joules == pytest.approx(
            4 * shard.total_energy_joules, rel=1e-12)


class TestPipelineParallel:
    """Fig. 8's steady-state ring: the bottleneck stage sets the throughput."""

    @staticmethod
    def occupancy(llm, settings, devices):
        return MultiTPUSystem(cim_tpu_default(), devices).simulate_llm(
            llm, settings).stage_occupancy_seconds

    def test_plan_layers_per_stage(self, small_llm, small_llm_settings):
        # Eight layers over four devices: each stage owns two of them.
        one = self.occupancy(small_llm, small_llm_settings, 1)
        assert self.occupancy(small_llm, small_llm_settings, 4) == \
            pytest.approx(one * 2 / 8, rel=1e-12)

    def test_uneven_split_prices_the_bottleneck_stage(self, small_llm, small_llm_settings):
        # Eight layers over three devices: the busiest stage owns three.
        one = self.occupancy(small_llm, small_llm_settings, 1)
        assert self.occupancy(small_llm, small_llm_settings, 3) == \
            pytest.approx(one * 3 / 8, rel=1e-12)

    def test_devices_beyond_the_layer_count_add_nothing(self, small_llm,
                                                        small_llm_settings):
        eight = MultiTPUSystem(cim_tpu_default(), 8).simulate_llm(small_llm, small_llm_settings)
        sixteen = MultiTPUSystem(cim_tpu_default(), 16).simulate_llm(
            small_llm, small_llm_settings)
        assert sixteen.throughput == eight.throughput

    def test_no_fill_or_drain_bubble(self, small_llm, small_llm_settings):
        # With free communication, four stages give exactly four times the
        # throughput: no (micro-batches + stages - 1) schedule is charged.
        free = ICILink(bandwidth_gbps=1e9, latency_us=0.0)
        one = MultiTPUSystem(cim_tpu_default(), 1).simulate_llm(small_llm, small_llm_settings)
        four = MultiTPUSystem(cim_tpu_default(), 4, link=free).simulate_llm(
            small_llm, small_llm_settings)
        assert four.throughput == pytest.approx(4 * one.throughput, rel=1e-6)

    def test_communication_is_one_hop_per_boundary(self, small_llm, small_llm_settings):
        system = MultiTPUSystem(cim_tpu_default(), 4)
        hops = scenario_for(small_llm).build(small_llm, small_llm_settings).hops
        cycles = sum(hop.count * system.topology.point_to_point_cycles(hop.bytes)
                     for hop in hops)
        result = system.simulate_llm(small_llm, small_llm_settings)
        assert result.communication_seconds == pytest.approx(
            cycles / (system.link.frequency_ghz * 1e9), rel=1e-12)

    def test_idle_result_reports_zero(self):
        result = MultiDeviceResult(
            model_name="m", tpu_name="t", num_devices=2, stage_occupancy_seconds=0.0,
            communication_seconds=0.0, items_per_group=0.0, item_unit="token",
            mxu_energy_joules=0.0, total_energy_joules=0.0)
        assert result.throughput == 0.0
        assert result.energy_per_item == 0.0

    def test_injected_simulator_must_match_the_tpu(self):
        with pytest.raises(ValueError, match="configured for"):
            MultiTPUSystem(cim_tpu_default(), 2,
                           simulator=InferenceSimulator(tpuv4i_baseline()))
