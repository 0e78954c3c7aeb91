"""Tests for memory-capacity planning."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.analysis.capacity import (
    ModelFootprint,
    dit_footprint,
    fleet_lower_bound,
    llm_footprint,
    llm_weight_bytes,
    plan_capacity,
    serving_kv_budget,
)
from repro.common import Precision
from repro.core.designs import tpuv4i_baseline
from repro.serving.faults import parse_fault
from repro.serving.metrics import SLO
from repro.serving.spec import ServingSpec
from repro.serving.trace import parse_overlay
from repro.sweep.store import ResultStore
from repro.workloads.chat import RequestClass
from repro.workloads.dit import DIT_XL_2
from repro.workloads.llm import GPT3_30B, LLAMA2_7B, LLMConfig
from repro.workloads.scenario import LLMInferenceSettings


class TestFootprints:
    def test_gpt3_30b_weights_around_30_gb_int8(self):
        footprint = llm_footprint(GPT3_30B, batch=8, context_tokens=1536)
        assert 25 * 2**30 < footprint.weight_bytes < 35 * 2**30

    def test_kv_cache_scales_with_batch_and_context(self):
        small = llm_footprint(GPT3_30B, batch=1, context_tokens=512)
        large = llm_footprint(GPT3_30B, batch=8, context_tokens=1024)
        assert large.kv_cache_bytes == 16 * small.kv_cache_bytes

    def test_bf16_doubles_weights(self):
        int8 = llm_footprint(LLAMA2_7B, batch=1, context_tokens=512, precision=Precision.INT8)
        bf16 = llm_footprint(LLAMA2_7B, batch=1, context_tokens=512, precision=Precision.BF16)
        assert bf16.weight_bytes == 2 * int8.weight_bytes

    def test_dit_has_no_kv_cache(self):
        footprint = dit_footprint(DIT_XL_2, batch=8)
        assert footprint.kv_cache_bytes == 0
        assert footprint.weight_bytes > 0

    def test_dit_weights_under_a_gigabyte_int8(self):
        # DiT-XL/2 is a ~675 M parameter model.
        footprint = dit_footprint(DIT_XL_2, batch=1)
        assert footprint.weight_bytes < 2**30

    def test_total_and_gib(self):
        footprint = ModelFootprint("m", weight_bytes=2**30, kv_cache_bytes=2**29,
                                   activation_bytes=2**29)
        assert footprint.total_bytes == 2 * 2**30
        assert footprint.total_gib == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelFootprint("m", weight_bytes=-1, kv_cache_bytes=0, activation_bytes=0)
        with pytest.raises(ValueError):
            llm_footprint(GPT3_30B, batch=0, context_tokens=10)
        with pytest.raises(ValueError):
            dit_footprint(DIT_XL_2, batch=1, image_resolution=0)


class TestCapacityPlan:
    def test_gpt3_30b_needs_multiple_tpuv4i(self):
        footprint = llm_footprint(GPT3_30B, batch=8, context_tokens=1536)
        plan = plan_capacity(footprint, tpuv4i_baseline())
        assert not plan.fits_single_device
        assert plan.min_devices >= 4
        assert plan.suggested_parallelism == "pipeline"

    def test_dit_fits_one_device(self):
        footprint = dit_footprint(DIT_XL_2, batch=8)
        plan = plan_capacity(footprint, tpuv4i_baseline())
        assert plan.fits_single_device
        assert plan.min_devices == 1
        assert plan.suggested_parallelism == "single-device"

    def test_kv_dominated_footprint_suggests_tensor_parallelism(self):
        footprint = ModelFootprint("kv-heavy", weight_bytes=4 * 2**30,
                                   kv_cache_bytes=20 * 2**30, activation_bytes=0)
        plan = plan_capacity(footprint, tpuv4i_baseline())
        assert plan.suggested_parallelism == "tensor"

    def test_memory_per_device(self):
        footprint = ModelFootprint("m", weight_bytes=16 * 2**30, kv_cache_bytes=0,
                                   activation_bytes=0)
        plan = plan_capacity(footprint, tpuv4i_baseline())
        assert plan.memory_per_device_bytes == pytest.approx(
            footprint.total_bytes / plan.min_devices)

    def test_footprint_at_usable_memory_fits_one_device(self):
        # Usable memory is HBM capacity times the utilisation bound.
        usable = int(tpuv4i_baseline().main_memory_bytes * 0.9)
        at = ModelFootprint("at", weight_bytes=usable, kv_cache_bytes=0, activation_bytes=0)
        over = ModelFootprint("over", weight_bytes=usable + 1, kv_cache_bytes=0,
                              activation_bytes=0)
        assert plan_capacity(at, tpuv4i_baseline()).min_devices == 1
        assert plan_capacity(over, tpuv4i_baseline()).min_devices == 2

    def test_full_utilisation_uses_all_of_hbm(self):
        tpu = tpuv4i_baseline()
        hbm = ModelFootprint("hbm", weight_bytes=8 * 2**30, kv_cache_bytes=0,
                             activation_bytes=0)
        assert tpu.main_memory_bytes == 8 * 2**30
        assert plan_capacity(hbm, tpu, memory_utilisation=1.0).fits_single_device
        assert not plan_capacity(hbm, tpu).fits_single_device

    def test_utilisation_bound_validation(self):
        footprint = dit_footprint(DIT_XL_2, batch=1)
        with pytest.raises(ValueError):
            plan_capacity(footprint, tpuv4i_baseline(), memory_utilisation=0.0)


class TestServingKvBudget:
    def test_budget_below_usable_memory(self):
        budget = serving_kv_budget(LLAMA2_7B, tpuv4i_baseline())
        usable = int(tpuv4i_baseline().main_memory_bytes * 0.9)
        assert budget < usable
        assert budget == usable - llm_weight_bytes(LLAMA2_7B) - 2 * 32 * (
            LLAMA2_7B.d_model + LLAMA2_7B.d_ff)

    def test_non_positive_when_weights_exceed_memory(self):
        assert serving_kv_budget(GPT3_30B, tpuv4i_baseline(), devices=1) < 0

    def test_devices_widen_the_budget(self):
        one = serving_kv_budget(LLAMA2_7B, tpuv4i_baseline(), devices=1)
        four = serving_kv_budget(LLAMA2_7B, tpuv4i_baseline(), devices=4)
        assert four > one

    def test_validation(self):
        with pytest.raises(ValueError):
            serving_kv_budget(LLAMA2_7B, tpuv4i_baseline(), devices=0)
        with pytest.raises(ValueError):
            serving_kv_budget(LLAMA2_7B, tpuv4i_baseline(), memory_utilisation=0.0)


# --------------------------------------------------------------- properties
#: Small-but-varied model shapes for the property tests.
model_configs = st.builds(
    LLMConfig,
    name=st.just("prop-llm"),
    num_layers=st.integers(min_value=1, max_value=48),
    num_heads=st.sampled_from([8, 16, 32, 56]),
    d_model=st.sampled_from([512, 1024, 4096, 7168]),
    d_ff=st.sampled_from([2048, 8192, 28672]),
    vocab_size=st.sampled_from([1000, 32000]),
    head_dim=st.sampled_from([32, 64, 128]),  # decoupled from d_model/num_heads
)


class TestCapacityProperties:
    @given(model=model_configs,
           batch=st.integers(min_value=1, max_value=32),
           shorter=st.integers(min_value=1, max_value=30_000),
           extra=st.integers(min_value=1, max_value=30_000))
    @settings(max_examples=60, deadline=None)
    def test_min_devices_monotone_in_context_length(self, model, batch, shorter, extra):
        """Growing the context can never shrink the deployment."""
        tpu = tpuv4i_baseline()
        small = plan_capacity(llm_footprint(model, batch, shorter), tpu)
        large = plan_capacity(llm_footprint(model, batch, shorter + extra), tpu)
        assert large.min_devices >= small.min_devices

    @given(model=model_configs,
           devices=st.integers(min_value=1, max_value=16),
           max_batch=st.integers(min_value=1, max_value=64),
           contexts=st.lists(st.integers(min_value=1, max_value=32768),
                             min_size=1, max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_admission_never_exceeds_hbm(self, model, devices, max_batch, contexts):
        """The scheduler's greedy reservation rule keeps every admitted batch
        (weights + committed KV + decode working set) within device memory."""
        tpu = tpuv4i_baseline()
        utilisation = 0.9
        budget = serving_kv_budget(model, tpu, devices=devices, max_batch=max_batch,
                                   precision=Precision.INT8,
                                   memory_utilisation=utilisation)
        # A non-positive budget means the engine refuses to serve at all.
        assume(budget > 0)
        per_token = model.kv_cache_bytes(1, 1)
        reserved = 0
        admitted = 0
        for context in contexts:  # the engine's admission rule, verbatim
            if admitted >= max_batch:
                break
            need = context * per_token
            if reserved + need > budget:
                break
            reserved += need
            admitted += 1
        working_set = 2 * max_batch * (model.d_model + model.d_ff)
        footprint = llm_weight_bytes(model) + reserved + working_set
        assert footprint <= devices * int(tpu.main_memory_bytes * utilisation)


class TestPlanFleet:
    """Fleet sizing: smallest replica count meeting an SLO at a rate."""

    MODEL = LLMConfig(name="fleet-test-llm", num_layers=4, num_heads=16,
                      d_model=2048, d_ff=8192, vocab_size=32000)
    MIX = (RequestClass(input_tokens=64, output_tokens=16),)

    #: Scenario settings whose one-class request mix is ``MIX``.
    SETTINGS = LLMInferenceSettings(batch=1, input_tokens=64, output_tokens=16)

    def plan(self, *, attainment_target=0.9, max_replicas=6, store=None,
             **spec_fields):
        from repro.analysis.capacity import plan_fleet

        fields = dict(arrival_rate=10.0, slo=SLO(ttft_s=2.0, tpot_s=0.2),
                      num_requests=60, seed=3,
                      router="least-outstanding-requests")
        fields.update(spec_fields)
        return plan_fleet(self.MODEL, tpuv4i_baseline(), ServingSpec(**fields),
                          self.SETTINGS, attainment_target=attainment_target,
                          max_replicas=max_replicas, store=store)

    def test_easy_load_needs_one_replica(self):
        plan = self.plan(arrival_rate=2.0)
        assert plan.met
        assert plan.replicas == 1
        assert plan.evaluations[-1].slo_attainment >= 0.9

    def test_plan_records_every_evaluation(self):
        plan = self.plan()
        counts = [evaluation.replicas for evaluation in plan.evaluations]
        assert counts == sorted(counts)
        assert len(set(counts)) == len(counts)
        if plan.met:
            assert plan.replicas == counts[-1]

    def test_impossible_target_reports_unmet(self):
        # A TPOT target below one decode step can never be met.
        plan = self.plan(slo=SLO(ttft_s=1e-6, tpot_s=1e-6), max_replicas=2)
        assert not plan.met
        assert plan.replicas is None
        assert plan.evaluations  # the tried fleets are still reported

    def test_capacity_lower_bound_skips_hopeless_fleets(self):
        heavy = self.plan(arrival_rate=2000.0, max_replicas=10)
        assert heavy.evaluations[0].replicas > 1

    def test_fleet_lower_bound_monotone_in_rate(self):
        # The extracted estimate plan_fleet searches from (and the co-design
        # optimizer prunes with): positive, monotone in the offered rate.
        slow = fleet_lower_bound(LLAMA2_7B, tpuv4i_baseline(), arrival_rate=1.0)
        fast = fleet_lower_bound(LLAMA2_7B, tpuv4i_baseline(),
                                 arrival_rate=2000.0)
        assert slow >= 1
        assert fast > slow
        with pytest.raises(ValueError, match="arrival_rate"):
            fleet_lower_bound(LLAMA2_7B, tpuv4i_baseline(), arrival_rate=0.0)

    def test_fleet_lower_bound_matches_plan_fleet_start(self):
        plan = self.plan(arrival_rate=2000.0, max_replicas=10)
        bound = fleet_lower_bound(self.MODEL, tpuv4i_baseline(),
                                  arrival_rate=2000.0, request_classes=self.MIX)
        assert plan.evaluations[0].replicas == min(bound, 10)

    @pytest.mark.parametrize("overrides", [
        {},
        dict(fidelity="fluid"),
        dict(faults=(parse_fault("replica-crash:at_s=0.02,duration_s=0.02,replica=0"),),
             overlay=parse_overlay("flash-crowd:start_s=0.01,duration_s=0.03,magnitude=3")),
    ], ids=["exact", "fluid", "faults-overlay"])
    def test_fresh_store_gives_the_storeless_plan(self, tmp_path, overrides):
        # A load the smallest fleet misses, so every plan tries several sizes.
        overrides = dict(overrides, arrival_rate=1000.0,
                         slo=SLO(ttft_s=0.01, tpot_s=0.002))
        storeless = self.plan(**overrides)
        stored = self.plan(**overrides,
                           store=ResultStore(tmp_path / "store.jsonl"))
        assert stored == storeless
        assert len(stored.evaluations) > 1

    def test_validation(self):
        with pytest.raises(ValueError, match="arrival_rate"):
            self.plan(arrival_rate=0.0)
        with pytest.raises(ValueError, match="max_replicas"):
            self.plan(max_replicas=0)
        with pytest.raises(ValueError, match="attainment_target"):
            self.plan(attainment_target=1.5)
