"""Tests for the continuous-batching engine and its scheduler policies."""

import dataclasses

import pytest

from repro.core.designs import design_a, tpuv4i_baseline
from repro.serving.metrics import SLO
from repro.serving.scheduler import (
    SCHEDULER_REGISTRY,
    SchedulerPolicy,
    get_scheduler,
    register_scheduler,
)
from repro.serving.simulator import ServingSimulator, simulate_serving
from repro.serving.spec import ServingSpec
from repro.serving.trace import Request, generate_trace
from repro.sweep.cache import CachingInferenceSimulator
from repro.workloads.chat import DEFAULT_REQUEST_MIX, RequestClass
from repro.workloads.dit import DIT_XL_2
from repro.workloads.llm import GPT3_30B, LLAMA2_7B, LLMConfig
from repro.workloads.scenario import LLMInferenceSettings

#: Small but non-trivial model: weights take a visible bite out of one HBM.
SERVE_LLM = LLMConfig(name="serve-test-llm", num_layers=4, num_heads=16,
                      d_model=2048, d_ff=8192, vocab_size=32000)

MIX = (RequestClass(input_tokens=64, output_tokens=32, weight=0.6),
       RequestClass(input_tokens=256, output_tokens=64, weight=0.4))


def make_trace(num_requests=60, rate=50.0, seed=7, kind="poisson"):
    return generate_trace(kind, MIX, rate, num_requests, seed)


@pytest.fixture(scope="module")
def report():
    simulator = ServingSimulator(SERVE_LLM, tpuv4i_baseline())
    return simulator.run(make_trace(), slo=SLO(ttft_s=0.5, tpot_s=0.05))


class TestRegistry:
    def test_builtin_policies_registered(self):
        for name in ("fcfs", "shortest-prompt-first", "decode-priority"):
            assert get_scheduler(name).name == name

    def test_unknown_scheduler_lists_registered(self):
        with pytest.raises(KeyError, match="fcfs"):
            get_scheduler("round-robin")

    def test_register_rejects_duplicates(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scheduler(SCHEDULER_REGISTRY["fcfs"])

    def test_custom_policy_round_trip(self):
        policy = SchedulerPolicy(name="test-longest-prompt-first",
                                 description="adversarial ordering",
                                 priority=lambda live: (-live.request.input_tokens,
                                                        live.request.request_id))
        register_scheduler(policy)
        try:
            report = ServingSimulator(SERVE_LLM, tpuv4i_baseline(),
                                      scheduler="test-longest-prompt-first").run(
                make_trace(num_requests=20))
            assert report.completed == 20
        finally:
            del SCHEDULER_REGISTRY["test-longest-prompt-first"]


class TestConservation:
    def test_every_request_completes(self, report):
        assert report.completed == report.num_requests == 60
        assert report.rejected == 0

    def test_token_conservation(self, report):
        trace = make_trace()
        assert report.total_tokens == sum(r.output_tokens for r in trace)
        finished = {m.request_id: m for m in report.requests}
        assert set(finished) == {r.request_id for r in trace}

    def test_timeline_ordering(self, report):
        for metrics in report.requests:
            assert metrics.arrival_s <= metrics.first_token_s <= metrics.finish_s
            assert metrics.ttft_s >= 0 and metrics.e2e_s >= metrics.ttft_s

    def test_busy_time_within_makespan(self, report):
        assert 0 < report.busy_s <= report.makespan_s
        assert 0 < report.utilisation <= 1.0

    def test_makespan_measured_from_first_arrival(self):
        """Regression: a trace with offset timestamps (e.g. a production
        excerpt not re-based to zero) must report the same throughput and
        utilisation as its re-based twin."""
        offset = 1000.0
        based = make_trace(num_requests=20)
        shifted = tuple(Request(request_id=r.request_id,
                                arrival_s=r.arrival_s + offset,
                                input_tokens=r.input_tokens,
                                output_tokens=r.output_tokens) for r in based)
        a = ServingSimulator(SERVE_LLM, tpuv4i_baseline()).run(based)
        b = ServingSimulator(SERVE_LLM, tpuv4i_baseline()).run(shifted)
        assert b.makespan_s == pytest.approx(a.makespan_s)
        assert b.tokens_per_second == pytest.approx(a.tokens_per_second)
        assert b.utilisation == pytest.approx(a.utilisation)

    def test_energy_positive(self, report):
        assert report.mxu_energy_joules > 0
        assert report.total_energy_joules >= report.mxu_energy_joules
        assert report.energy_per_token_joules > 0


class TestDeterminismAndCaching:
    def test_bit_identical_reruns(self):
        runs = [ServingSimulator(SERVE_LLM, tpuv4i_baseline()).run(make_trace())
                for _ in range(2)]
        assert runs[0].to_dict() == runs[1].to_dict()

    def test_step_costs_are_memoised(self, report):
        # Far more steps than distinct (phase, batch, bucket) states.
        assert report.cost_cache_misses < report.prefill_steps + report.decode_steps
        assert report.cost_cache_hit_rate > 0.3

    def test_shared_graph_cache_skips_resimulation(self):
        cache_sim = CachingInferenceSimulator(tpuv4i_baseline())
        ServingSimulator(SERVE_LLM, tpuv4i_baseline(), simulator=cache_sim).run(make_trace())
        misses_after_first = cache_sim.cache.stats.misses
        ServingSimulator(SERVE_LLM, tpuv4i_baseline(), simulator=cache_sim).run(make_trace())
        assert cache_sim.cache.stats.misses == misses_after_first


class TestAccounting:
    @pytest.mark.parametrize("rate", [0.02, 0.5])
    def test_aggregate_only_matches_collected(self, rate):
        """collect_requests=False drops rows but changes no aggregate."""
        trace = generate_trace("poisson", DEFAULT_REQUEST_MIX, rate, 100, 1)
        slo = SLO(ttft_s=1.0, tpot_s=0.1)
        collected = ServingSimulator(GPT3_30B, design_a()).run(trace, slo=slo)
        aggregate = ServingSimulator(GPT3_30B, design_a()).run(
            trace, slo=slo, collect_requests=False)
        assert aggregate.requests == ()
        assert (aggregate.to_dict(include_requests=False)
                == collected.to_dict(include_requests=False))

    @pytest.mark.parametrize("seed", range(4))
    def test_busy_and_energy_sum_per_quiescent_segment(self, seed):
        """Busy time and energy add up one quiescent segment at a time.

        Two saturated bursts a million seconds apart are two segments, so
        the combined run's totals are exactly (``==``) the two single-burst
        totals added.  Stored payloads and benchmark digests pin these
        floats; a flat running sum over every step changes their last
        digits and fails here.
        """
        def burst(trace_seed, shift):
            return tuple(
                dataclasses.replace(request, arrival_s=request.arrival_s + shift,
                                    request_id=request.request_id + int(shift))
                for request in generate_trace("poisson", DEFAULT_REQUEST_MIX,
                                              50.0, 200, trace_seed))

        first, second = burst(seed, 0.0), burst(seed + 100, 1e6)
        one, two, both = (ServingSimulator(LLAMA2_7B, design_a()).run(trace)
                          for trace in (first, second, first + second))
        for field in ("busy_s", "mxu_energy_joules", "total_energy_joules"):
            assert (getattr(both, field)
                    == getattr(one, field) + getattr(two, field)), field


class TestAdmissionControl:
    def test_peak_reservation_never_exceeds_budget(self, report):
        assert 0 < report.peak_kv_reserved_bytes <= report.kv_budget_bytes

    def test_tight_memory_limits_concurrency(self):
        # Max batch 2: at most two requests' full-context KV ever reserved.
        simulator = ServingSimulator(SERVE_LLM, tpuv4i_baseline(), max_batch=2)
        report = simulator.run(make_trace(num_requests=20))
        per_token = SERVE_LLM.kv_cache_bytes(1, 1)
        assert report.peak_kv_reserved_bytes <= 2 * 320 * per_token

    def test_oversized_requests_are_rejected(self):
        trace = (Request(request_id=0, arrival_s=0.0, input_tokens=64,
                         output_tokens=16),
                 Request(request_id=1, arrival_s=0.0, input_tokens=10_000_000,
                         output_tokens=16))
        report = ServingSimulator(SERVE_LLM, tpuv4i_baseline(), devices=1).run(trace)
        assert report.rejected == 1
        assert report.completed == 1

    def test_model_that_cannot_fit_raises(self):
        from repro.workloads.llm import GPT3_30B

        # GPT-3-30B weighs ~30 GB INT8: one 8 GB device leaves no KV budget.
        with pytest.raises(ValueError, match="does not fit"):
            ServingSimulator(GPT3_30B, tpuv4i_baseline(), devices=1).run(
                (Request(request_id=0, arrival_s=0.0, input_tokens=64,
                         output_tokens=16),))

    def test_auto_deployment_admits_largest_request(self):
        trace = make_trace(num_requests=10)
        simulator = ServingSimulator(LLAMA2_7B, tpuv4i_baseline())
        devices = simulator.plan_devices(trace)
        largest = max(r.total_tokens for r in trace) * simulator.kv_bytes_per_token
        assert simulator.kv_budget(devices) >= largest
        assert devices == 1 or simulator.kv_budget(devices - 1) < largest


class TestPolicies:
    def test_shortest_prompt_first_beats_fcfs_short_request_ttft(self):
        # Overload with a long-prompt head so ordering matters.
        trace = make_trace(num_requests=80, rate=200.0, kind="bursty")
        reports = {name: ServingSimulator(SERVE_LLM, tpuv4i_baseline(),
                                          scheduler=name).run(trace)
                   for name in ("fcfs", "shortest-prompt-first")}
        mean_short_ttft = {}
        for name, report in reports.items():
            short = [m.ttft_s for m in report.requests if m.input_tokens == 64]
            mean_short_ttft[name] = sum(short) / len(short)
        assert mean_short_ttft["shortest-prompt-first"] < mean_short_ttft["fcfs"]

    def test_decode_priority_never_interrupts_waves(self):
        trace = make_trace(num_requests=40, rate=200.0)
        report = ServingSimulator(SERVE_LLM, tpuv4i_baseline(),
                                  scheduler="decode-priority").run(trace)
        # Wave batching: far fewer prefill groups than continuous admission.
        fcfs = ServingSimulator(SERVE_LLM, tpuv4i_baseline()).run(trace)
        assert report.completed == fcfs.completed == 40
        assert report.prefill_steps <= fcfs.prefill_steps

    def test_policies_differ_on_contended_traces(self):
        trace = make_trace(num_requests=60, rate=200.0, kind="bursty")
        digests = {name: ServingSimulator(SERVE_LLM, tpuv4i_baseline(),
                                          scheduler=name).run(trace).e2e
                   for name in sorted(SCHEDULER_REGISTRY)}
        assert len(set(digests.values())) > 1


class TestValidation:
    def test_rejects_non_llm_model(self):
        with pytest.raises(ValueError, match="LLM"):
            ServingSimulator(DIT_XL_2, tpuv4i_baseline())

    def test_rejects_empty_trace(self):
        with pytest.raises(ValueError, match="non-empty"):
            ServingSimulator(SERVE_LLM, tpuv4i_baseline()).run(())

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            ServingSimulator(SERVE_LLM, tpuv4i_baseline(), max_batch=0)
        with pytest.raises(ValueError):
            ServingSimulator(SERVE_LLM, tpuv4i_baseline(), devices=-1)
        with pytest.raises(ValueError):
            ServingSimulator(SERVE_LLM, tpuv4i_baseline(), bucket_tokens=0)


class TestSimulateServing:
    def test_spec_end_to_end_on_design(self):
        spec = ServingSpec(scheduler="fcfs", trace="poisson", arrival_rate=20.0,
                           num_requests=30, seed=11)
        settings = LLMInferenceSettings(batch=2, input_tokens=64, output_tokens=16)
        report = simulate_serving(SERVE_LLM, design_a(), spec, settings)
        assert report.completed == 30
        assert report.scheduler == "fcfs"
        assert report.tokens_per_second > 0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ServingSpec(arrival_rate=0.0)
        with pytest.raises(ValueError):
            ServingSpec(num_requests=-1)
        with pytest.raises(ValueError):
            ServingSpec(memory_utilisation=1.5)
