"""Tests for fault injection, arrival overlays and chaos determinism."""

import dataclasses
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.designs import design_a, tpuv4i_baseline
from repro.serving.autoscaler import FleetView, forecasting_autoscaler
from repro.serving.cluster import (
    ClusterSimulator,
    cluster_report_from_dict,
    cluster_run_key,
    simulate_cluster,
)
from repro.serving.faults import (
    FAULT_REGISTRY,
    FaultEvent,
    FaultSpec,
    fault_timeline,
    parse_fault,
)
from repro.serving.metrics import SLO
from repro.serving.simulator import ServingSimulator
from repro.serving.spec import ServingSpec
from repro.serving.trace import (
    OverlaySpec,
    apply_overlay,
    generate_trace,
    parse_overlay,
)
from repro.sweep.cache import CachingInferenceSimulator
from repro.sweep.engine import SweepEngine
from repro.sweep.grid import SweepGrid
from repro.sweep.store import ResultStore
from repro.workloads.chat import RequestClass
from repro.workloads.llm import LLAMA2_7B, LLMConfig
from repro.workloads.registry import get_scenario
from repro.workloads.scenario import ScenarioKnobs

#: Same small-but-real fleet fixture the cluster tests use; one shared
#: memoised graph simulator keeps the chaos matrix cheap.
CHAOS_LLM = LLMConfig(name="chaos-test-llm", num_layers=4, num_heads=16,
                      d_model=2048, d_ff=8192, vocab_size=32000)
MIX = (RequestClass(input_tokens=64, output_tokens=32, weight=0.6),
       RequestClass(input_tokens=256, output_tokens=64, weight=0.4))
BASE_CONFIG = tpuv4i_baseline()
SHARED = CachingInferenceSimulator(BASE_CONFIG)
FLEET_SLO = SLO(ttft_s=0.5, tpot_s=0.05)

CRASH = FaultSpec("replica-crash", at_s=0.2, duration_s=1.0, replica=1)


def make_trace(num_requests=80, rate=50.0, seed=7):
    return generate_trace("poisson", MIX, rate, num_requests, seed)


def run_chaos(faults=(), replicas=3, trace=None, **kwargs):
    engines = [ServingSimulator(CHAOS_LLM, BASE_CONFIG, simulator=SHARED)
               for _ in range(replicas)]
    cluster = ClusterSimulator(engines, faults=faults, **kwargs)
    return cluster.run(trace if trace is not None else make_trace(),
                       slo=FLEET_SLO)


# ------------------------------------------------------------- fault models
class TestFaultSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(kind="")
        with pytest.raises(ValueError, match="mttf_s"):
            FaultSpec("replica-crash", mttf_s=0.0)
        with pytest.raises(ValueError, match="duration_s"):
            FaultSpec("replica-crash", duration_s=0.0)
        with pytest.raises(ValueError, match="magnitude"):
            FaultSpec("slow-node", magnitude=0.5)
        with pytest.raises(ValueError, match="at_s"):
            FaultSpec("replica-crash", at_s=-1.0)
        with pytest.raises(ValueError, match="replica"):
            FaultSpec("replica-crash", replica=-1)

    def test_summary_mentions_onset_and_target(self):
        assert FaultSpec("replica-crash", at_s=2.0, duration_s=5.0,
                         replica=1).summary() == "replica-crash[@2s d=5s r=1]"
        assert "mttf=600s" in FaultSpec("slow-node").summary()

    def test_builtin_models_registered(self):
        for name in ("replica-crash", "slow-node", "admission-stall"):
            assert name in FAULT_REGISTRY

    def test_event_validation(self):
        with pytest.raises(ValueError, match="unknown fault effect"):
            FaultEvent(time_s=0.0, replica=0, effect="melt", duration_s=1.0)
        with pytest.raises(ValueError, match="duration_s"):
            FaultEvent(time_s=0.0, replica=0, effect="crash", duration_s=0.0)


class TestFaultTimeline:
    def test_pure_function_of_its_arguments(self):
        specs = (FaultSpec("replica-crash", mttf_s=3.0, duration_s=0.5, seed=3),
                 FaultSpec("slow-node", mttf_s=5.0, duration_s=1.0, seed=9))
        assert fault_timeline(specs, 3, 20.0) == fault_timeline(specs, 3, 20.0)

    def test_pinned_onset_fires_exactly_once_per_target(self):
        events = fault_timeline([CRASH], 3, 10.0)
        assert events == (FaultEvent(time_s=0.2, replica=1, effect="crash",
                                     duration_s=1.0),)
        broadcast = fault_timeline(
            [FaultSpec("replica-crash", at_s=0.5, duration_s=1.0)], 3, 10.0)
        assert [event.replica for event in broadcast] == [0, 1, 2]

    def test_pinned_onset_outside_the_span_is_dropped(self):
        spec = FaultSpec("replica-crash", at_s=5.0, duration_s=1.0)
        assert fault_timeline([spec], 2, 2.0) == ()
        assert len(fault_timeline([spec], 2, 5.0)) == 2  # boundary included

    def test_stochastic_onsets_respect_the_outage_width(self):
        spec = FaultSpec("replica-crash", mttf_s=1.0, duration_s=0.5, seed=3)
        events = fault_timeline([spec], 2, 30.0)
        assert events  # a 1s MTTF over 30s fires with near certainty
        times = sorted(event.time_s for event in events)
        assert times == [event.time_s for event in
                         sorted(events, key=lambda e: e.time_s)]
        for replica in (0, 1):
            onsets = [e.time_s for e in events if e.replica == replica]
            gaps = [b - a for a, b in zip(onsets, onsets[1:])]
            assert all(gap >= spec.duration_s for gap in gaps)

    def test_seed_changes_the_schedule(self):
        base = FaultSpec("replica-crash", mttf_s=2.0, duration_s=0.5, seed=0)
        other = dataclasses.replace(base, seed=1)
        assert fault_timeline([base], 2, 60.0) != fault_timeline([other], 2, 60.0)

    def test_slow_events_carry_the_magnitude(self):
        spec = FaultSpec("slow-node", at_s=1.0, duration_s=2.0, magnitude=2.5)
        events = fault_timeline([spec], 1, 10.0)
        assert events[0].magnitude == 2.5
        crash = fault_timeline([CRASH], 2, 10.0)
        assert crash[0].magnitude == 1.0  # magnitude is a slow-node knob

    def test_bad_targets_rejected(self):
        with pytest.raises(ValueError, match="only 2 replicas"):
            fault_timeline([FaultSpec("replica-crash", replica=5)], 2, 10.0)
        with pytest.raises(ValueError, match="positive fleet size"):
            fault_timeline([CRASH], 0, 10.0)
        with pytest.raises(KeyError, match="replica-crash"):
            fault_timeline([FaultSpec("nope")], 2, 10.0)


class TestParseFault:
    def test_kind_alone_gets_the_defaults(self):
        assert parse_fault("replica-crash") == FaultSpec("replica-crash")

    def test_fields_parse_into_the_spec(self):
        spec = parse_fault("slow-node:at_s=10,duration_s=60,magnitude=2.5,replica=1")
        assert spec == FaultSpec("slow-node", at_s=10.0, duration_s=60.0,
                                 magnitude=2.5, replica=1)

    def test_errors_name_the_problem(self):
        with pytest.raises(ValueError, match="expected"):
            parse_fault("")
        with pytest.raises(KeyError, match="registered models"):
            parse_fault("nope:at_s=1")
        with pytest.raises(ValueError, match="known fields"):
            parse_fault("replica-crash:bogus=1")
        with pytest.raises(ValueError, match="invalid value"):
            parse_fault("replica-crash:at_s=abc")


# ---------------------------------------------------------- arrival overlays
class TestOverlayWarps:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="kind"):
            OverlaySpec(kind="")
        with pytest.raises(ValueError, match="start_s"):
            OverlaySpec("flash-crowd", start_s=-1.0)
        with pytest.raises(ValueError, match="duration_s"):
            OverlaySpec("flash-crowd", duration_s=0.0)
        with pytest.raises(ValueError, match="magnitude"):
            OverlaySpec("flash-crowd", magnitude=0.0)

    def test_flash_crowd_compresses_exactly_the_window(self):
        spec = OverlaySpec("flash-crowd", start_s=10.0, duration_s=30.0,
                           magnitude=3.0)
        trace = tuple(make_trace(num_requests=1))
        def warp(t):
            warped = apply_overlay(
                (dataclasses.replace(trace[0], arrival_s=t),), spec)
            return warped[0].arrival_s
        assert warp(5.0) == 5.0            # before the window: untouched
        assert warp(10.0) == 10.0
        assert warp(25.0) == pytest.approx(15.0)   # mid-window: 3x faster
        assert warp(40.0) == pytest.approx(20.0)   # window end: fully squeezed
        assert warp(50.0) == pytest.approx(30.0)   # after: shifted by the save

    def test_regional_shift_ramps_and_stays(self):
        spec = OverlaySpec("regional-shift", start_s=10.0, duration_s=30.0,
                           magnitude=3.0)
        trace = tuple(make_trace(num_requests=1))
        def warp(t):
            warped = apply_overlay(
                (dataclasses.replace(trace[0], arrival_s=t),), spec)
            return warped[0].arrival_s
        assert warp(4.0) == 4.0
        slope = (3.0 - 1.0) / 30.0
        ramp = 10.0 + math.log1p(slope * 30.0) / slope
        assert warp(40.0) == pytest.approx(ramp)
        assert warp(46.0) == pytest.approx(ramp + 6.0 / 3.0)  # steady 3x
        # A unit magnitude is the identity warp.
        flat = OverlaySpec("regional-shift", magnitude=1.0)
        assert apply_overlay(trace, flat)[0].arrival_s == trace[0].arrival_s

    def test_warps_are_monotone(self):
        grid = [i * 0.37 for i in range(200)]
        request = tuple(make_trace(num_requests=1))[0]
        for kind in ("flash-crowd", "regional-shift"):
            spec = OverlaySpec(kind, start_s=5.0, duration_s=20.0, magnitude=4.0)
            warped = [apply_overlay(
                (dataclasses.replace(request, arrival_s=t),), spec)[0].arrival_s
                for t in grid]
            assert all(b >= a for a, b in zip(warped, warped[1:]))

    def test_apply_overlay_preserves_identity_and_shape(self):
        trace = make_trace(num_requests=60, rate=4.0)
        spec = OverlaySpec("flash-crowd", start_s=2.0, duration_s=8.0,
                           magnitude=4.0)
        warped = apply_overlay(trace, spec)
        assert len(warped) == len(trace)
        shapes = {r.request_id: (r.input_tokens, r.output_tokens) for r in trace}
        assert {r.request_id: (r.input_tokens, r.output_tokens)
                for r in warped} == shapes
        arrivals = [r.arrival_s for r in warped]
        assert arrivals == sorted(arrivals)
        # The crowd genuinely compresses the schedule.
        assert warped[-1].arrival_s < trace[-1].arrival_s

    def test_parse_overlay(self):
        assert parse_overlay("flash-crowd") == OverlaySpec("flash-crowd")
        assert parse_overlay("regional-shift:start_s=5,duration_s=60,magnitude=2") \
            == OverlaySpec("regional-shift", start_s=5.0, duration_s=60.0,
                           magnitude=2.0)
        with pytest.raises(ValueError, match="expected"):
            parse_overlay("")
        with pytest.raises(KeyError, match="registered overlays"):
            parse_overlay("nope")
        with pytest.raises(ValueError, match="known fields"):
            parse_overlay("flash-crowd:bogus=1")
        with pytest.raises(ValueError, match="invalid value"):
            parse_overlay("flash-crowd:magnitude=abc")


# ------------------------------------------------------ forecasting autoscaler
def view(now_s, active, *, min_replicas=1, fleet_size=6):
    return FleetView(now_s=now_s, fleet_size=fleet_size,
                     min_replicas=min_replicas, active_count=active,
                     ready_count=active, outstanding_requests=0,
                     kv_pressure=0.0)


class TestForecastingAutoscaler:
    def test_validation(self):
        with pytest.raises(ValueError, match="window_s"):
            forecasting_autoscaler(window_s=0.0)
        with pytest.raises(ValueError, match="requests_per_replica_s"):
            forecasting_autoscaler(requests_per_replica_s=0.0)
        with pytest.raises(ValueError, match="lead_s"):
            forecasting_autoscaler(lead_s=-1.0)
        with pytest.raises(ValueError, match="hold_s"):
            forecasting_autoscaler(hold_s=-1.0)

    def test_burst_forecast_scales_out_ahead_of_demand(self):
        policy = forecasting_autoscaler(window_s=4.0, requests_per_replica_s=2.0)
        state = {}
        # 40 arrivals in one second: the measured rate alone demands more
        # than one replica, and the positive slope extrapolates higher.
        targets = [policy.decide(view(1.0 + i * 0.025, 1), state)
                   for i in range(40)]
        assert targets[-1] > 1

    def test_idle_tail_scales_in_only_after_the_hold(self):
        policy = forecasting_autoscaler(window_s=2.0, requests_per_replica_s=1.0,
                                        hold_s=5.0, lead_s=0.0)
        state = {}
        # Sparse arrivals, fleet wide awake at 4: the forecast says 1, but
        # hysteresis releases at most one replica per elapsed hold.
        targets = [policy.decide(view(10.0 + i * 1.0, 4), state)
                   for i in range(6)]
        assert targets[0] == 4       # hold starts counting here
        assert targets[-1] == 3      # exactly one step released
        assert all(t >= 3 for t in targets)

    def test_never_demands_below_min_replicas(self):
        policy = forecasting_autoscaler(window_s=2.0, requests_per_replica_s=4.0)
        state = {}
        for i in range(30):
            target = policy.decide(view(float(i), 3, min_replicas=3), state)
            assert target >= 3

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(deltas=st.lists(st.sampled_from([0.0, 0.05, 0.25, 0.5, 1.0, 3.7]),
                           min_size=1, max_size=60),
           window_s=st.sampled_from([0.5, 1.0, 2.0, 10.0]),
           lead_s=st.sampled_from([None, 0.0, 2.5]))
    def test_windowed_counts_match_a_recount(self, deltas, window_s, lead_s):
        # One active replica at the floor: decide returns the forecast
        # target itself, which a recount over every arrival so far fixes.
        policy = forecasting_autoscaler(window_s=window_s,
                                        requests_per_replica_s=1.5,
                                        lead_s=lead_s, cold_start_s=4.0)
        lead = 4.0 if lead_s is None else lead_s
        state, now, history = {}, 0.0, []
        for delta in deltas:
            now += delta
            history.append(now)
            half = window_s / 2.0
            recent = sum(1 for t in history if t > now - half)
            previous = sum(1 for t in history
                           if now - window_s < t <= now - half)
            rate = (recent + previous) / window_s
            slope = (recent - previous) / (half * half)
            expected = max(1, math.ceil(max(0.0, rate + slope * lead) / 1.5))
            assert policy.decide(view(now, 1), state) == expected


# ------------------------------------------------------------- cluster chaos
@pytest.fixture(scope="module")
def clean_report():
    return run_chaos()


@pytest.fixture(scope="module")
def crash_report():
    # A hot trace: the crash must catch in-flight work to drain.
    return run_chaos(faults=(CRASH,), trace=make_trace(rate=150.0))


class TestClusterChaos:
    def test_conservation_under_crash(self, crash_report):
        report = crash_report
        assert report.completed + report.rejected + report.shed == 80
        assert report.shed == 0  # drained work is re-routed, never dropped

    def test_crash_disrupts_and_bills_downtime(self, crash_report):
        resilience = crash_report.resilience
        assert resilience.crash_count == 1
        assert resilience.fault_count == 1
        assert resilience.disrupted_requests > 0
        assert resilience.downtime_replica_s > 0.0
        assert resilience.availability < 1.0
        assert sum(1 for m in crash_report.requests if m.disrupted) \
            == resilience.disrupted_requests

    def test_fault_events_reported_in_absolute_time(self, crash_report):
        assert len(crash_report.fault_events) == 1
        event = crash_report.fault_events[0]
        first_arrival = min(m.arrival_s for m in crash_report.requests)
        assert event.time_s == pytest.approx(first_arrival + 0.2)
        assert event.effect == "crash"

    def test_chaos_run_is_deterministic(self, crash_report):
        again = run_chaos(faults=(CRASH,), trace=make_trace(rate=150.0))
        assert again.to_dict() == crash_report.to_dict()

    def test_fault_free_resilience_is_clean(self, clean_report):
        resilience = clean_report.resilience
        assert resilience.fault_count == 0
        assert resilience.availability == 1.0
        assert resilience.recovery_s == 0.0
        assert resilience.disrupted_requests == 0
        # With nothing disrupted, goodput-under-failure IS the goodput.
        assert resilience.goodput_under_failure_tokens_per_second \
            == clean_report.goodput_tokens_per_second

    def test_slow_node_inflates_latency_but_not_routing(self, clean_report):
        slow = run_chaos(faults=(FaultSpec("slow-node", at_s=0.0,
                                           duration_s=10.0, magnitude=3.0,
                                           replica=0),))
        # The routing pre-pass is blind to degradation: same assignment.
        assert [r.requests_routed for r in slow.replicas] \
            == [r.requests_routed for r in clean_report.replicas]
        assert slow.e2e.mean_s > clean_report.e2e.mean_s
        assert slow.resilience.crash_count == 0
        assert slow.resilience.availability == 1.0

    def test_stall_diverts_admissions_without_downtime(self, clean_report):
        stalled = run_chaos(faults=(FaultSpec("admission-stall", at_s=0.2,
                                              duration_s=1.0, replica=0),))
        assert stalled.resilience.availability == 1.0
        assert stalled.resilience.crash_count == 0
        assert stalled.resilience.disrupted_requests == 0
        assert stalled.completed + stalled.rejected + stalled.shed == 80
        assert stalled.replicas[0].requests_routed \
            < clean_report.replicas[0].requests_routed

    def test_whole_fleet_crash_still_serves_everyone(self):
        report = run_chaos(faults=(FaultSpec("replica-crash", at_s=0.5,
                                             duration_s=0.5),))
        assert report.resilience.crash_count == 3
        assert report.completed + report.rejected + report.shed == 80
        assert report.shed == 0  # queued on the earliest restart, not dropped

    def test_report_round_trips_infinite_recovery(self, crash_report):
        never = dataclasses.replace(
            crash_report,
            resilience=dataclasses.replace(crash_report.resilience,
                                           recovery_s=float("inf")))
        payload = json.loads(json.dumps(never.to_dict()))
        restored = cluster_report_from_dict(payload)
        assert restored.resilience.recovery_s == float("inf")
        assert restored.to_dict() == never.to_dict()


# ----------------------------------------------- chaos determinism and caching
def chaos_run_args(faults=(), overlay=None):
    scenario = get_scenario("chat-serving")
    settings = scenario.make_settings(ScenarioKnobs(
        batch=1, input_tokens=64, output_tokens=16))
    spec = ServingSpec(replicas=2, arrival_rate=16.0, num_requests=40, seed=7,
                       faults=faults, overlay=overlay)
    return LLAMA2_7B, design_a(), spec, settings


def chaos_grid(designs=None):
    return SweepGrid(
        designs=designs if designs is not None else {"design-a": design_a()},
        models=["llama2-7b"],
        input_tokens=64, output_tokens=16,
        schedulers=("fcfs",), arrival_rates=(16.0,),
        routers=("round-robin",), replica_counts=(2,), serving_requests=40,
        fault_sets=((), (FaultSpec("replica-crash", at_s=0.5, duration_s=1.0,
                                   replica=0),)),
        overlays=(None, OverlaySpec("flash-crowd", start_s=0.5, duration_s=1.0,
                                    magnitude=2.0)))


class TestChaosDeterminism:
    def test_grid_rejects_chaos_without_serving_axes(self):
        with pytest.raises(ValueError, match="serving grid"):
            SweepGrid(designs={"design-a": design_a()}, models=["llama2-7b"],
                      fault_sets=((CRASH,),))
        with pytest.raises(ValueError, match="non-empty"):
            SweepGrid(designs={"design-a": design_a()}, models=["llama2-7b"],
                      fault_sets=())

    def test_serial_and_parallel_chaos_sweeps_agree(self):
        grid = chaos_grid()
        serial = SweepEngine().sweep(grid)
        parallel = SweepEngine().sweep(grid, workers=2)
        assert len(serial) == 4  # healthy x crash x overlay axes
        assert parallel == serial

    def test_two_design_chaos_sweep_fans_out_like_serial(self):
        # Two chip groups, so workers=2 evaluates them in a process pool.
        grid = chaos_grid({"baseline": tpuv4i_baseline(), "design-a": design_a()})
        serial = SweepEngine().sweep(grid)
        parallel = SweepEngine().sweep(grid, workers=2)
        assert len(serial) == 8
        assert parallel == serial

    def test_warm_store_serves_identical_chaos_report(self, tmp_path):
        model, config, spec, settings = chaos_run_args(
            faults=(FaultSpec("replica-crash", at_s=0.5, duration_s=1.0,
                              replica=0),),
            overlay=OverlaySpec("flash-crowd", start_s=0.5, duration_s=1.0,
                                magnitude=2.0))
        path = tmp_path / "store.jsonl"
        cold = simulate_cluster(model, config, spec, settings,
                                store=ResultStore(path))
        assert cold.resilience.crash_count == 1
        warm_store = ResultStore(path)
        warm = simulate_cluster(model, config, spec, settings, store=warm_store)
        assert warm_store.stats.hits == 1
        assert warm.to_dict(include_requests=False) == cold.to_dict(
            include_requests=False)
        assert warm.resilience == cold.resilience
        assert warm.fault_events == cold.fault_events

    def test_pre_chaos_store_misses_when_faults_requested(self, tmp_path):
        """A store warmed fault-blind must not answer for a chaos run."""
        model, config, clean_spec, settings = chaos_run_args()
        chaos_spec = dataclasses.replace(
            clean_spec, faults=(FaultSpec("replica-crash", at_s=0.5,
                                          duration_s=1.0, replica=0),))
        assert cluster_run_key(model, config, clean_spec, settings) \
            != cluster_run_key(model, config, chaos_spec, settings)
        store = ResultStore(tmp_path / "store.jsonl")
        simulate_cluster(model, config, clean_spec, settings, store=store)
        hits_before = store.stats.hits
        report = simulate_cluster(model, config, chaos_spec, settings,
                                  store=store)
        assert store.stats.hits == hits_before  # a miss, freshly simulated
        assert report.resilience.crash_count == 1
        assert len(store) == 2

    def test_overlay_alone_changes_the_fingerprint(self):
        model, config, clean_spec, settings = chaos_run_args()
        shifted = dataclasses.replace(
            clean_spec, overlay=OverlaySpec("regional-shift"))
        assert cluster_run_key(model, config, clean_spec, settings) \
            != cluster_run_key(model, config, shifted, settings)


# --------------------------------------------------------- chaos properties
def fault_spec_strategy():
    mttf = st.floats(min_value=0.3, max_value=4.0)
    duration = st.floats(min_value=0.1, max_value=1.5)
    return st.builds(
        FaultSpec,
        kind=st.sampled_from(sorted(FAULT_REGISTRY)),
        mttf_s=mttf, duration_s=duration,
        magnitude=st.floats(min_value=1.0, max_value=4.0),
        seed=st.integers(min_value=0, max_value=2 ** 16))


CHAOS_SETTINGS = settings(max_examples=8, deadline=None, derandomize=True,
                          suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def small_clean_report():
    return run_chaos(replicas=2, trace=make_trace(num_requests=24, rate=40.0))


class TestChaosProperties:
    @CHAOS_SETTINGS
    @given(faults=st.lists(fault_spec_strategy(), min_size=1, max_size=2))
    def test_any_fault_schedule_keeps_the_invariants(self, faults):
        report = run_chaos(faults=tuple(faults), replicas=2,
                           trace=make_trace(num_requests=24, rate=40.0))
        assert 0.0 <= report.utilisation <= 1.0
        assert 0.0 < report.resilience.availability <= 1.0
        assert report.completed + report.rejected + report.shed == 24
        assert report.resilience.shed_requests == report.shed
        assert report.resilience.recovery_s >= 0.0

    @CHAOS_SETTINGS
    @given(at_s=st.floats(min_value=0.0, max_value=0.3),
           duration_s=st.floats(min_value=0.3, max_value=2.0),
           magnitude=st.floats(min_value=1.0, max_value=4.0))
    def test_degradation_never_beats_the_healthy_fleet(
            self, small_clean_report, at_s, duration_s, magnitude):
        """Goodput under slow-node failure <= fault-free goodput, same trace."""
        slow = run_chaos(
            faults=(FaultSpec("slow-node", at_s=at_s, duration_s=duration_s,
                              magnitude=magnitude, replica=0),),
            replicas=2, trace=make_trace(num_requests=24, rate=40.0))
        assert slow.resilience.goodput_under_failure_tokens_per_second \
            <= small_clean_report.goodput_tokens_per_second + 1e-9

    @CHAOS_SETTINGS
    @given(deltas=st.lists(st.floats(min_value=0.01, max_value=2.0),
                           min_size=1, max_size=40),
           min_replicas=st.integers(min_value=1, max_value=4))
    def test_forecasting_autoscaler_respects_min_replicas(self, deltas,
                                                          min_replicas):
        policy = forecasting_autoscaler(window_s=2.0)
        state, now, active = {}, 0.0, 6
        for delta in deltas:
            now += delta
            target = policy.decide(
                view(now, active, min_replicas=min_replicas), state)
            assert target >= min_replicas
            active = max(min_replicas, min(6, target))
