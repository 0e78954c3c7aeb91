"""Tests for the autoscaling policies and the autoscaler registry."""

import dataclasses

import pytest

from repro.serving.autoscaler import (
    AUTOSCALER_REGISTRY,
    AutoscalerPolicy,
    FleetView,
    fixed_autoscaler,
    get_autoscaler,
    queue_depth_autoscaler,
    register_autoscaler,
    utilisation_target_autoscaler,
)


def fleet_view(now=0.0, fleet=8, min_replicas=1, active=2, ready=None,
               outstanding=0, pressure=0.0, utilisation=0.0):
    return FleetView(now_s=now, fleet_size=fleet, min_replicas=min_replicas,
                     active_count=active,
                     ready_count=ready if ready is not None else active,
                     outstanding_requests=outstanding, kv_pressure=pressure,
                     utilisation=utilisation)


class TestRegistry:
    def test_builtin_policies_registered(self):
        for name in ("fixed", "queue-depth", "utilisation-target",
                     "forecasting"):
            assert get_autoscaler(name).name == name

    def test_unknown_autoscaler_lists_registered(self):
        with pytest.raises(KeyError, match="queue-depth"):
            get_autoscaler("predictive")

    def test_unknown_autoscaler_error_names_every_choice(self):
        with pytest.raises(KeyError) as excinfo:
            get_autoscaler("nope")
        message = str(excinfo.value)
        for name in AUTOSCALER_REGISTRY:
            assert name in message

    def test_register_rejects_duplicates(self):
        with pytest.raises(ValueError, match="already registered"):
            register_autoscaler(AUTOSCALER_REGISTRY["fixed"])

    def test_negative_cold_start_rejected(self):
        with pytest.raises(ValueError, match="cold_start_s"):
            AutoscalerPolicy(name="bad", description="bad",
                             decide=lambda view, state: 1, cold_start_s=-1.0)


class TestFleetView:
    def test_queue_per_active(self):
        assert fleet_view(active=4, outstanding=12).queue_per_active == 3.0

    def test_queue_per_active_with_no_active(self):
        assert fleet_view(active=0, outstanding=5).queue_per_active == 0.0


def run_fleet(autoscaler, requests=40, faults=()):
    """A small 4-replica fleet run: chat requests at 20 req/s, round-robin."""
    from repro.core.designs import tpuv4i_baseline
    from repro.serving.cluster import ClusterSimulator
    from repro.serving.simulator import ServingSimulator
    from repro.serving.trace import generate_trace
    from repro.workloads.chat import RequestClass
    from repro.workloads.llm import LLMConfig

    model = LLMConfig(name="scaler-test-llm", num_layers=2, num_heads=8,
                      d_model=1024, d_ff=4096, vocab_size=32000)
    trace = generate_trace(
        "poisson", (RequestClass(input_tokens=64, output_tokens=8),),
        20.0, requests, 5)
    engines = [ServingSimulator(model, tpuv4i_baseline()) for _ in range(4)]
    return ClusterSimulator(engines, autoscaler=autoscaler,
                            faults=faults).run(trace)


class TestFixed:
    def test_makes_no_decision(self):
        policy = fixed_autoscaler()
        assert policy.decide is None
        assert policy.cold_start_s == 0.0

    def test_fleet_run_builds_no_fleet_view(self, monkeypatch):
        from repro.serving import cluster

        def no_view(*args, **kwargs):
            raise AssertionError("a fleet that never scales built a FleetView")

        monkeypatch.setattr(cluster, "FleetView", no_view)
        monkeypatch.setattr(cluster.ClusterSimulator, "_fleet_view", no_view)
        report = run_fleet("fixed")
        first_arrival = report.replica_timeline[0][0]
        assert report.replica_timeline == ((first_arrival, 4),)
        assert report.mean_active_replicas == 4.0
        for replica in report.replicas:
            assert replica.requests_routed == 10
            assert replica.active_s == report.makespan_s

    def test_any_policy_without_decide_matches_fixed(self):
        from repro.serving.faults import FaultSpec

        static = AutoscalerPolicy(name="static", description="never scales",
                                  decide=None, cold_start_s=0.0)
        crash = (FaultSpec("replica-crash", at_s=0.5, duration_s=0.5,
                           replica=1),)
        fixed = run_fleet("fixed", faults=crash)
        report = run_fleet(static, faults=crash)
        assert fixed.resilience.crash_count == 1
        assert report.autoscaler == "static"
        assert dataclasses.replace(report, autoscaler="fixed") == fixed


class TestQueueDepth:
    def test_scales_out_above_threshold(self):
        policy = queue_depth_autoscaler(scale_up_queue=4.0)
        assert policy.decide(fleet_view(active=2, outstanding=10), {}) == 3

    def test_holds_inside_band(self):
        policy = queue_depth_autoscaler(scale_up_queue=4.0, scale_down_queue=1.0)
        assert policy.decide(fleet_view(active=2, outstanding=4), {}) == 2

    def test_scale_in_needs_sustained_quiet(self):
        policy = queue_depth_autoscaler(scale_down_queue=1.0, hold_s=10.0)
        state = {}
        quiet = lambda now: fleet_view(now=now, active=3, outstanding=0)  # noqa: E731
        assert policy.decide(quiet(0.0), state) == 3    # arms the timer
        assert policy.decide(quiet(5.0), state) == 3    # still holding
        assert policy.decide(quiet(10.0), state) == 2   # hold expired: one in
        assert policy.decide(quiet(12.0), state) == 3   # re-armed, holds again

    def test_busy_interval_resets_the_hold(self):
        policy = queue_depth_autoscaler(scale_up_queue=4.0,
                                        scale_down_queue=1.0, hold_s=10.0)
        state = {}
        policy.decide(fleet_view(now=0.0, active=3, outstanding=0), state)
        policy.decide(fleet_view(now=8.0, active=3, outstanding=9), state)
        # The quiet clock restarted: 9 s later is not enough on its own.
        assert policy.decide(fleet_view(now=9.0, active=3, outstanding=0),
                             state) == 3

    def test_never_scales_below_min(self):
        policy = queue_depth_autoscaler(hold_s=0.0)
        view = fleet_view(active=2, min_replicas=2, outstanding=0)
        assert policy.decide(view, {}) == 2

    def test_threshold_ordering_validated(self):
        with pytest.raises(ValueError, match="scale_down_queue"):
            queue_depth_autoscaler(scale_up_queue=1.0, scale_down_queue=2.0)


class TestUtilisationTarget:
    def test_scales_out_above_headroom(self):
        policy = utilisation_target_autoscaler(target=0.75, headroom=0.10)
        assert policy.decide(fleet_view(active=2, utilisation=0.9), {}) == 3

    def test_holds_near_target(self):
        policy = utilisation_target_autoscaler(target=0.75, headroom=0.10)
        assert policy.decide(fleet_view(active=2, utilisation=0.8), {}) == 2

    def test_scale_in_with_hysteresis(self):
        policy = utilisation_target_autoscaler(target=0.75, scale_in_factor=0.5,
                                               hold_s=15.0)
        state = {}
        idle = lambda now: fleet_view(now=now, active=4, utilisation=0.1)  # noqa: E731
        assert policy.decide(idle(0.0), state) == 4
        assert policy.decide(idle(14.0), state) == 4
        assert policy.decide(idle(15.0), state) == 3

    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            utilisation_target_autoscaler(target=0.0)
        with pytest.raises(ValueError):
            utilisation_target_autoscaler(scale_in_factor=1.0)


class TestCustomPolicy:
    def test_custom_autoscaler_round_trip(self):
        """A user-registered policy drives a cluster without touching core."""
        policy = AutoscalerPolicy(
            name="test-half-fleet",
            description="always run exactly half the configured fleet",
            decide=lambda view, state: view.fleet_size // 2,
            cold_start_s=0.0)
        register_autoscaler(policy)
        try:
            report = run_fleet("test-half-fleet", requests=30)
            assert report.autoscaler == "test-half-fleet"
            assert report.peak_active_replicas == 2
            assert report.replicas[2].requests_routed == 0
            assert report.replicas[3].requests_routed == 0
            assert report.completed == 30
        finally:
            del AUTOSCALER_REGISTRY["test-half-fleet"]
