"""Tests for the multi-replica cluster simulator and its fleet wiring."""

import dataclasses

import pytest

from repro.api.requests import SimulateRequest
from repro.common import Precision
from repro.core.designs import design_a, design_b, tpuv4i_baseline
from repro.obs.telemetry import Telemetry
from repro.serving.autoscaler import AutoscalerPolicy
from repro.serving.cluster import (
    ClusterSimulator,
    FleetCostModel,
    ReplicaSummary,
    _ReplicaHandle,
    simulate_cluster,
)
from repro.serving.faults import FaultSpec
from repro.serving.metrics import SLO, LatencySummary, slo_debt_s
from repro.serving.router import ReplicaView, RouterContext
from repro.serving.simulator import ServingSimulator
from repro.serving.spec import ServingSpec
from repro.serving.trace import Request, generate_trace
from repro.sweep.cache import CachingInferenceSimulator
from repro.sweep.engine import SweepEngine
from repro.sweep.export import fieldnames_of, to_csv
from repro.sweep.grid import SweepGrid, make_point
from repro.workloads.chat import RequestClass
from repro.workloads.llm import LLMConfig

#: Small but non-trivial model: weights take a visible bite out of one HBM.
CLUSTER_LLM = LLMConfig(name="cluster-test-llm", num_layers=4, num_heads=16,
                        d_model=2048, d_ff=8192, vocab_size=32000)

MIX = (RequestClass(input_tokens=64, output_tokens=32, weight=0.6),
       RequestClass(input_tokens=256, output_tokens=64, weight=0.4))


def make_trace(num_requests=80, rate=50.0, seed=7, kind="poisson"):
    return generate_trace(kind, MIX, rate, num_requests, seed)


def make_cluster(replicas=3, config=None, shared=None, **kwargs):
    config = config if config is not None else tpuv4i_baseline()
    engines = [ServingSimulator(CLUSTER_LLM, config, simulator=shared)
               for _ in range(replicas)]
    return ClusterSimulator(engines, **kwargs)


@pytest.fixture(scope="module")
def fleet_report():
    return make_cluster(replicas=3).run(make_trace(),
                                        slo=SLO(ttft_s=0.5, tpot_s=0.05))


class TestValidation:
    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError, match="at least one replica"):
            ClusterSimulator([])

    def test_mixed_models_rejected(self):
        other = LLMConfig(name="other-llm", num_layers=2, num_heads=8,
                          d_model=1024, d_ff=4096, vocab_size=32000)
        replicas = [ServingSimulator(CLUSTER_LLM, tpuv4i_baseline()),
                    ServingSimulator(other, tpuv4i_baseline())]
        with pytest.raises(ValueError, match="same model"):
            ClusterSimulator(replicas)

    def test_min_replicas_bounds(self):
        with pytest.raises(ValueError, match="min_replicas"):
            make_cluster(replicas=2, min_replicas=3)
        with pytest.raises(ValueError, match="min_replicas"):
            make_cluster(replicas=2, min_replicas=0)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            make_cluster().run(())

    def test_repeated_request_id_rejected(self):
        # The fleet keys re-routed arrivals and disrupted flags by request
        # id: two requests sharing one would both read as disrupted.
        from repro.workloads.llm import LLAMA2_7B

        ids = [0, 0, *range(2, 60)]
        trace = [Request(request_id=request_id, arrival_s=index * 0.05,
                         input_tokens=64, output_tokens=16)
                 for index, request_id in enumerate(ids)]
        cluster = ClusterSimulator(
            [ServingSimulator(LLAMA2_7B, design_a()) for _ in range(3)],
            faults=[FaultSpec(kind="replica-crash", at_s=0.12,
                              duration_s=1.0, replica=0)])
        with pytest.raises(ValueError, match="request_id 0 repeats"):
            cluster.run(trace)

    def test_undersized_replica_deployment_rejected(self):
        from repro.workloads.llm import GPT3_30B

        replicas = [ServingSimulator(GPT3_30B, tpuv4i_baseline(), devices=1)]
        with pytest.raises(ValueError, match="replica 0: gpt3-30b does not fit 1 x"):
            ClusterSimulator(replicas).run(make_trace(num_requests=5))

    def test_unknown_router_and_autoscaler_listed(self):
        with pytest.raises(KeyError, match="round-robin"):
            make_cluster(router="nope")
        with pytest.raises(KeyError, match="queue-depth"):
            make_cluster(autoscaler="nope")

    def test_negative_prices_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            FleetCostModel(chip_hour_dollars=-1.0)


class TestFleetRun:
    def test_conservation(self, fleet_report):
        report = fleet_report
        assert report.num_requests == 80
        assert report.completed + report.rejected == 80
        assert sum(r.requests_routed for r in report.replicas) == 80
        assert sum(r.completed for r in report.replicas) == report.completed
        assert report.total_tokens == sum(r.total_tokens for r in report.replicas)

    def test_fleet_percentiles_cover_every_request(self, fleet_report):
        assert len(fleet_report.requests) == fleet_report.completed
        ids = [m.request_id for m in fleet_report.requests]
        assert ids == sorted(ids)

    def test_fixed_autoscaler_keeps_whole_fleet(self, fleet_report):
        start_s, count = fleet_report.replica_timeline[0]
        assert len(fleet_report.replica_timeline) == 1  # no scaling events
        assert count == 3
        assert fleet_report.peak_active_replicas == 3
        assert fleet_report.mean_active_replicas == pytest.approx(3.0)

    def test_round_robin_spreads_requests(self, fleet_report):
        routed = [r.requests_routed for r in fleet_report.replicas]
        assert max(routed) - min(routed) <= 1

    def test_energy_and_cost_accounting(self, fleet_report):
        report = fleet_report
        assert report.total_energy_joules > 0
        assert report.chip_hours > 0
        assert report.cost_per_million_tokens_dollars > 0
        expected = report.cost_model.run_dollars(report.chip_hours,
                                                 report.total_energy_joules)
        assert report.cost_per_million_tokens_dollars == pytest.approx(
            expected / (report.total_tokens / 1e6))

    def test_utilisation_bounded(self, fleet_report):
        assert 0.0 < fleet_report.utilisation <= 1.0
        for replica in fleet_report.replicas:
            assert replica.active_s > 0

    def test_utilisation_bounded_under_aggressive_scale_in(self):
        # Regression for drain-aware billing pushing utilisation past 1.0:
        # an opening burst scales the fleet out, a monster decode lands on a
        # high-index replica, and a long quiet tail scales everything back
        # in while that replica is still draining.  Fleet and per-replica
        # utilisation must stay inside [0, 1] throughout.
        requests = [Request(request_id=i, arrival_s=0.0,
                            input_tokens=64, output_tokens=16)
                    for i in range(12)]
        requests.append(Request(request_id=12, arrival_s=5.0,
                                input_tokens=64, output_tokens=30000))
        requests.extend(Request(request_id=13 + k, arrival_s=7.0 + 3.0 * k,
                                input_tokens=64, output_tokens=4)
                        for k in range(16))
        report = make_cluster(replicas=3, autoscaler="queue-depth",
                              router="least-outstanding-requests",
                              ).run(tuple(requests))
        assert len(report.replica_timeline) > 1  # the fleet actually scaled
        assert 0.0 <= report.utilisation <= 1.0
        for replica in report.replicas:
            assert 0.0 <= replica.utilisation <= 1.0
            assert replica.busy_s <= replica.active_s

    def test_utilisation_clamped_for_any_replica_rows(self):
        # The property must be provably in [0, 1] even for hand-built rows
        # whose busy time exceeds the billed time (the drain-billing shape
        # the clamp defends against).
        overrun = ReplicaSummary(
            index=0, tpu_name="tpuv4i", scheduler="fcfs", devices=2,
            active_s=10.0, busy_s=25.0, utilisation=1.0, requests_routed=1,
            completed=1, rejected=0, total_tokens=100, tokens_per_second=1.0,
            mxu_energy_joules=1.0, total_energy_joules=2.0,
            kv_budget_bytes=1, peak_kv_reserved_bytes=1,
            cost_cache_hits=0, cost_cache_misses=1)
        report = dataclasses.replace(make_cluster(replicas=1).run(
            make_trace(num_requests=5)), replicas=(overrun,))
        assert report.utilisation == 1.0

    def test_bit_for_bit_determinism(self):
        first = make_cluster(replicas=3, autoscaler="queue-depth",
                             router="least-kv-pressure").run(make_trace())
        second = make_cluster(replicas=3, autoscaler="queue-depth",
                              router="least-kv-pressure").run(make_trace())
        assert first.to_dict() == second.to_dict()

    def test_single_replica_cluster_matches_plain_serving(self):
        trace = make_trace()
        cluster = make_cluster(replicas=1).run(trace)
        plain = ServingSimulator(CLUSTER_LLM, tpuv4i_baseline()).run(trace)
        assert cluster.completed == plain.completed
        assert cluster.ttft.p99_s == plain.ttft.p99_s
        assert cluster.total_tokens == plain.total_tokens

    def test_heterogeneous_fleet(self):
        shared_trace = make_trace()
        replicas = [ServingSimulator(CLUSTER_LLM, tpuv4i_baseline()),
                    ServingSimulator(CLUSTER_LLM, design_a()),
                    ServingSimulator(CLUSTER_LLM, design_b(), max_batch=8)]
        report = ClusterSimulator(replicas,
                                  router="least-outstanding-requests").run(shared_trace)
        assert report.completed + report.rejected == len(shared_trace)
        names = {r.tpu_name for r in report.replicas}
        assert names == {"tpuv4i-baseline", "design-a", "design-b"}

    def test_to_dict_shapes(self, fleet_report):
        payload = fleet_report.to_dict()
        assert payload["router"] == "round-robin"
        assert len(payload["requests"]) == fleet_report.completed
        assert payload["replica_timeline"][0][1] == 3
        slim = fleet_report.to_dict(include_requests=False)
        assert "requests" not in slim

    def test_replica_rows_export_as_csv(self, fleet_report):
        text = to_csv(fleet_report.replicas,
                      fieldnames=fieldnames_of(type(fleet_report.replicas[0])))
        assert text.startswith("index,")
        assert text.count("\n") == 4  # header + three replicas


class TestAutoscaledRun:
    def test_cold_start_delays_scale_out(self):
        # A bursty overload forces scale-out; late replicas are active for
        # less simulated time than replica 0, which serves from the start.
        trace = make_trace(num_requests=120, rate=200.0, kind="bursty")
        report = make_cluster(replicas=3, autoscaler="queue-depth").run(trace)
        assert report.replica_timeline[0][1] == 1  # starts at min_replicas
        assert report.peak_active_replicas >= 2
        actives = [r.active_s for r in report.replicas]
        assert actives[0] >= max(actives[1:])

    def test_scale_in_drain_is_billed(self):
        # Scale-out under an opening burst, route one very long decode to
        # the high-index replica, then let a quiet tail trigger scale-in
        # while that decode is still draining: the drained work must stay
        # inside the billed time (utilisation <= 100%, cost covers it).
        requests = [Request(request_id=i, arrival_s=0.0,
                            input_tokens=64, output_tokens=32)
                    for i in range(10)]  # simultaneous burst: forces scale-out
        # Filler occupies replica 0 so least-outstanding sends the long
        # decode to the (just warmed-up) replica 1.
        requests.append(Request(request_id=10, arrival_s=5.9,
                                input_tokens=64, output_tokens=500))
        requests.append(Request(request_id=11, arrival_s=6.0,
                                input_tokens=64, output_tokens=20000))
        requests.extend(Request(request_id=12 + k, arrival_s=8.0 + 2.0 * k,
                                input_tokens=64, output_tokens=8)
                        for k in range(12))
        report = make_cluster(replicas=2, autoscaler="queue-depth",
                              router="least-outstanding-requests",
                              shared=CachingInferenceSimulator(tpuv4i_baseline()),
                              ).run(tuple(requests))
        counts = [count for _, count in report.replica_timeline]
        assert max(counts) == 2
        assert counts[-1] == 1  # the quiet tail scaled the fleet back in
        for replica in report.replicas:
            assert replica.active_s >= replica.busy_s
            assert 0.0 <= replica.utilisation <= 1.0
        assert report.chip_hours * 3600.0 >= sum(
            r.devices * r.busy_s for r in report.replicas)

    def test_instant_scale_out_is_routable_at_once(self):
        # With no cold start, replicas activated at an arrival are routable
        # for that same arrival: dispatch must survey the rescaled fleet,
        # not reuse the views taken before the rescale.
        step_up = AutoscalerPolicy(
            name="step-up", description="one replica, then the whole fleet",
            decide=lambda view, state: 1 if view.now_s < 0.5 else view.fleet_size,
            cold_start_s=0.0)
        requests = tuple(Request(request_id=i, arrival_s=0.1 * i,
                                 input_tokens=64, output_tokens=8)
                         for i in range(10))
        report = make_cluster(replicas=3, autoscaler=step_up).run(requests)
        assert report.replica_timeline == ((0.0, 1), (0.5, 3))
        # Round-robin sends the n-th arrival to replica n % 3 from the
        # scale-out on: arrivals 5 and 8 to replica 2, arrival 7 to replica 1.
        assert [r.requests_routed for r in report.replicas] == [7, 1, 2]

    def test_mean_active_between_min_and_fleet(self):
        trace = make_trace(num_requests=120, rate=200.0, kind="bursty")
        report = make_cluster(replicas=3, autoscaler="queue-depth").run(trace)
        assert 1.0 <= report.mean_active_replicas <= 3.0

    def test_session_affinity_concentrates_one_session(self):
        # Every request of one session must land on one replica, however
        # loaded it is — the KV-reuse contract of the affinity router.
        requests = tuple(Request(request_id=i, arrival_s=0.05 * i,
                                 input_tokens=64, output_tokens=8,
                                 session_id=42)
                         for i in range(40))
        report = make_cluster(replicas=4, router="session-affinity",
                              shared=CachingInferenceSimulator(tpuv4i_baseline()),
                              ).run(requests)
        routed = sorted(r.requests_routed for r in report.replicas)
        assert routed == [0, 0, 0, 40]

    def test_session_affinity_spreads_distinct_sessions(self):
        requests = tuple(Request(request_id=i, arrival_s=0.05 * i,
                                 input_tokens=64, output_tokens=8,
                                 session_id=i)
                         for i in range(40))
        report = make_cluster(replicas=4, router="session-affinity",
                              shared=CachingInferenceSimulator(tpuv4i_baseline()),
                              ).run(requests)
        assert sum(1 for r in report.replicas if r.requests_routed > 0) > 1


class TestReplicaViews:
    def test_view_is_reused_until_the_load_moves(self):
        trace = make_trace(num_requests=4)
        handle = _ReplicaHandle(0, ServingSimulator(CLUSTER_LLM, tpuv4i_baseline()),
                                trace)
        idle = handle.view()
        assert handle.view() is idle
        handle.assign(trace[0], trace[0].arrival_s)
        busy = handle.view()
        assert (busy.outstanding_requests, busy.outstanding_tokens) == (
            1, trace[0].total_tokens)
        assert handle.view() is busy
        handle.drain(float("inf"))
        assert handle.view() == idle

    def test_view_is_the_constructed_dataclass(self):
        # Views and router contexts are built without their constructor,
        # which is exact only while neither class validates in one.
        assert not hasattr(ReplicaView, "__post_init__")
        assert not hasattr(RouterContext, "__post_init__")
        trace = make_trace(num_requests=4)
        handle = _ReplicaHandle(0, ServingSimulator(CLUSTER_LLM, tpuv4i_baseline()),
                                trace)
        handle.assign(trace[0], trace[0].arrival_s)
        view = handle.view()
        rebuilt = dataclasses.replace(view)
        assert rebuilt == view and hash(rebuilt) == hash(view)
        assert vars(rebuilt) == vars(view)

    def test_crash_empties_the_view(self):
        trace = make_trace(num_requests=4)
        handle = _ReplicaHandle(0, ServingSimulator(CLUSTER_LLM, tpuv4i_baseline()),
                                trace)
        for request in trace:
            handle.assign(request, trace[0].arrival_s)
        assert handle.view().outstanding_requests == len(trace)
        handle.crash(trace[0].arrival_s, up_at=trace[0].arrival_s + 1.0)
        view = handle.view()
        assert (view.outstanding_requests, view.outstanding_tokens) == (0, 0)

    def test_drain_with_nothing_due_keeps_the_view(self):
        trace = make_trace(num_requests=4)
        handle = _ReplicaHandle(0, ServingSimulator(CLUSTER_LLM, tpuv4i_baseline()),
                                trace)
        now = trace[0].arrival_s
        handle.assign(trace[0], now)
        busy = handle.view()
        handle.drain(now)
        assert handle.view() is busy
        assert handle.view_builds == 1

    def test_views_are_built_per_load_change_not_per_arrival(self):
        # A view is built once per replica, then only after an assignment
        # or a drain that retires estimates: at most 3 + 2 x 80 here, where
        # a rebuild per replica per arrival would be 3 x 80.
        trace = make_trace()
        tel = Telemetry()
        make_cluster(replicas=3, router="least-outstanding-requests",
                     ).run(trace, telemetry=tel)
        assert tel.counters["cluster.view_builds"] <= 3 + 2 * len(trace)

    @staticmethod
    def _route(requests):
        """Replica of each route decision on a fleet whose replica 0 holds
        fewer tokens than replica 1 (least-outstanding prefers replica 0)."""
        engines = [ServingSimulator(CLUSTER_LLM, tpuv4i_baseline(), devices=devices)
                   for devices in (1, 2)]
        tel = Telemetry()
        report = ClusterSimulator(engines, router="least-outstanding-requests",
                                  ).run(requests, telemetry=tel)
        routes = [event.args["replica"] for event in tel.events
                  if event.track == "router" and event.name == "route"]
        return routes, report

    def test_token_limit_is_the_fit_boundary(self):
        trace = make_trace(num_requests=1)
        limit = _ReplicaHandle(
            0, ServingSimulator(CLUSTER_LLM, tpuv4i_baseline(), devices=1),
            trace).token_limit
        # One token over replica 0's limit only fits replica 1; exactly the
        # limit fits replica 0, idle while replica 1 holds the first.
        routes, report = self._route((
            Request(request_id=0, arrival_s=0.0, input_tokens=limit,
                    output_tokens=1),
            Request(request_id=1, arrival_s=0.001, input_tokens=limit - 1,
                    output_tokens=1)))
        assert routes == [1, 0]
        assert (report.completed, report.rejected) == (2, 0)

    def test_request_no_replica_fits_falls_back_to_every_candidate(self):
        # The oversized request sees both replicas and goes to the idle one;
        # its replica rejects it at admission.
        routes, report = self._route((
            Request(request_id=0, arrival_s=0.0, input_tokens=64,
                    output_tokens=8),
            Request(request_id=1, arrival_s=0.001, input_tokens=10_000_000,
                    output_tokens=1)))
        assert routes == [0, 1]
        assert (report.completed, report.rejected, report.shed) == (1, 1, 0)


class TestRoutableEdges:
    """An arrival landing exactly on a routability edge sees the new set."""

    def test_stall_window_edges(self):
        # Replica 0 stalls over [1.0, 3.0): the arrival at 1.0 must avoid it
        # and the arrival at 3.0 must see it routable again.
        requests = tuple(Request(request_id=i, arrival_s=at, input_tokens=64,
                                 output_tokens=out)
                         for i, (at, out) in enumerate(
                             [(0.0, 2), (0.0, 4000), (1.0, 2), (3.0, 2)]))
        tel = Telemetry()
        make_cluster(replicas=2, router="least-outstanding-requests",
                     faults=(FaultSpec("admission-stall", at_s=1.0,
                                       duration_s=2.0, replica=0),),
                     ).run(requests, telemetry=tel)
        routes = [event.args["replica"] for event in tel.events
                  if event.track == "router" and event.name == "route"]
        assert routes == [0, 1, 1, 0]

    def test_cold_start_end_edge(self):
        # Replica 1 is activated at 0.5 and routable from exactly 1.5.
        step_up = AutoscalerPolicy(
            name="step-up-cold", description="one replica, then the fleet",
            decide=lambda view, state: 1 if view.now_s < 0.5 else view.fleet_size,
            cold_start_s=1.0)
        requests = tuple(Request(request_id=i, arrival_s=0.5 * i,
                                 input_tokens=64, output_tokens=8)
                         for i in range(5))
        report = make_cluster(replicas=2, autoscaler=step_up).run(requests)
        assert [r.requests_routed for r in report.replicas] == [4, 1]


#: Four-replica llama2-7b fleets of 60 requests: every router x {fixed,
#: queue-depth} x {no fault, a crash of replica 0}.  They span every SLO
#: outcome: all met, some met and none met (queue-depth stays small).
AGGREGATE_FLEET = dict(design="design-a", llm="llama2-7b",
                       scenario="chat-serving", input_tokens=64,
                       output_tokens=16, rate=48.0, requests=60, seed=7,
                       replicas=4)
AGGREGATE_CASES = {
    f"{router}/{autoscaler}/{fault}": dict(AGGREGATE_FLEET, router=router,
                                           autoscaler=autoscaler, faults=faults)
    for router in ("round-robin", "least-outstanding-requests",
                   "least-kv-pressure", "session-affinity")
    for autoscaler in ("fixed", "queue-depth")
    for fault, faults in (
        ("none", ()),
        ("crash", ("replica-crash:at_s=0.4,duration_s=0.3,replica=0",)))}
# Two fleets whose replicas reject requests: 13 of 20, then all 20.
AGGREGATE_CASES.update({
    f"rejecting/{inp}x{out}": dict(
        design="design-a", llm="llama2-7b", scenario="chat-serving",
        input_tokens=inp, output_tokens=out, rate=1.0, requests=20, seed=3,
        replicas=2, devices=1)
    for inp, out in ((8192, 1024), (16384, 2048))})


class TestFleetAggregates:
    """Every fleet aggregate equals its definition over ``report.requests``."""

    @staticmethod
    def recompute(report):
        """The aggregates from the rows, each by its plain formula."""
        rows, slo = report.requests, report.slo
        met = [m for m in rows if m.meets(slo)]
        healthy = [m for m in rows if not m.disrupted and m.meets(slo)]
        per_second = 1.0 / report.makespan_s if report.makespan_s > 0 else 0.0

        def summary(values):
            return LatencySummary.from_values(values) if rows else LatencySummary.empty()

        return {
            "ttft": summary([m.ttft_s for m in rows]),
            "tpot": summary([m.tpot_s for m in rows]),
            "e2e": summary([m.e2e_s for m in rows]),
            "slo_attainment": len(met) / len(rows) if rows else 0.0,
            "goodput_requests_per_second": len(met) * per_second,
            "goodput_tokens_per_second": sum(m.output_tokens for m in met) * per_second,
            "disrupted_requests": sum(1 for m in rows if m.disrupted),
            "slo_debt_s": sum(slo_debt_s(m, slo) for m in rows),
            "goodput_under_failure_requests_per_second": len(healthy) * per_second,
            "goodput_under_failure_tokens_per_second": (
                sum(m.output_tokens for m in healthy) * per_second),
        }

    @staticmethod
    def reported(report):
        resilience = report.resilience
        return {
            "ttft": report.ttft, "tpot": report.tpot, "e2e": report.e2e,
            "slo_attainment": report.slo_attainment,
            "goodput_requests_per_second": report.goodput_requests_per_second,
            "goodput_tokens_per_second": report.goodput_tokens_per_second,
            "disrupted_requests": resilience.disrupted_requests,
            "slo_debt_s": resilience.slo_debt_s,
            "goodput_under_failure_requests_per_second":
                resilience.goodput_under_failure_requests_per_second,
            "goodput_under_failure_tokens_per_second":
                resilience.goodput_under_failure_tokens_per_second,
        }

    @pytest.mark.parametrize("case", sorted(AGGREGATE_CASES))
    def test_aggregates_match_their_definitions(self, case):
        request = SimulateRequest(**AGGREGATE_CASES[case])
        model, config, settings = request.resolve()
        report = simulate_cluster(model, config, request.spec(), settings)
        ids = [m.request_id for m in report.requests]
        assert ids == sorted(ids)
        assert report.completed == len(report.requests)
        if "/crash" in case:
            assert report.resilience.crash_count == 1
        # repr pins the last bit and the type: no completed row sums to 0.
        assert ({name: repr(value) for name, value in self.reported(report).items()}
                == {name: repr(value) for name, value in self.recompute(report).items()})


class TestSimulateCluster:
    SPEC = ServingSpec(scheduler="fcfs", arrival_rate=40.0, num_requests=40,
                       seed=3, replicas=2, router="least-kv-pressure",
                       autoscaler="fixed")

    def test_runs_from_spec(self):
        from repro.core.simulator import LLMInferenceSettings

        settings = LLMInferenceSettings(batch=2, input_tokens=64,
                                        output_tokens=16, decode_kv_samples=2)
        report = simulate_cluster(CLUSTER_LLM, tpuv4i_baseline(), self.SPEC,
                                  settings)
        assert report.fleet_size == 2
        assert report.router == "least-kv-pressure"
        assert report.completed + report.rejected == 40

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="replicas"):
            ServingSpec(replicas=0)
        with pytest.raises(ValueError, match="min_replicas"):
            ServingSpec(replicas=2, min_replicas=3)

    def test_spec_summary_mentions_fleet(self):
        assert "x2 least-kv-pressure/fixed" in self.SPEC.summary()
        assert "x1" not in ServingSpec().summary()


class TestSweepIntegration:
    def make_serving_grid(self, **overrides):
        return SweepGrid(designs={"baseline": tpuv4i_baseline()},
                         models=["llama2-7b"], scenarios=["llm-serving"],
                         precisions=(Precision.INT8,), batches=(2,),
                         schedulers=("fcfs",), arrival_rates=(20.0,),
                         serving_requests=20, input_tokens=64,
                         output_tokens=16, **overrides)

    def test_fleet_axes_expand(self):
        grid = self.make_serving_grid(routers=("round-robin", "least-kv-pressure"),
                                      replica_counts=(1, 2))
        specs = grid.serving_specs()
        # Replica count 1 is router-independent, so the two single-replica
        # specs collapse into one (no duplicate simulations or rows).
        assert len(specs) == 3
        assert {(s.router, s.replicas) for s in specs} == {
            ("round-robin", 1), ("round-robin", 2),
            ("least-kv-pressure", 2)}
        assert len(grid) == 3

    def test_router_only_axis_does_not_duplicate_rows(self):
        grid = self.make_serving_grid(routers=("round-robin",
                                               "least-kv-pressure"))
        assert len(grid.serving_specs()) == 1  # no replica axis: one spec

    def test_fleet_axes_require_serving_grid(self):
        with pytest.raises(ValueError, match="fleet axes"):
            SweepGrid(designs={"baseline": tpuv4i_baseline()},
                      models=["llama2-7b"], routers=("round-robin",))

    def test_invalid_replica_counts_rejected(self):
        with pytest.raises(ValueError, match="replica_counts"):
            self.make_serving_grid(replica_counts=(0,))

    def test_engine_evaluates_fleet_point(self):
        grid = self.make_serving_grid(routers=("round-robin",),
                                      replica_counts=(2,))
        rows = SweepEngine().sweep(grid)
        assert len(rows) == 1
        row = rows[0]
        assert "x2 round-robin/fixed" in row.settings_summary
        assert row.devices == 2  # one device per replica for this model
        assert row.item_unit == "token"
        assert row.throughput > 0

    def test_fleet_point_caches_and_reproduces(self):
        engine = SweepEngine()
        point = make_point("baseline", tpuv4i_baseline(), CLUSTER_LLM,
                           batch=2, input_tokens=64, output_tokens=16,
                           decode_kv_samples=2, scenario="llm-serving",
                           serving=ServingSpec(arrival_rate=30.0,
                                               num_requests=20, replicas=2))
        first = engine.evaluate(point)
        second = engine.evaluate(point)
        assert first == second
        assert engine.stats.point_hits == 1
        assert SweepEngine().evaluate(point) == first
