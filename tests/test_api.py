"""Tests for the unified ``repro.api`` facade: schemas, errors, accounting.

The contract under test is the one every surface shares: requests are
frozen dataclasses that validate at construction and round-trip JSON
exactly; failures are structured :class:`ApiError` values; facade calls
return response envelopes whose accounting header states exactly what
the run cost, and a warm store serves any repeat with zero new
simulations and a byte-identical payload.
"""

import json

import pytest

from repro import api
from repro.api import (
    ApiError,
    ApiRequestError,
    AutoconfigPreviewRequest,
    FleetRequest,
    OptimizeRequest,
    SimulateRequest,
    SweepRequest,
    request_fingerprint,
    request_from_dict,
    response_from_dict,
)
from repro.cli import main as cli_main
from repro.codec import decode, encode
from repro.optimize import OBJECTIVE_REGISTRY, SEARCH_REGISTRY
from repro.serving.autoscaler import AUTOSCALER_REGISTRY
from repro.serving.costs import STEP_PRICES
from repro.serving.router import ROUTER_REGISTRY
from repro.serving.scheduler import SCHEDULER_REGISTRY
from repro.serving.trace import TRACE_REGISTRY
from repro.sweep.store import ResultStore
from repro.workloads.registry import MODEL_REGISTRY, SCENARIO_REGISTRY

#: Small, fast serving run shared by the facade tests.
FAST = dict(llm="llama2-7b", input_tokens=64, output_tokens=16,
            rate=20.0, requests=30, seed=7)


def strip_accounting(payload):
    """Drop the provenance header fields that legitimately differ warm."""
    return {key: value for key, value in payload.items()
            if key not in ("served_from_store", "new_simulations",
                           "store_hits", "store_misses")}


class TestRequestRoundTrip:
    @pytest.mark.parametrize("request_obj", [
        SimulateRequest(**FAST),
        SimulateRequest(**FAST, replicas=2,
                        faults=("replica-crash:at_s=1,duration_s=2",)),
        FleetRequest(rate=30.0, llm="llama2-7b", input_tokens=64,
                     output_tokens=16, requests=30),
        SweepRequest(designs=("baseline",), models=("llama2-7b",),
                     batches=(1,), input_tokens=64, output_tokens=16),
        OptimizeRequest(llm="llama2-7b", designs=("baseline",),
                        replica_counts=(1,), input_tokens=64,
                        output_tokens=16, requests=30),
        AutoconfigPreviewRequest(llm="llama2-7b"),
    ], ids=["simulate", "simulate-fleet", "fleet", "sweep", "optimize",
            "autoconfig-preview"])
    def test_to_dict_from_dict_is_exact(self, request_obj):
        payload = request_obj.to_dict()
        # Payload is pure JSON: survives a serialise/parse trip unchanged.
        assert json.loads(json.dumps(payload)) == payload
        assert payload["kind"] == request_obj.kind
        assert payload["schema_version"] == api.SCHEMA_VERSION
        decoded = type(request_obj).from_dict(payload)
        assert decoded == request_obj
        assert decoded.to_dict() == payload

    def test_request_from_dict_dispatches_on_kind(self):
        decoded = request_from_dict(SimulateRequest(**FAST).to_dict())
        assert isinstance(decoded, SimulateRequest)
        assert decoded.rate == FAST["rate"]

    def test_defaults_need_no_fields_except_fleet_rate(self):
        # Every kind except fleet constructs from just its kind marker.
        for kind in ("simulate", "sweep", "optimize", "autoconfig-preview"):
            assert request_from_dict({"kind": kind}).kind == kind
        with pytest.raises(ApiRequestError) as excinfo:
            request_from_dict({"kind": "fleet"})
        assert excinfo.value.error.code == "missing-field"
        assert excinfo.value.error.field == "rate"


class TestStrictDecoding:
    @pytest.mark.parametrize("field, value", [("rte", 12.0), ("shards", 4)])
    def test_unknown_field_is_rejected(self, field, value):
        payload = SimulateRequest(**FAST).to_dict()
        payload[field] = value
        with pytest.raises(ApiRequestError) as excinfo:
            SimulateRequest.from_dict(payload)
        assert excinfo.value.error.code == "unknown-field"
        assert excinfo.value.error.field == field

    def test_mismatched_kind_is_rejected(self):
        payload = SimulateRequest(**FAST).to_dict()
        with pytest.raises(ApiRequestError) as excinfo:
            FleetRequest.from_dict(payload)
        assert excinfo.value.error.code == "invalid-kind"

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ApiRequestError) as excinfo:
            request_from_dict({"kind": "simulte"})
        assert excinfo.value.error.code == "invalid-kind"
        assert "simulte" in excinfo.value.error.message

    def test_unsupported_schema_version_is_rejected(self):
        payload = SimulateRequest(**FAST).to_dict()
        payload["schema_version"] = api.SCHEMA_VERSION + 1
        with pytest.raises(ApiRequestError) as excinfo:
            SimulateRequest.from_dict(payload)
        assert excinfo.value.error.code == "unsupported-schema-version"

    def test_non_object_payload_is_rejected(self):
        with pytest.raises(ApiRequestError) as excinfo:
            request_from_dict([1, 2, 3])
        assert excinfo.value.error.code == "invalid-json"

    @pytest.mark.parametrize("overrides, field", [
        (dict(design="gpu"), "design"),
        (dict(scheduler="lifo"), "scheduler"),
        (dict(trace="uniform"), "trace"),
        (dict(faults=("bogus:at_s=1",)), "faults[0]"),
        # Held to the annotations: no JSON type slips past as-is.
        (dict(overlay=5), "overlay"),
        (dict(faults=[5]), "faults[0]"),
        (dict(faults="replica-crash:at_s=1"), "faults"),
        (dict(requests=40.0), "requests"),
        (dict(requests=True), "requests"),
        (dict(rate=True), "rate"),
        (dict(rate="16"), "rate"),
        (dict(devices=2.0), "devices"),
        # Range checks name the request's field, not the spec's.
        (dict(rate=0), "rate"),
        (dict(requests=0), "requests"),
        (dict(replicas=0), "replicas"),
        (dict(replicas=3, min_replicas=5), "min_replicas"),
        (dict(max_batch=0), "max_batch"),
        (dict(bucket=0), "bucket"),
        (dict(devices=0), "devices"),
        (dict(fidelity="nope"), "fidelity"),
        (dict(fidelity="fluid", faults=("replica-crash:at_s=1",)), "fidelity"),
        (dict(batch=0), "batch"),
        (dict(input_tokens=0), "input_tokens"),
        (dict(output_tokens=0), "output_tokens"),
    ])
    def test_invalid_field_names_the_field(self, overrides, field):
        with pytest.raises(ApiRequestError) as excinfo:
            SimulateRequest(**{**FAST, **overrides})
        assert excinfo.value.error.code == "invalid-field"
        assert excinfo.value.error.field == field

    def test_fleet_max_batch_must_be_positive(self):
        with pytest.raises(ApiRequestError) as excinfo:
            FleetRequest(rate=8.0, max_batch=0)
        assert excinfo.value.error.code == "invalid-field"
        assert excinfo.value.error.field == "max_batch"
        assert excinfo.value.error.message == "max_batch must be positive"

    @pytest.mark.parametrize("cls, overrides, field", [
        (OptimizeRequest, dict(capacity_bound="no"), "capacity_bound"),
        (OptimizeRequest, dict(replica_counts=[1, 2.5]), "replica_counts[1]"),
        (SweepRequest, dict(designs="baseline"), "designs"),
        (FleetRequest, dict(rate=8, max_replicas=None), "max_replicas"),
        (AutoconfigPreviewRequest, dict(memory_utilisation="0.9"),
         "memory_utilisation"),
    ])
    def test_every_kind_holds_fields_to_their_annotations(self, cls, overrides,
                                                          field):
        with pytest.raises(ApiRequestError) as excinfo:
            cls(**overrides)
        assert excinfo.value.error.code == "invalid-field"
        assert excinfo.value.error.field == field

    @pytest.mark.parametrize("cls, field", [
        *[(SimulateRequest, field) for field in (
            "scheduler", "router", "autoscaler", "trace", "llm", "scenario")],
        *[(FleetRequest, field) for field in (
            "scheduler", "router", "trace", "llm", "scenario")],
        *[(SweepRequest, field) for field in (
            "models", "scenarios", "schedulers", "routers", "trace",
            "autoscaler")],
        *[(OptimizeRequest, field) for field in (
            "strategy", "trace", "llm", "scenario", "objectives")],
        (AutoconfigPreviewRequest, "scheduler"),
        (AutoconfigPreviewRequest, "llm"),
    ])
    def test_unknown_name_reads_as_its_registry_says(self, cls, field):
        registry = {"scheduler": SCHEDULER_REGISTRY, "router": ROUTER_REGISTRY,
                    "autoscaler": AUTOSCALER_REGISTRY, "trace": TRACE_REGISTRY,
                    "llm": MODEL_REGISTRY, "models": MODEL_REGISTRY,
                    "scenario": SCENARIO_REGISTRY, "strategy": SEARCH_REGISTRY,
                    "objectives": OBJECTIVE_REGISTRY, "scenarios": SCENARIO_REGISTRY,
                    "schedulers": SCHEDULER_REGISTRY, "routers": ROUTER_REGISTRY}[field]
        value = ("x",) if field.endswith("s") else "x"
        required = {"rate": 8.0} if cls is FleetRequest else {}
        with pytest.raises(ApiRequestError) as excinfo:
            cls(**required, **{field: value})
        with pytest.raises(KeyError) as unknown:
            registry["x"]
        assert excinfo.value.error == ApiError(
            code="invalid-field", message=unknown.value.args[0], field=field)

    def test_lists_become_tuples_and_integral_floats_floats(self):
        request = SweepRequest(designs=["baseline"], models=["llama2-7b"],
                               batches=[2], schedulers=["fcfs"],
                               arrival_rates=[4], input_tokens=64,
                               output_tokens=16)
        assert request.designs == ("baseline",)
        assert request.arrival_rates == (4.0,)
        assert type(request.arrival_rates[0]) is float
        assert request == SweepRequest.from_dict(request.to_dict())

    def test_error_render_carries_code_message_and_field(self):
        error = ApiError(code="invalid-field", message="rate must be positive",
                         field="rate")
        assert error.render() == \
            "invalid-field: rate must be positive (field: rate)"
        assert decode(ApiError, encode(error)) == error

    def test_unknown_error_code_is_a_bug(self):
        with pytest.raises(ValueError, match="unknown ApiError code"):
            ApiError(code="oops", message="x")


class TestRequestFingerprint:
    def test_execution_hints_do_not_change_identity(self):
        one = SweepRequest(designs=("baseline",), models=("llama2-7b",),
                           batches=(1,), input_tokens=64, output_tokens=16)
        many = SweepRequest(designs=("baseline",), models=("llama2-7b",),
                            batches=(1,), input_tokens=64, output_tokens=16,
                            workers=4)
        assert request_fingerprint(one) == request_fingerprint(many)

    def test_content_changes_identity(self):
        base = SimulateRequest(**FAST)
        bumped = SimulateRequest(**{**FAST, "rate": FAST["rate"] + 1})
        assert request_fingerprint(base) != request_fingerprint(bumped)


class TestSimulateFacade:
    def test_cold_then_warm_store_is_byte_identical(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        request = SimulateRequest(**FAST)
        cold = api.simulate(request, store=store)
        assert cold.new_simulations == 1
        assert not cold.served_from_store
        assert cold.store_misses == 1
        warm = api.simulate(request, store=store)
        assert warm.new_simulations == 0
        assert warm.served_from_store
        assert warm.store_hits == 1
        assert strip_accounting(warm.to_dict()) == \
            strip_accounting(cold.to_dict())

    def test_report_object_decodes_serving_report(self, tmp_path):
        response = api.simulate(SimulateRequest(**FAST))
        report = response.report_object()
        assert not response.fleet
        assert report.num_requests == FAST["requests"]
        assert report.to_dict() == dict(response.report)

    def test_fleet_shaped_run_takes_cluster_path(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        request = SimulateRequest(**FAST, replicas=2)
        cold = api.simulate(request, store=store)
        assert cold.fleet
        assert cold.report_object().fleet_size == 2
        warm = api.simulate(request, store=store)
        assert warm.served_from_store
        assert dict(warm.report) == dict(cold.report)

    def test_unusable_store_is_an_engine_error(self):
        store = ResultStore("/proc/nope/store.jsonl")
        with pytest.raises(ApiRequestError) as excinfo:
            api.simulate(SimulateRequest(**FAST), store=store)
        assert excinfo.value.error.code == "engine-error"


class TestUndecodableStoredReport:
    """A stored payload that no longer decodes is a miss, not a hit."""

    @staticmethod
    def _corrupt(payload, how):
        payload = json.loads(json.dumps(payload))
        if how == "missing-field":
            del payload["ttft"]
        elif how == "wrong-type":
            payload["ttft"] = [0.1, 0.2]
        else:  # a row whose first token precedes its arrival
            row = payload["requests"][0]
            row["first_token_s"] = row["arrival_s"] - 1.0
        return payload

    @pytest.mark.parametrize("replicas, how", [
        (1, "missing-field"), (2, "missing-field"), (1, "wrong-type"),
        (2, "wrong-type"), (1, "unordered-row")])
    def test_undecodable_record_is_resimulated_and_counted_as_a_miss(
            self, tmp_path, replicas, how):
        path = tmp_path / "store.jsonl"
        request = SimulateRequest(**{**FAST, "requests": 40},
                                  replicas=replicas)
        cold = api.simulate(request, store=ResultStore(path))
        store = ResultStore(path)
        (kind, key), = store.keys()
        store.put(kind, key, self._corrupt(cold.report, how))
        store = ResultStore(path)
        warm = api.simulate(request, store=store)
        assert (warm.served_from_store, warm.new_simulations,
                warm.store_hits, warm.store_misses) == (False, 1, 0, 1)
        assert (store.stats.hits, store.stats.misses) == (0, 1)
        assert warm.report == cold.report


class TestOtherFacades:
    def test_fleet_warm_repeat_costs_nothing(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        request = FleetRequest(rate=30.0, llm="llama2-7b", input_tokens=64,
                               output_tokens=16, requests=30)
        cold = api.fleet(request, store=store)
        assert cold.new_simulations > 0
        plan = cold.plan_object()
        assert plan.replicas >= 1
        assert len(plan.evaluations) == len(cold.plan["evaluations"])
        warm = api.fleet(request, store=store)
        assert warm.new_simulations == 0
        assert warm.served_from_store
        assert warm.store_hits > 0
        assert dict(warm.plan) == dict(cold.plan)

    def test_sweep_warm_repeat_costs_nothing(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        request = SweepRequest(designs=("baseline",), models=("llama2-7b",),
                               batches=(1,), input_tokens=64, output_tokens=16)
        cold = api.sweep(request, store=store)
        assert cold.new_simulations > 0
        assert cold.rows
        assert [encode(r) for r in cold.row_objects()] == \
            [dict(row) for row in cold.rows]
        warm = api.sweep(request, store=store)
        assert warm.new_simulations == 0
        assert warm.served_from_store
        assert warm.rows == cold.rows

    def test_sweep_without_store_reports_no_store_traffic(self):
        request = SweepRequest(designs=("baseline",), models=("llama2-7b",),
                               batches=(1,), input_tokens=64, output_tokens=16)
        response = api.sweep(request)
        assert (response.stats["store_hits"], response.stats["store_misses"]) == (0, 0)
        assert (response.store_hits, response.store_misses) == (0, 0)

    def test_sweep_stats_count_each_store_load_once(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        request = SweepRequest(designs=("baseline",), models=("llama2-7b",),
                               batches=(1, 2), input_tokens=64, output_tokens=16)
        cold = api.sweep(request, store=store)
        warm = api.sweep(request, store=store)
        rows = len(cold.rows)
        assert (cold.stats["store_hits"], cold.stats["store_misses"]) == (0, rows)
        assert (warm.stats["store_hits"], warm.stats["store_misses"]) == (rows, 0)
        for response in (cold, warm):
            assert (response.stats["store_hits"], response.stats["store_misses"]) == \
                (response.store_hits, response.store_misses)
            assert list(response.stats)[-2:] == ["store_hits", "store_misses"]

    def test_optimize_warm_repeat_costs_nothing(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        request = OptimizeRequest(llm="llama2-7b", designs=("baseline",),
                                  replica_counts=(1,), input_tokens=64,
                                  output_tokens=16, requests=30)
        cold = api.optimize(request, store=store)
        assert cold.new_simulations > 0
        warm = api.optimize(request, store=store)
        assert warm.new_simulations == 0
        assert warm.served_from_store
        cold_frontier = dict(cold.frontier)
        warm_frontier = dict(warm.frontier)
        for counter in ("short_runs", "full_runs", "store_served"):
            cold_frontier.pop(counter), warm_frontier.pop(counter)
        assert warm_frontier == cold_frontier
        assert len(warm.frontier_object().points) == \
            len(warm.frontier["points"])

    def test_autoconfig_preview_never_simulates(self):
        response = api.autoconfig_preview(AutoconfigPreviewRequest(
            llm="llama2-7b"))
        assert response.new_simulations == 0
        assert response.store_hits == response.store_misses == 0
        assert not response.served_from_store
        assert response.preview["capacity"]["min_devices"] >= 1
        assert response.preview["fleet"]["lower_bound_replicas"] >= 1


class TestRunDispatcher:
    def test_dispatches_raw_payload_dicts(self):
        response = api.run({"kind": "autoconfig-preview",
                            "llm": "llama2-7b"})
        assert response.kind == "autoconfig-preview"

    def test_rejects_non_request_objects(self):
        with pytest.raises(ApiRequestError) as excinfo:
            api.run(object())
        assert excinfo.value.error.code == "invalid-kind"


class TestResponseRoundTrip:
    def test_envelope_round_trips_byte_exactly(self):
        response = api.simulate(SimulateRequest(**FAST))
        payload = response.to_dict()
        wire = json.dumps(payload, sort_keys=True)
        decoded = response_from_dict(json.loads(wire))
        assert decoded == response
        assert json.dumps(decoded.to_dict(), sort_keys=True) == wire

    def test_unknown_response_field_is_rejected(self):
        payload = api.autoconfig_preview(
            AutoconfigPreviewRequest(llm="llama2-7b")).to_dict()
        payload["extra"] = 1
        with pytest.raises(ApiRequestError) as excinfo:
            response_from_dict(payload)
        assert excinfo.value.error.code == "unknown-field"


#: One request per accounting path: the three simulate engines, a fleet
#: plan, both sweep kinds, a constrained search and a preview.
ACCOUNTED = {
    "simulate-exact": SimulateRequest(**FAST),
    "simulate-fluid": SimulateRequest(**FAST, fidelity="fluid"),
    "simulate-fleet": SimulateRequest(**FAST, replicas=2),
    "fleet": FleetRequest(rate=30.0, llm="llama2-7b", input_tokens=64,
                          output_tokens=16, requests=30),
    "sweep-analytical": SweepRequest(
        designs=("baseline",), models=("llama2-7b",), precisions=("int8",),
        batches=(1, 2), input_tokens=64, output_tokens=16),
    "sweep-serving": SweepRequest(
        designs=("design-a",), models=("llama2-7b",), precisions=("int8",),
        schedulers=("fcfs",), arrival_rates=(2.0, 8.0), trace_requests=20,
        input_tokens=32, output_tokens=8),
    "optimize": OptimizeRequest(
        llm="llama2-7b", designs=("baseline", "design-a"),
        replica_counts=(1, 2), input_tokens=64, output_tokens=16,
        requests=30, constraints=("slo>=0.5",)),
    "autoconfig-preview": AutoconfigPreviewRequest(llm="llama2-7b"),
}


class TestOneAccountingRule:
    """Every kind counts the results it computed, whatever ran before it.

    A call into an empty store computes exactly the entries it adds, and
    an immediate repeat is served whole from the store.  Both hold on a
    cold step-price table and on one a storeless run has already warmed.
    """

    @pytest.fixture(params=["cold-table", "warm-table"])
    def table(self, request):
        STEP_PRICES.clear()
        yield request.param
        STEP_PRICES.clear()

    @pytest.mark.parametrize("name", sorted(ACCOUNTED))
    def test_new_simulations_are_the_entries_the_call_stored(
            self, tmp_path, table, name):
        request = ACCOUNTED[name]
        if table == "warm-table":
            api.run(request)
        store = ResultStore(tmp_path / "store.jsonl")
        cold = api.run(request, store=store)
        assert (cold.new_simulations, cold.store_hits) == (len(store), 0)
        assert cold.store_misses == len(store)
        assert not cold.served_from_store
        warm = api.run(request, store=store)
        assert (warm.new_simulations, warm.store_misses) == (0, 0)
        assert warm.store_hits == len(store)
        assert warm.served_from_store == (len(store) > 0)


#: The CLI's tensor sweep over every registered model.
TENSOR_SWEEP = ("--batch", "2", "--input-tokens", "64", "--output-tokens",
                "16", "sweep", "--designs", "baseline", "--precisions",
                "int8", "--batches", "2", "--devices", "1", "2",
                "--parallelism", "tensor")


class TestSweepPointsHaveOneOwner:
    """The grid picks a sweep's points, so every surface runs the same."""

    def test_api_tensor_sweep_returns_the_cli_rows(self, tmp_path, capsys):
        path = tmp_path / "rows.json"
        assert cli_main([*TENSOR_SWEEP, "--json", str(path)]) == 0
        capsys.readouterr()
        response = api.sweep(SweepRequest(
            designs=("baseline",), precisions=("int8",), batches=(2,),
            device_counts=(1, 2), parallelism="tensor", input_tokens=64,
            output_tokens=16))
        assert len(response.rows) == 8
        assert [dict(row) for row in response.rows] == \
            json.loads(path.read_text(encoding="utf-8"))

    @pytest.mark.parametrize("extra, cause", [
        (dict(schedulers=("fcfs",), arrival_rates=(4.0,)),
         "serving sweeps are only modelled for LLM workloads"),
        (dict(device_counts=(2,), parallelism="tensor"),
         "tensor parallelism is only modelled for LLM workloads"),
        (dict(scenarios=("llm-serving",)), "llm-serving"),
    ], ids=["serving", "tensor", "scenarios"])
    def test_a_grid_with_no_point_is_an_invalid_models_field(self, extra,
                                                             cause):
        with pytest.raises(ApiRequestError) as excinfo:
            SweepRequest(models=("dit-xl-2",), designs=("baseline",), **extra)
        assert excinfo.value.error.code == "invalid-field"
        assert excinfo.value.error.field == "models"
        assert cause in excinfo.value.error.message
