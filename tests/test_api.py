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
from repro.sweep.store import ResultStore

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
    ])
    def test_invalid_field_names_the_field(self, overrides, field):
        with pytest.raises(ApiRequestError) as excinfo:
            SimulateRequest(**{**FAST, **overrides})
        assert excinfo.value.error.code == "invalid-field"
        assert excinfo.value.error.field == field

    def test_error_render_carries_code_message_and_field(self):
        error = ApiError(code="invalid-field", message="rate must be positive",
                         field="rate")
        assert error.render() == \
            "invalid-field: rate must be positive (field: rate)"
        assert ApiError.from_dict(error.to_dict()) == error

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
        assert [r.to_dict() for r in cold.row_objects()] == \
            [dict(row) for row in cold.rows]
        warm = api.sweep(request, store=store)
        assert warm.new_simulations == 0
        assert warm.served_from_store
        assert warm.rows == cold.rows

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
