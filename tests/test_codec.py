"""Round-trip and decode-policy tests of the one payload codec.

Every stored and wire type goes through ``repro.codec``: the round trip
``decode(T, json.loads(json.dumps(encode(x)))) == x`` must hold for
arbitrary values of each, through the same entry points the program uses
(report ``to_dict``/``*_from_dict``, ``frontier_from_dict``,
``FleetResponse.plan_object``, the API envelopes).  Values are generated
from each dataclass's own annotations, so a new field is covered without
touching this file.  The decode policy is pinned separately, including
what :meth:`ResultStore.load` counts as a miss, and so is what every
payload type must be: frozen, with no default shared between instances.
"""

import dataclasses
import importlib
import json
import pkgutil
import sys
import threading
import types
import typing

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.analysis.capacity import FleetPlan
from repro.api import (
    AutoconfigPreviewRequest,
    AutoconfigPreviewResponse,
    FleetRequest,
    FleetResponse,
    OptimizeRequest,
    OptimizeResponse,
    SimulateRequest,
    SimulateResponse,
    SweepRequest,
    SweepResponse,
    request_from_dict,
    response_from_dict,
)
from repro.api.errors import ERROR_CODES, ApiError
from repro.codec import decode, encode
from repro.obs.telemetry import Telemetry
from repro.optimize.evaluator import CandidateResult
from repro.optimize.objectives import get_objective
from repro.optimize.pareto import build_frontier, frontier_from_dict
from repro.serving.cluster import ClusterReport, FleetCostModel, cluster_report_from_dict
from repro.serving.faults import FAULT_EFFECTS, FaultEvent
from repro.serving.metrics import (
    SLO,
    LatencySummary,
    RequestMetrics,
    ResilienceSummary,
    ServingReport,
)
from repro.serving.simulator import serving_report_from_dict
from repro.sweep.engine import SweepResult
from repro.sweep.store import ResultStore, StoreView

#: Floats JSON carries exactly: everything but NaN (which != itself).
FLOATS = st.floats(allow_nan=False)
POSITIVE = st.floats(min_value=1e-9, max_value=1e9)
NON_NEGATIVE = st.floats(min_value=0.0, max_value=1e9)


@st.composite
def request_metrics(draw):
    arrival = draw(NON_NEGATIVE)
    first = arrival + draw(NON_NEGATIVE)
    finish = first + draw(NON_NEGATIVE)
    return RequestMetrics(
        request_id=draw(st.integers(0, 10 ** 6)), arrival_s=arrival,
        input_tokens=draw(st.integers(1, 4096)),
        output_tokens=draw(st.integers(1, 4096)), first_token_s=first,
        finish_s=finish, ttft_s=draw(FLOATS), tpot_s=draw(FLOATS),
        e2e_s=draw(FLOATS), disrupted=draw(st.booleans()))


#: Types whose constructors validate, drawn within their contracts.
VALID = {
    SLO: st.builds(SLO, ttft_s=POSITIVE, tpot_s=POSITIVE),
    RequestMetrics: request_metrics(),
    FaultEvent: st.builds(FaultEvent, time_s=NON_NEGATIVE,
                          replica=st.integers(0, 64),
                          effect=st.sampled_from(FAULT_EFFECTS),
                          duration_s=POSITIVE, magnitude=FLOATS),
    FleetCostModel: st.builds(FleetCostModel, chip_hour_dollars=NON_NEGATIVE,
                              energy_dollars_per_kwh=NON_NEGATIVE),
    ApiError: st.builds(ApiError, code=st.sampled_from(ERROR_CODES),
                        message=st.text(min_size=1, max_size=12),
                        field=st.none() | st.text(max_size=8)),
}
SCALARS = {int: st.integers(-2 ** 53, 2 ** 53), float: FLOATS,
           str: st.text(max_size=8), bool: st.booleans()}


def values_of(hint):
    """A strategy for values of annotation ``hint``."""
    if hint in VALID:
        return VALID[hint]
    if dataclasses.is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        return st.builds(hint, **{field.name: values_of(hints[field.name])
                                  for field in dataclasses.fields(hint)})
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple and args[1:] == (Ellipsis,):
        return st.lists(values_of(args[0]), max_size=3).map(tuple)
    if origin is tuple:
        return st.tuples(*map(values_of, args))
    if origin in (typing.Union, types.UnionType):
        return st.one_of(*(st.none() if arg is type(None) else values_of(arg)
                           for arg in args))
    return SCALARS[hint]


#: One single-deployment report payload with a row.
REPORT_PAYLOAD = ServingReport(
    model_name="m", tpu_name="t", scheduler="fcfs", devices=1,
    num_requests=1, completed=1, rejected=0, makespan_s=1.0, busy_s=0.5,
    total_tokens=4, tokens_per_second=4.0, requests_per_second=1.0,
    ttft=LatencySummary.empty(), tpot=LatencySummary.empty(),
    e2e=LatencySummary.empty(), slo=SLO(), slo_attainment=1.0,
    goodput_requests_per_second=1.0, goodput_tokens_per_second=4.0,
    mxu_energy_joules=1.0, total_energy_joules=2.0,
    energy_per_token_joules=0.25, prefill_steps=1, decode_steps=3,
    kv_budget_bytes=10, peak_kv_reserved_bytes=5, cost_cache_hits=0,
    cost_cache_misses=1,
    requests=(RequestMetrics.from_times(0, 0.0, 8, 4, 0.2, 0.5),)).to_dict()


def json_trip(payload):
    return json.loads(json.dumps(payload))


ROUND_TRIP = settings(max_examples=25, derandomize=True, deadline=None,
                      suppress_health_check=[HealthCheck.too_slow,
                                             HealthCheck.data_too_large])


class TestRoundTrip:
    @ROUND_TRIP
    @given(values_of(ServingReport))
    def test_serving_report_with_and_without_rows(self, report):
        assert serving_report_from_dict(json_trip(report.to_dict())) == report
        slim = json_trip(report.to_dict(include_requests=False))
        assert serving_report_from_dict(slim) == dataclasses.replace(
            report, requests=())

    @ROUND_TRIP
    @given(values_of(ClusterReport))
    def test_cluster_report(self, report):
        assert cluster_report_from_dict(json_trip(report.to_dict())) == report

    @ROUND_TRIP
    @given(values_of(SweepResult))
    def test_sweep_result(self, row):
        assert decode(SweepResult, json_trip(encode(row))) == row

    @ROUND_TRIP
    @given(values_of(ApiError))
    def test_api_error(self, error):
        assert decode(ApiError, json_trip(encode(error))) == error

    @ROUND_TRIP
    @given(st.lists(values_of(CandidateResult), min_size=1, max_size=4,
                    unique_by=lambda result: result.cache_key))
    def test_pareto_frontier(self, results):
        objectives = [get_objective("cost-per-million-tokens"),
                      get_objective("p99-ttft")]
        frontier = build_frontier(results, objectives, model_name="m",
                                  strategy="exhaustive",
                                  constraints=("slo>=0.5",))
        assert frontier_from_dict(json_trip(frontier.to_dict())) == frontier

    @ROUND_TRIP
    @given(values_of(FleetPlan))
    def test_fleet_plan_through_the_response(self, plan):
        response = FleetResponse(
            fingerprint="f", served_from_store=False, new_simulations=1,
            store_hits=0, store_misses=1, plan=FleetResponse.plan_payload(plan))
        decoded = response_from_dict(json_trip(response.to_dict()))
        assert decoded == response
        assert decoded.plan_object() == plan

    def test_infinite_recovery_and_none_optionals_survive(self):
        report = ClusterReport(**{
            **{field.name: 0 for field in dataclasses.fields(ClusterReport)},
            "model_name": "m", "router": "r", "autoscaler": "a",
            "scheduler": "s", "ttft": LatencySummary.empty(),
            "tpot": LatencySummary.empty(), "e2e": LatencySummary.empty(),
            "slo": SLO(), "cost_model": FleetCostModel(),
            "replica_timeline": ((0.0, 2), (1.5, 1)), "replicas": (),
            "requests": (), "resilience": dataclasses.replace(
                ResilienceSummary.clean(), recovery_s=float("inf")),
            "fault_events": (FaultEvent(0.5, 0, "crash", 1.0),)})
        payload = json.dumps(report.to_dict())
        assert "Infinity" in payload
        assert cluster_report_from_dict(json.loads(payload)) == report
        plan = FleetPlan("m", "t", 1.0, 0.9, met=False, replicas=None,
                         evaluations=())
        assert FleetResponse(
            fingerprint="f", served_from_store=False, new_simulations=0,
            store_hits=0, store_misses=0,
            plan=FleetResponse.plan_payload(plan)).plan_object() == plan


#: One request per kind, optional fields both unset and set.
REQUESTS = [
    SimulateRequest(llm="llama2-7b", devices=None, overlay=None),
    SimulateRequest(llm="llama2-7b", replicas=2, devices=2,
                    faults=("replica-crash:at_s=1,duration_s=2",),
                    overlay="flash-crowd:start_s=1,duration_s=2,magnitude=2"),
    FleetRequest(rate=4.0, llm="llama2-7b"),
    SweepRequest(models=("llama2-7b",), scenarios=None, workers=None),
    SweepRequest(models=("llama2-7b",), scenarios=("llm-serving",), workers=2),
    OptimizeRequest(llm="llama2-7b", budget=None),
    OptimizeRequest(llm="llama2-7b", budget=3, constraints=("slo>=0.5",)),
    AutoconfigPreviewRequest(llm="llama2-7b", devices=None),
]


class TestEnvelopes:
    @pytest.mark.parametrize("request_obj", REQUESTS)
    def test_every_request_kind_round_trips(self, request_obj):
        payload = json_trip(request_obj.to_dict())
        assert request_from_dict(payload) == request_obj
        assert "kind" not in encode(request_obj)  # ClassVars are not fields

    @ROUND_TRIP
    @given(serving=values_of(ServingReport), fleet=values_of(ClusterReport),
           rows=st.lists(values_of(SweepResult), max_size=3),
           results=st.lists(values_of(CandidateResult), min_size=1,
                            max_size=3, unique_by=lambda r: r.cache_key))
    def test_every_response_kind_round_trips(self, serving, fleet, rows,
                                             results):
        header = dict(fingerprint="f", served_from_store=True,
                      new_simulations=0, store_hits=1, store_misses=0)
        frontier = build_frontier(results, [get_objective("p99-ttft")],
                                  model_name="m", strategy="exhaustive")
        responses = [
            SimulateResponse(**header, report=serving.to_dict()),
            SimulateResponse(**header, fleet=True,
                             report=fleet.to_dict(include_requests=False)),
            SweepResponse(**header, rows=tuple(encode(row) for row in rows),
                          stats={"simulations": 0}),
            OptimizeResponse(**header, frontier=frontier.to_dict()),
            AutoconfigPreviewResponse(**header, preview={"fleet": {"x": 1}}),
        ]
        for response in responses:
            assert response_from_dict(json_trip(response.to_dict())) == response
        assert responses[0].report_object() == serving
        assert responses[1].report_object() == dataclasses.replace(
            fleet, requests=())
        assert responses[2].row_objects() == rows
        assert responses[3].frontier_object() == frontier


class TestDecodePolicy:
    def test_non_field_keys_are_ignored(self):
        assert decode(SLO, {"ttft_s": 2.0, "tpot_s": 0.2, "extra": 1}) == \
            SLO(ttft_s=2.0, tpot_s=0.2)

    def test_missing_required_field_is_a_type_error(self):
        with pytest.raises(TypeError):
            decode(LatencySummary, {"mean_s": 1.0})

    @pytest.mark.parametrize("value", [[1.0, 2.0], "slow", 3])
    def test_wrong_shape_for_a_dataclass_is_a_type_error(self, value):
        with pytest.raises(TypeError):
            decode(ServingReport, {**REPORT_PAYLOAD, "ttft": value})

    def test_optional_dataclass_and_tuple_fields_decode(self):
        @dataclasses.dataclass(frozen=True)
        class Holder:
            slo: SLO | None = None
            span: tuple[float, float] | None = None

        for value in (Holder(), Holder(SLO(2.0, 0.2), (1.0, 2.5))):
            assert decode(Holder, json_trip(encode(value))) == value

    def test_wrong_shape_for_a_tuple_is_a_type_error(self):
        with pytest.raises(TypeError):
            decode(ServingReport, {**REPORT_PAYLOAD, "requests": {}})


#: Modules whose dataclasses are stored or wire payloads.
FROZEN_MODULES = ("repro.api", "repro.serving.metrics", "repro.serving.spec",
                  "repro.serving.cluster", "repro.optimize.pareto",
                  "repro.obs.telemetry")


def test_payload_dataclasses_are_frozen_and_share_no_default():
    """Every module-level dataclass of ``repro``: those of the payload
    modules are frozen, and none holds an unhashable class-level value (a
    list or dict default would be one object shared by every instance)."""
    classes = [value for info in pkgutil.walk_packages(repro.__path__, "repro.")
               for value in vars(importlib.import_module(info.name)).values()
               if isinstance(value, type) and dataclasses.is_dataclass(value)
               and value.__module__ == info.name]
    thawed = [f"{cls.__module__}.{cls.__qualname__}" for cls in classes
              if cls.__module__.startswith(FROZEN_MODULES)
              and not cls.__dataclass_params__.frozen]
    shared = [f"{cls.__module__}.{cls.__qualname__}.{name}" for cls in classes
              for name, value in vars(cls).items()
              if not name.startswith("__") and type(value).__hash__ is None]
    assert (thawed, shared) == ([], [])


def _unordered_row(payload):
    row = dict(payload["requests"][0])
    row["first_token_s"] = row["arrival_s"] - 1.0
    return {**payload, "requests": [row]}


class TestStoreLoad:
    @pytest.mark.parametrize("corrupt", [
        lambda payload: {key: value for key, value in payload.items()
                         if key != "ttft"},
        lambda payload: {**payload, "slo": [1.0, 0.1]},
        _unordered_row,
    ], ids=["missing-field", "wrong-typed-nested", "unordered-row"])
    def test_undecodable_payload_is_a_counted_miss(self, tmp_path, corrupt):
        telemetry = Telemetry()
        store = ResultStore(tmp_path / "store.jsonl", telemetry=telemetry)
        store.put("serving-report", "k", corrupt(REPORT_PAYLOAD))
        view = StoreView(store)
        assert view.load("serving-report", "k", serving_report_from_dict) is None
        assert (store.stats.hits, store.stats.misses) == (0, 1)
        assert (view.stats.hits, view.stats.misses) == (0, 1)
        assert telemetry.counters.get("store.hit", 0) == 0
        assert telemetry.counters["store.miss"] == 1

    def test_decodable_payload_is_a_hit(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        store.put("serving-report", "k", REPORT_PAYLOAD)
        view = StoreView(store)
        report = view.load("serving-report", "k", serving_report_from_dict)
        assert report.to_dict() == REPORT_PAYLOAD
        assert view.load("serving-report", "other", serving_report_from_dict) is None
        assert (view.stats.hits, view.stats.misses) == (1, 1)
        assert (store.stats.hits, store.stats.misses) == (1, 1)

    def test_a_view_counts_only_its_own_loads(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        store.put("serving-report", "k", REPORT_PAYLOAD)
        mine, theirs = StoreView(store), StoreView(store)
        theirs.load("serving-report", "k", serving_report_from_dict)
        mine.load("serving-report", "missing", serving_report_from_dict)
        assert (mine.stats.hits, mine.stats.misses) == (0, 1)
        assert (store.stats.hits, store.stats.misses) == (1, 1)

    def test_concurrent_loads_are_counted_exactly(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        store.put("serving-report", "good", REPORT_PAYLOAD)
        store.put("serving-report", "bad", {"ttft": 1.0})
        views = [StoreView(store) for _ in range(8)]

        def work(view):
            for _ in range(100):
                view.load("serving-report", "good", serving_report_from_dict)
                view.load("serving-report", "bad", serving_report_from_dict)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(view,))
                       for view in views]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all((view.stats.hits, view.stats.misses) == (100, 100)
                   for view in views)
        assert (store.stats.hits, store.stats.misses) == (800, 800)
