"""The process-wide step-price table: shared, bounded, and invisible in reports.

:data:`repro.serving.costs.STEP_PRICES` lets every run in a process reuse
the step states earlier runs priced.  These tests pin what that sharing
must never do: change a report (the ``cost_cache_*`` counters included),
depend on what ran before, grow past :data:`MAX_STEP_PRICES`, or break
when two threads price the same cold request at once.  They also pin the
gain: a warm process evaluates zero layer graphs.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.api as api
from repro.api import FleetRequest, OptimizeRequest, SimulateRequest, SweepRequest
from repro.core.designs import design_a
from repro.core.simulator import InferenceSimulator
from repro.core.tpu import TPUModel
from repro.core.units import ExecutionUnit, UnitCost
from repro.hw.energy import EnergyBudget
from repro.serving import costs
from repro.serving.costs import STEP_PRICES, StepCostModel
from repro.sweep.engine import SweepEngine
from repro.sweep.grid import SweepGrid
from repro.sweep.store import ResultStore
from repro.workloads.llm import LLAMA2_7B

FAST = dict(llm="llama2-7b", input_tokens=64, output_tokens=16, rate=20.0,
            requests=40, seed=7)

#: One request per serving path: a single deployment, a fleet, a fluid run.
PATHS = {
    "single": SimulateRequest(**FAST),
    "fleet": SimulateRequest(**FAST, replicas=3,
                             router="least-outstanding-requests"),
    "fluid": SimulateRequest(**FAST, replicas=2, fidelity="fluid"),
}

#: Requests that warm the table with states next to a path's own: another
#: trace seed on the same shape, and every axis of the table's key.
NEIGHBOURS = {
    "seed": dict(seed=11),
    "precision": dict(precision="bf16"),
    "design": dict(design="baseline"),
    "model": dict(llm="gpt3-30b"),
}


@pytest.fixture(autouse=True)
def cold_table():
    """Every test starts from an empty table and leaves none behind."""
    STEP_PRICES.clear()
    yield
    STEP_PRICES.clear()


@pytest.fixture
def graph_evals(monkeypatch):
    """A counter of ``TPUModel.run_graph`` calls: the layer graphs priced."""
    calls = [0]
    original = TPUModel.run_graph

    def counted(self, graph):
        calls[0] += 1
        return original(self, graph)

    monkeypatch.setattr(TPUModel, "run_graph", counted)
    return calls


def payload(response) -> str:
    return json.dumps(response.to_dict(), sort_keys=True)


class TestProcessHistoryNeverChangesAReport:
    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_warm_repeat_is_byte_identical_and_prices_nothing(self, path,
                                                              graph_evals):
        request = PATHS[path]
        cold = payload(api.simulate(request))
        assert graph_evals[0] > 0
        before = graph_evals[0]
        warm = payload(api.simulate(request))
        assert graph_evals[0] == before
        assert warm == cold

    @pytest.mark.parametrize("neighbour", sorted(NEIGHBOURS))
    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_table_warmed_by_a_neighbour_changes_nothing(self, path,
                                                         neighbour):
        request = PATHS[path]
        cold = payload(api.simulate(request))
        STEP_PRICES.clear()
        api.simulate(dataclasses.replace(request, **NEIGHBOURS[neighbour]))
        assert len(STEP_PRICES) > 0
        assert payload(api.simulate(request)) == cold

    def test_cost_cache_counters_are_per_run(self):
        request = PATHS["single"]
        cold = api.simulate(request).report
        warm = api.simulate(request).report
        assert warm["cost_cache_misses"] == cold["cost_cache_misses"] > 0
        assert warm["cost_cache_hits"] == cold["cost_cache_hits"]

    def test_fleet_and_optimize_repeats_price_nothing(self, graph_evals):
        fleet = FleetRequest(rate=30.0, llm="llama2-7b", input_tokens=64,
                             output_tokens=16, requests=30)
        search = OptimizeRequest(llm="llama2-7b", designs=("baseline", "design-a"),
                                 replica_counts=(1, 2), input_tokens=64,
                                 output_tokens=16, requests=30)
        for request, call in ((fleet, api.fleet), (search, api.optimize)):
            cold = payload(call(request))
            before = graph_evals[0]
            assert before > 0
            assert payload(call(request)) == cold
            assert graph_evals[0] == before

    def test_serving_sweep_on_a_fresh_engine_in_a_warm_process(self):
        grid = SweepGrid(designs={"design-a": design_a()}, models=["llama2-7b"],
                         schedulers=("fcfs",), arrival_rates=(2.0, 8.0),
                         serving_requests=20, input_tokens=32, output_tokens=8)
        cold_engine, warm_engine = SweepEngine(), SweepEngine()
        cold = cold_engine.sweep(grid)
        warm = warm_engine.sweep(grid)
        assert warm == cold
        # The engine counts the graphs priced for its own request: none,
        # once the table holds every state the grid visits.
        assert cold_engine.stats.simulations > 0
        assert warm_engine.stats.simulations == 0

    def test_sweep_computing_on_a_warm_table_is_not_served_from_store(
            self, tmp_path):
        # A warm table lets a computed serving point price zero graphs, so
        # "no new simulations" no longer implies "every point was stored".
        store = ResultStore(tmp_path / "store.jsonl")
        grid = dict(designs=("design-a",), models=("llama2-7b",),
                    precisions=("int8",), schedulers=("fcfs",),
                    trace_requests=20, input_tokens=32, output_tokens=8)
        api.sweep(SweepRequest(**grid, arrival_rates=(2.0,)), store=store)
        api.sweep(SweepRequest(**grid, arrival_rates=(8.0,)))
        mixed = api.sweep(SweepRequest(**grid, arrival_rates=(2.0, 8.0)),
                          store=store)
        assert mixed.new_simulations == 0
        assert mixed.store_hits == 1
        assert not mixed.served_from_store
        stored = api.sweep(SweepRequest(**grid, arrival_rates=(2.0, 8.0)),
                           store=store)
        assert stored.served_from_store


class TestBoundedTable:
    def test_small_cap_bounds_the_table_and_keeps_reports(self, monkeypatch):
        request = SimulateRequest(**FAST, bucket=8, replicas=2)
        reference = payload(api.simulate(request))
        assert len(STEP_PRICES) > 8
        STEP_PRICES.clear()

        monkeypatch.setattr(costs, "MAX_STEP_PRICES", 8)
        peak = [0]
        hold = STEP_PRICES.hold

        def watched(key, cost):
            hold(key, cost)
            peak[0] = max(peak[0], len(STEP_PRICES))

        monkeypatch.setattr(STEP_PRICES, "hold", watched)
        assert payload(api.simulate(request)) == reference
        assert payload(api.simulate(request)) == reference
        assert peak[0] == len(STEP_PRICES) == 8

    def test_eviction_drops_the_oldest_price_first(self, monkeypatch,
                                                   graph_evals):
        monkeypatch.setattr(costs, "MAX_STEP_PRICES", 2)
        first = StepCostModel(LLAMA2_7B, InferenceSimulator(design_a()))
        for batch in (1, 2, 3):
            first.decode_cost(batch, 100)
        assert graph_evals[0] == 3 and len(STEP_PRICES) == 2
        second = StepCostModel(LLAMA2_7B, InferenceSimulator(design_a()))
        second.decode_cost(3, 100)
        second.decode_cost(2, 100)
        assert graph_evals[0] == 3
        second.decode_cost(1, 100)
        assert graph_evals[0] == 4

    def test_clear_reaches_models_that_already_hold_the_table(self,
                                                              graph_evals):
        holder = StepCostModel(LLAMA2_7B, InferenceSimulator(design_a()))
        StepCostModel(LLAMA2_7B, InferenceSimulator(design_a())).prefill_cost(1, 100)
        STEP_PRICES.clear()
        holder.prefill_cost(1, 100)
        assert graph_evals[0] == 2


class LeakyUnit(ExecutionUnit):
    """A unit that runs nothing but leaks while the others work."""

    name = "leaky"

    def supports(self, op) -> bool:
        return False

    def cost(self, op) -> UnitCost:
        raise AssertionError("the leaky unit claims no operator")

    def idle_energy(self, cycles: float) -> EnergyBudget:
        budget = EnergyBudget()
        budget.add_leakage("leaky", 1e-9 * cycles)
        return budget


class TestTableKey:
    def test_a_custom_unit_on_a_lent_simulator_prices_apart(self):
        stock = StepCostModel(LLAMA2_7B, InferenceSimulator(design_a()))
        stock_cost = stock.decode_cost(4, 100)
        lent = InferenceSimulator(design_a())
        lent.model.units.register_unit(LeakyUnit())
        custom = StepCostModel(LLAMA2_7B, lent)
        # Same chip config, but the extra unit leaks: its own price.
        custom_cost = custom.decode_cost(4, 100)
        assert custom_cost.total_energy_joules > stock_cost.total_energy_joules
        # ... and the stock price stays what the stock units give.
        STEP_PRICES.clear()
        fresh = StepCostModel(LLAMA2_7B, InferenceSimulator(design_a()))
        fresh.decode_cost(4, 100)
        custom.decode_cost(5, 100)
        again = StepCostModel(LLAMA2_7B, InferenceSimulator(design_a()))
        assert again.decode_cost(4, 100) == stock_cost
        assert again.decode_cost(5, 100) != custom.decode_cost(5, 100)


class TestConcurrentPricing:
    @pytest.mark.parametrize("cap", [costs.MAX_STEP_PRICES, 8])
    def test_threads_on_one_cold_request_at_once(self, cap, monkeypatch):
        # The gateway's two API workers share the table.  Twice as many
        # threads, switched every 10 us, start together on one cold request
        # and must each answer with the serial bytes.
        request = SimulateRequest(**FAST, bucket=32, replicas=2)
        serial = payload(api.simulate(request))
        STEP_PRICES.clear()
        monkeypatch.setattr(costs, "MAX_STEP_PRICES", cap)
        threads = 4
        start = threading.Barrier(threads)

        def run() -> str:
            start.wait(timeout=30)
            return payload(api.simulate(request))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                futures = [pool.submit(run) for _ in range(threads)]
                answers = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert answers == [serial] * threads
        assert 0 < len(STEP_PRICES) <= cap
