"""Serving-simulator throughput: the perf-trajectory record for serving.

Replays a 10k-request Poisson trace of the default chat mix through the
continuous-batching engine and measures *simulator* performance — requests
simulated per wall-clock second and the step-cost cache hit rate that makes
it possible (repeated (phase, batch, context-bucket) states are dictionary
lookups; only distinct states touch the analytical model).

Beyond the human-readable table under ``reports/``, the run writes
``BENCH_serving.json`` at the repository root: the machine-readable record
CI uploads next to ``BENCH_sweep.json``, so the serving-performance
trajectory accumulates across revisions.  Pinned invariants: the 10k-request
trace must finish in under 10 s (the acceptance budget), the cache hit rate
must stay above 99 %, and two identical runs must agree bit for bit.

The record's ``cold_pricing`` block counts the cost model's work when every
step price is computed: serve-mix-shaped fleets price their step states
from an empty :data:`~repro.serving.costs.STEP_PRICES`.  The counts are
machine-independent, so the regression gate holds them exactly; a memo that
stops serving a priced state shows as more graph evaluations.
"""

from __future__ import annotations

import json
import time

import pytest

from _harness import REPORTS_DIR, emit_report

import repro.mapping.engine as mapping_engine
from repro.api import SimulateRequest, simulate
from repro.core.designs import design_a
from repro.core.tpu import TPUModel
from repro.mapping.engine import MappingEngine
from repro.serving.costs import STEP_PRICES
from repro.serving.metrics import SLO
from repro.serving.simulator import ServingSimulator
from repro.serving.trace import generate_trace
from repro.workloads.chat import DEFAULT_REQUEST_MIX
from repro.workloads.llm import GPT3_30B

BENCH_PATH = REPORTS_DIR.parent / "BENCH_serving.json"

NUM_REQUESTS = 10_000
ARRIVAL_RATE = 32.0
SEED = 7
WALL_BUDGET_SECONDS = 10.0

#: Rate 32 oversaturates a single deployment by ~600x (capacity is about
#: 0.054 req/s for this model/chip), which is exactly what a *throughput*
#: benchmark wants — maximal queue pressure — but it drives SLO attainment
#: to ~0 and makes the latency distribution all queueing delay.  The
#: near-capacity run probes the regime the latency metrics are meant for.
NEAR_CAPACITY_RATE = 0.048
NEAR_CAPACITY_REQUESTS = 400

#: serve-mix's eight (design, precision) pairs as two-replica llama2-7b
#: fleets, each offered the rate perfbench's serve-mix gives that shape
#: (about 0.7 of its capacity), so they price the batches serve-mix does.
COLD_PRICING_RATES = {
    ("baseline", "int8"): 0.1741, ("baseline", "bf16"): 0.1221,
    ("cim-default", "int8"): 0.322, ("cim-default", "bf16"): 0.1622,
    ("design-a", "int8"): 0.3104, ("design-a", "bf16"): 0.162,
    ("design-b", "int8"): 0.3332, ("design-b", "bf16"): 0.1666,
}


def _write_record(fields: dict) -> None:
    """Merge ``fields`` into ``BENCH_serving.json``, keeping other tests' keys."""
    record = (json.loads(BENCH_PATH.read_text(encoding="utf-8"))
              if BENCH_PATH.exists() else {})
    record.update(fields)
    BENCH_PATH.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")


def _run():
    trace = generate_trace("poisson", DEFAULT_REQUEST_MIX, ARRIVAL_RATE,
                           NUM_REQUESTS, SEED)
    simulator = ServingSimulator(GPT3_30B, design_a())
    start = time.perf_counter()
    report = simulator.run(trace, slo=SLO(ttft_s=1.0, tpot_s=0.1))
    return report, time.perf_counter() - start, simulator.costs.distinct_states


def test_serving_simulator_throughput(benchmark):
    """10k chat requests: wall-clock, cache behaviour and reproducibility."""
    report, wall, distinct_states = _run()
    repeat, repeat_wall, _ = _run()

    emit_report(
        "serving_throughput",
        ["quantity", "value"],
        [["requests simulated", NUM_REQUESTS],
         ["wall-clock", f"{wall:.2f} s"],
         ["requests/s simulated", f"{NUM_REQUESTS / wall:.0f}"],
         ["simulated makespan", f"{report.makespan_s:.0f} s"],
         ["scheduler steps", report.prefill_steps + report.decode_steps],
         ["step-cost cache hit rate", f"{report.cost_cache_hit_rate * 100:.2f}%"],
         ["distinct (phase, batch, bucket) states", distinct_states],
         ["p99 TTFT", f"{report.ttft.p99_s:.3f} s"],
         ["p99 e2e", f"{report.e2e.p99_s:.3f} s"],
         ["devices (auto-planned)", report.devices]],
        title=f"Serving simulator over {NUM_REQUESTS} chat requests "
              f"({GPT3_30B.name} on design-a, seed {SEED})")

    _write_record({
        "benchmark": "serving_simulator",
        "model": GPT3_30B.name,
        "design": "design-a",
        "trace": {"kind": "poisson", "num_requests": NUM_REQUESTS,
                  "arrival_rate": ARRIVAL_RATE, "seed": SEED},
        "wall_seconds": wall,
        "requests_per_wall_second": NUM_REQUESTS / wall,
        "cache_hit_rate": report.cost_cache_hit_rate,
        "distinct_cost_states": distinct_states,
        "scheduler_steps": report.prefill_steps + report.decode_steps,
        "report": report.to_dict(include_requests=False),
    })
    print(f"wrote serving benchmark record to {BENCH_PATH}")

    # Acceptance budget: 10k requests in under 10 s, by hitting the memo.
    assert wall < WALL_BUDGET_SECONDS
    assert report.completed == NUM_REQUESTS
    assert report.cost_cache_hit_rate > 0.99
    # Bit-for-bit reproducibility of the simulated outcome.
    assert repeat.to_dict() == report.to_dict()
    assert repeat_wall < WALL_BUDGET_SECONDS

    # Steady-state figure of merit for pytest-benchmark comparisons: a
    # 1k-request replay on a warm simulator-shaped pipeline.
    small_trace = generate_trace("poisson", DEFAULT_REQUEST_MIX, ARRIVAL_RATE,
                                 1000, SEED)
    warm = ServingSimulator(GPT3_30B, design_a())
    warm.run(small_trace)

    benchmark(warm.run, small_trace)


def test_near_capacity_latency_regime():
    """Near-capacity replay: SLO attainment is measured, not saturated away.

    At rate 32 every request queues for hours of simulated time and
    attainment collapses to ~0 — fine for the throughput record above,
    useless as a latency benchmark.  At ~89 % of single-deployment capacity
    the queue breathes: TTFT spans both SLO-met and SLO-missed requests,
    so the attainment figure actually discriminates between revisions.
    """
    trace = generate_trace("poisson", DEFAULT_REQUEST_MIX, NEAR_CAPACITY_RATE,
                           NEAR_CAPACITY_REQUESTS, SEED)
    report = ServingSimulator(GPT3_30B, design_a()).run(
        trace, slo=SLO(ttft_s=1.0, tpot_s=0.1))

    emit_report(
        "serving_near_capacity",
        ["quantity", "value"],
        [["arrival rate", f"{NEAR_CAPACITY_RATE} req/s (~89% of capacity)"],
         ["requests", NEAR_CAPACITY_REQUESTS],
         ["SLO attainment", f"{report.slo_attainment * 100:.1f}%"],
         ["mean TTFT", f"{report.ttft.mean_s:.2f} s"],
         ["p99 TTFT", f"{report.ttft.p99_s:.2f} s"],
         ["p99 TPOT", f"{report.tpot.p99_s * 1e3:.1f} ms"],
         ["goodput", f"{report.goodput_tokens_per_second:.1f} tokens/s"],
         ["utilisation", f"{report.utilisation * 100:.1f}%"]],
        title=f"Near-capacity serving: {NEAR_CAPACITY_REQUESTS} chat requests "
              f"at {NEAR_CAPACITY_RATE} req/s ({GPT3_30B.name} on design-a)")

    assert report.completed == NEAR_CAPACITY_REQUESTS
    # The whole point of this rate: attainment must be a *measurement*,
    # strictly inside (0, 1), not pinned to either saturation endpoint.
    assert 0.0 < report.slo_attainment < 1.0
    assert report.utilisation > 0.5


@pytest.mark.parametrize("scheduler", ["fcfs", "shortest-prompt-first",
                                       "decode-priority"])
def test_scheduler_policies_complete_the_trace(scheduler):
    """Every built-in policy finishes a contended 1k-request trace."""
    trace = generate_trace("bursty", DEFAULT_REQUEST_MIX, 16.0, 1000, SEED)
    report = ServingSimulator(GPT3_30B, design_a(), scheduler=scheduler).run(trace)
    assert report.completed + report.rejected == 1000
    assert report.rejected == 0


def _count_pricing(monkeypatch) -> dict[str, int]:
    """Count graph evaluations, matmul mappings and mapping candidates.

    The counters wrap the cost model's entry points from here, as
    perfbench's tracer does, so the program carries no counter of its own.
    """
    counts = {"graph_evals": 0, "matmul_maps": 0, "mapping_candidates": 0}
    run_graph = TPUModel.run_graph
    map_matmul = MappingEngine.map_matmul
    enumerate_candidates = mapping_engine.enumerate_candidates

    def counted_run_graph(self, graph):
        counts["graph_evals"] += 1
        return run_graph(self, graph)

    def counted_map_matmul(self, op):
        counts["matmul_maps"] += 1
        return map_matmul(self, op)

    def counted_candidates(*args, **kwargs):
        candidates = enumerate_candidates(*args, **kwargs)
        counts["mapping_candidates"] += len(candidates)
        return candidates

    monkeypatch.setattr(TPUModel, "run_graph", counted_run_graph)
    monkeypatch.setattr(MappingEngine, "map_matmul", counted_map_matmul)
    monkeypatch.setattr(mapping_engine, "enumerate_candidates", counted_candidates)
    return counts


def test_cold_pricing_work(monkeypatch):
    """serve-mix-shaped fleets priced from an empty step-price table."""
    counts = _count_pricing(monkeypatch)
    STEP_PRICES.clear()
    start = time.perf_counter()
    for (design, precision), rate in COLD_PRICING_RATES.items():
        simulate(SimulateRequest(
            design=design, llm="llama2-7b", scenario="chat-serving",
            precision=precision, input_tokens=1024, output_tokens=512,
            rate=rate, requests=240, replicas=2,
            router="least-outstanding-requests", seed=SEED))
    wall = time.perf_counter() - start

    emit_report(
        "serving_cold_pricing",
        ["quantity", "value"],
        [["fleets", len(COLD_PRICING_RATES)],
         ["graph evaluations", counts["graph_evals"]],
         ["matmul mappings", counts["matmul_maps"]],
         ["mapping candidates", counts["mapping_candidates"]],
         ["wall-clock", f"{wall:.3f} s"]],
        title="Cold pricing: serve-mix-shaped two-replica llama2-7b fleets "
              f"(seed {SEED})")
    _write_record({"cold_pricing": {**counts, "wall_seconds": wall}})

    # Every distinct step state is priced once: the replicas of a fleet,
    # and the fleets of one scope, share the process-wide table.
    assert counts["graph_evals"] == len(STEP_PRICES) > 0
    assert counts["matmul_maps"] > counts["graph_evals"]
    assert counts["mapping_candidates"] >= counts["matmul_maps"]
