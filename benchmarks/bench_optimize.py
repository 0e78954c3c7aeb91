"""Co-design optimizer throughput: the perf record of `repro-sim optimize`.

Runs the successive-halving Pareto search over a 24-candidate hardware ×
deployment space (3 designs × 2 routers × 4 replica counts) twice against
one persistent result store and measures both sides of the store contract:
the cold search (everything simulated) and the warm search (pure lookup).

Beyond the human-readable table under ``reports/``, the run writes
``BENCH_optimize.json`` at the repository root: the machine-readable record
CI uploads next to the other three and the benchmark-regression gate
(``scripts/check_bench_regression.py``) compares against the committed
baseline.  Pinned invariants: the warm search must perform **zero** new
simulations (gated as a count metric, like the cached re-sweep), the warm
frontier must equal the cold frontier bit for bit, and successive halving
must run strictly fewer full-trace simulations than the candidate count.
"""

from __future__ import annotations

import json
import time

from _harness import REPORTS_DIR, emit_report

from repro.optimize import CodesignOptimizer, DesignSpace, parse_constraint
from repro.serving.metrics import SLO
from repro.serving.spec import ServingSpec
from repro.sweep.store import ResultStore
from repro.workloads.llm import LLAMA2_7B

BENCH_PATH = REPORTS_DIR.parent / "BENCH_optimize.json"

ARRIVAL_RATE = 48.0
NUM_REQUESTS = 400
SEED = 7
WALL_BUDGET_SECONDS = 30.0

SPACE = DesignSpace(
    designs=("baseline", "design-a", "design-b"),
    routers=("round-robin", "least-outstanding-requests"),
    replica_counts=(2, 3, 4, 6))


def _search(store: ResultStore):
    workload = ServingSpec(arrival_rate=ARRIVAL_RATE,
                           num_requests=NUM_REQUESTS, seed=SEED,
                           slo=SLO(ttft_s=1.0, tpot_s=0.35))
    optimizer = CodesignOptimizer(
        LLAMA2_7B, SPACE, workload,
        objectives=("cost-per-million-tokens", "p99-ttft"),
        constraints=(parse_constraint("slo>=0.9"),),
        strategy="successive-halving",
        input_tokens=64, output_tokens=32, store=store)
    start = time.perf_counter()
    frontier = optimizer.run()
    return frontier, time.perf_counter() - start


def test_optimizer_store_roundtrip(benchmark, tmp_path):
    """Cold vs. warm co-design search against one persistent store."""
    store_path = tmp_path / "codesign_store.jsonl"
    cold, cold_wall = _search(ResultStore(store_path))
    warm, warm_wall = _search(ResultStore(store_path))
    candidates = len(SPACE)

    emit_report(
        "optimize_store_roundtrip",
        ["quantity", "cold search", "warm search"],
        [["wall-clock", f"{cold_wall:.2f} s", f"{warm_wall:.2f} s"],
         ["short-trace simulations", cold.short_runs, warm.short_runs],
         ["full-trace simulations", cold.full_runs, warm.full_runs],
         ["served from store", cold.store_served, warm.store_served],
         ["capacity-pruned", cold.capacity_pruned, warm.capacity_pruned],
         ["frontier points", len(cold), len(warm)]],
        title=f"Co-design search over {candidates} candidates "
              f"({LLAMA2_7B.name} at {ARRIVAL_RATE:g} req/s, seed {SEED})")

    BENCH_PATH.write_text(json.dumps({
        "benchmark": "optimize_store_roundtrip",
        "model": LLAMA2_7B.name,
        "space": {"designs": list(SPACE.designs), "routers": list(SPACE.routers),
                  "replica_counts": list(SPACE.replica_counts),
                  "candidates": candidates},
        "strategy": "successive-halving",
        "arrival_rate": ARRIVAL_RATE,
        "num_requests": NUM_REQUESTS,
        "seed": SEED,
        "cold_wall_seconds": cold_wall,
        "warm_wall_seconds": warm_wall,
        "cold_simulations": cold.short_runs + cold.full_runs,
        "cold_full_simulations": cold.full_runs,
        "warm_simulations": warm.short_runs + warm.full_runs,
        "warm_store_served": warm.store_served,
        "frontier_points": len(cold),
        "frontier_equal": warm.signature() == cold.signature(),
    }, indent=2) + "\n", encoding="utf-8")
    print(f"wrote optimizer benchmark record to {BENCH_PATH}")

    assert cold_wall < WALL_BUDGET_SECONDS
    assert warm_wall < WALL_BUDGET_SECONDS
    # The warm search is pure lookup: zero new simulations, identical frontier.
    assert warm.short_runs + warm.full_runs == 0
    assert warm.store_served > 0
    assert warm.signature() == cold.signature()
    assert warm.points == cold.points
    # Successive halving must beat exhaustive full-fidelity pricing.
    assert cold.full_runs < candidates

    # Steady-state figure of merit: one fully warm search.
    benchmark(lambda: _search(ResultStore(store_path))[0])
