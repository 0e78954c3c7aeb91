#!/usr/bin/env python
"""Find the cheapest fleet meeting a chat SLO with the co-design optimizer.

Searches the joint hardware × deployment space — TPU design, numeric
precision, routing policy and replica count — for Pareto-optimal fleets
serving a chat mix at a fixed request rate, under a cost/tail-latency
objective pair and an SLO-attainment constraint.  The successive-halving
strategy prunes dominated candidates on a cheap short trace before
re-scoring the survivors at full fidelity, and a persistent result store
makes re-running the script (or widening the search later) nearly free.

Run with::

    python examples/codesign_optimize.py
"""

from __future__ import annotations

import pathlib
import tempfile

from repro.analysis.report import format_table
from repro.optimize import CodesignOptimizer, DesignSpace, parse_constraint
from repro.serving import SLO, ServingSpec
from repro.sweep import ResultStore
from repro.workloads.llm import LLAMA2_7B

ARRIVAL_RATE = 48.0
SLO_TARGET = SLO(ttft_s=1.0, tpot_s=0.35)

SPACE = DesignSpace(
    designs=("baseline", "design-a", "design-b"),
    precisions=("int8", "bf16"),
    routers=("round-robin", "least-outstanding-requests"),
    replica_counts=(2, 3, 4, 6))


def run(store: ResultStore) -> None:
    workload = ServingSpec(arrival_rate=ARRIVAL_RATE, num_requests=400,
                           seed=7, slo=SLO_TARGET)
    optimizer = CodesignOptimizer(
        LLAMA2_7B, SPACE, workload,
        objectives=("cost-per-million-tokens", "p99-ttft"),
        constraints=(parse_constraint("slo>=0.9"),),
        strategy="successive-halving",
        input_tokens=64, output_tokens=32, store=store)
    frontier = optimizer.run()

    rows = [[point.result.design, point.result.precision, point.result.replicas,
             point.result.router, f"${point.values[0]:.3f}",
             f"{point.values[1] * 1e3:.0f} ms",
             f"{point.result.slo_attainment * 100:.1f}%",
             point.dominated_count]
            for point in frontier.points]
    print(format_table(
        ["design", "precision", "replicas", "router", "$/Mtok", "p99 TTFT",
         "SLO attained", "dominates"],
        rows,
        title=f"Pareto frontier: {LLAMA2_7B.name} chat at {ARRIVAL_RATE:g} req/s "
              f"(SLO attainment >= 90%)"))
    print(f"searched {frontier.candidates} candidates with "
          f"{frontier.short_runs} short + {frontier.full_runs} full simulations "
          f"({frontier.store_served} served from the store, "
          f"{frontier.capacity_pruned} pruned by the capacity lower bound)")
    if frontier.points:
        cheapest = frontier.points[0].result
        print(f"cheapest SLO-meeting fleet: {cheapest.replicas}x "
              f"{cheapest.design}/{cheapest.precision} via {cheapest.router} "
              f"at ${cheapest.cost_per_million_tokens_dollars:.3f}/Mtok\n")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        store_path = pathlib.Path(tmp) / "codesign_store.jsonl"
        print("cold search (everything simulated):")
        run(ResultStore(store_path))
        print("warm search (same store - zero new simulations):")
        run(ResultStore(store_path))


if __name__ == "__main__":
    main()
