#!/usr/bin/env python
"""Chaos-test a chat fleet: a resilience constraint changes the Pareto pick.

Prices llama2-7b fleets serving 100 req/s of short chat traffic while a
replica crashes mid-run (the incident a one-crash-per-hour fault model
eventually deals you, pinned to a fixed onset so the run is exactly
reproducible).  Without a resilience constraint the optimizer picks the
smallest fleet that is cheapest per token — but that fleet runs so close
to capacity that after the crash its windowed SLO attainment never
re-reaches 95 % before the run ends (``recovery inf``).  Adding
``recovery_s<=30`` filters it out, and the pick moves to a fleet with
enough headroom to absorb the outage.

Both searches share one persistent result store: the chaos scenario is
part of the evaluation fingerprint, so the second search re-prices nothing
— constraints filter cached rows.

Run with::

    python examples/chaos_fleet.py
"""

from __future__ import annotations

import pathlib
import tempfile

from repro.analysis.report import format_table
from repro.optimize import CodesignOptimizer, DesignSpace, parse_constraint
from repro.serving import SLO, FaultSpec, ServingSpec
from repro.sweep import ResultStore
from repro.workloads.llm import LLAMA2_7B

ARRIVAL_RATE = 100.0
SLO_TARGET = SLO(ttft_s=1.0, tpot_s=0.35)

SPACE = DesignSpace(
    designs=("design-a",), precisions=("int8",),
    routers=("round-robin",), replica_counts=(8, 10, 12))

#: One replica dies 2 s in and stays down for 6 s (plus the autoscaler's
#: cold start).  Its in-flight work drains back to the router.
CRASH = (FaultSpec("replica-crash", at_s=2.0, duration_s=6.0, replica=0),)


def search(store: ResultStore, constraints=()):
    workload = ServingSpec(arrival_rate=ARRIVAL_RATE, num_requests=2000,
                           seed=7, slo=SLO_TARGET, faults=CRASH)
    optimizer = CodesignOptimizer(
        LLAMA2_7B, SPACE, workload,
        objectives=("cost-per-million-tokens", "recovery-s"),
        constraints=constraints, strategy="exhaustive",
        input_tokens=64, output_tokens=32, store=store)
    frontier = optimizer.run()

    rows = [[point.result.replicas, f"${point.values[0]:.3f}",
             ("never" if point.result.recovery_s == float("inf")
              else f"{point.result.recovery_s:.1f} s"),
             f"{point.result.availability * 100:.2f}%",
             point.result.disrupted_requests]
            for point in frontier.points]
    label = ", ".join(c.name for c in constraints) or "none"
    print(format_table(
        ["replicas", "$/Mtok", "recovery to SLO", "availability", "disrupted"],
        rows,
        title=f"Pareto frontier under a mid-run crash (constraints: {label})"))
    print(f"searched {frontier.candidates} candidates: "
          f"{frontier.full_runs} simulated, "
          f"{frontier.store_served} served from the store\n")
    return frontier.points[0].result if frontier.points else None


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(pathlib.Path(tmp) / "chaos_store.jsonl")

        print("unconstrained search (cheapest fleet wins):")
        carefree = search(store)

        print("resilient search (must re-attain the SLO within 30 s):")
        resilient = search(store, (parse_constraint("recovery_s<=30"),))

        if carefree is None or resilient is None:
            raise SystemExit("expected both searches to produce a frontier")
        print(f"cheapest fleet ignoring resilience: {carefree.replicas}x "
              f"{carefree.design} at "
              f"${carefree.cost_per_million_tokens_dollars:.3f}/Mtok "
              f"(recovery: never)")
        print(f"cheapest fleet with recovery_s<=30:  {resilient.replicas}x "
              f"{resilient.design} at "
              f"${resilient.cost_per_million_tokens_dollars:.3f}/Mtok "
              f"(recovery: {resilient.recovery_s:.1f} s)")
        if resilient.replicas == carefree.replicas:
            raise SystemExit("expected the resilience constraint to change "
                             "the Pareto pick")
        print("the resilience constraint changed the pick: the carefree "
              "fleet never re-attains its SLO after the crash.")


if __name__ == "__main__":
    main()
