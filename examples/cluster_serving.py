#!/usr/bin/env python
"""Serve one chat trace through a routed, autoscaled multi-replica fleet.

Routes a bursty chat-mix trace across four Design A replicas under each
registered routing policy, prints the fleet trade-off table (tail latency,
goodput, cost per million tokens), and then sizes the fleet for an SLO at a
target rate with :func:`repro.analysis.capacity.plan_fleet`.

Run with::

    python examples/cluster_serving.py
"""

from __future__ import annotations

from repro.analysis.capacity import plan_fleet
from repro.analysis.report import format_table
from repro.core.designs import design_a
from repro.serving import (
    SLO,
    ROUTER_REGISTRY,
    ClusterSimulator,
    ServingSimulator,
    ServingSpec,
    generate_trace,
)
from repro.workloads.chat import ChatServingSettings, RequestClass
from repro.workloads.llm import LLAMA2_7B

REPLICAS = 4
SLO_TARGET = SLO(ttft_s=1.0, tpot_s=0.35)

#: Interactive-heavy chat mix (short follow-ups dominating, a document tail).
MIX = (RequestClass(input_tokens=64, output_tokens=32, weight=0.50),
       RequestClass(input_tokens=256, output_tokens=64, weight=0.35),
       RequestClass(input_tokens=1024, output_tokens=128, weight=0.15))


def main() -> None:
    trace = generate_trace("bursty", MIX, rate=8.0, num_requests=1000, seed=7)

    rows = []
    for router in sorted(ROUTER_REGISTRY):
        replicas = [ServingSimulator(LLAMA2_7B, design_a())
                    for _ in range(REPLICAS)]
        report = ClusterSimulator(replicas, router=router).run(trace, slo=SLO_TARGET)
        rows.append([router,
                     f"{report.ttft.p99_s * 1e3:.0f} ms",
                     f"{report.slo_attainment * 100:.1f}%",
                     f"{report.goodput_requests_per_second:.2f} req/s",
                     f"{report.mean_active_replicas:.2f}",
                     f"${report.cost_per_million_tokens_dollars:.3f}"])
    print(format_table(
        ["router", "p99 TTFT", "SLO attained", "goodput", "mean active", "$/Mtok"],
        rows,
        title=f"{LLAMA2_7B.name} chat mix on {REPLICAS}x design-a "
              "(bursty arrivals, seed 7)"))

    spec = ServingSpec(arrival_rate=8.0, num_requests=400, seed=7,
                       slo=SLO_TARGET, router="least-outstanding-requests")
    plan = plan_fleet(LLAMA2_7B, design_a(), spec,
                      ChatServingSettings(request_classes=MIX),
                      attainment_target=0.9, max_replicas=12)
    if plan.met:
        print(f"\nfleet plan: {plan.replicas} replica(s) meet the SLO at "
              f"8 req/s (tried {len(plan.evaluations)} fleet sizes)")
    else:
        print("\nfleet plan: target not met within 12 replicas")


if __name__ == "__main__":
    main()
