"""Chaos-run throughput: the perf-trajectory record for fault injection.

Routes a 2k-request bursty chat trace — compressed by a flash-crowd
overlay — across a four-replica fleet under two seeded fault sources (a
recurring replica crash and a slow node) with the forecasting autoscaler,
and measures *simulator* performance: requests simulated per wall-clock
second and the fleet step-cost cache hit rate.  Fault handling rides the
routing pre-pass, so chaos must not meaningfully slow the simulator down.

Beyond the human-readable table under ``reports/``, the run writes
``BENCH_faults.json`` at the repository root: the machine-readable record
CI uploads next to ``BENCH_cluster.json`` and the benchmark-regression
gate (``scripts/check_bench_regression.py``) compares against the
committed baseline.  Pinned invariants: the 2k-request chaos run must
finish in under 15 s, the fleet cache hit rate must stay above 95 %
(2k requests amortise fewer cold state misses than the clean 5k bench,
and crash re-routing diversifies batch compositions), the
run must conserve requests (completed + rejected + shed == trace length)
and two identical runs must agree bit for bit.
"""

from __future__ import annotations

import json
import time

from _harness import REPORTS_DIR, emit_report

from repro.core.designs import design_a
from repro.serving.cluster import ClusterSimulator
from repro.serving.faults import FaultSpec
from repro.serving.metrics import SLO
from repro.serving.simulator import ServingSimulator
from repro.serving.trace import OverlaySpec, apply_overlay, generate_trace
from repro.workloads.chat import DEFAULT_REQUEST_MIX
from repro.workloads.llm import GPT3_30B

BENCH_PATH = REPORTS_DIR.parent / "BENCH_faults.json"

NUM_REQUESTS = 2_000
ARRIVAL_RATE = 64.0
REPLICAS = 4
SEED = 7
WALL_BUDGET_SECONDS = 15.0

FAULTS = (FaultSpec("replica-crash", mttf_s=8.0, duration_s=2.0, seed=3,
                    replica=1),
          FaultSpec("slow-node", mttf_s=10.0, duration_s=4.0, magnitude=2.0,
                    seed=2, replica=2))
OVERLAY = OverlaySpec("flash-crowd", start_s=5.0, duration_s=10.0,
                      magnitude=3.0)


def _run():
    trace = apply_overlay(
        generate_trace("bursty", DEFAULT_REQUEST_MIX, ARRIVAL_RATE,
                       NUM_REQUESTS, SEED), OVERLAY)
    replicas = [ServingSimulator(GPT3_30B, design_a()) for _ in range(REPLICAS)]
    cluster = ClusterSimulator(replicas, router="least-outstanding-requests",
                               autoscaler="forecasting", faults=FAULTS)
    start = time.perf_counter()
    report = cluster.run(trace, slo=SLO(ttft_s=1.0, tpot_s=0.1))
    return report, time.perf_counter() - start


def test_chaos_simulator_throughput(benchmark):
    """2k overlaid chat requests under seeded faults: wall-clock, determinism."""
    report, wall = _run()
    repeat, repeat_wall = _run()
    resilience = report.resilience

    emit_report(
        "chaos_throughput",
        ["quantity", "value"],
        [["requests routed", NUM_REQUESTS],
         ["replicas (configured)", report.fleet_size],
         ["fault events / crashes",
          f"{resilience.fault_count} / {resilience.crash_count}"],
         ["disrupted / shed requests",
          f"{resilience.disrupted_requests} / {report.shed}"],
         ["availability", f"{resilience.availability:.4f}"],
         ["recovery to SLO", f"{resilience.recovery_s:.1f} s"],
         ["wall-clock", f"{wall:.2f} s"],
         ["requests/s simulated", f"{NUM_REQUESTS / wall:.0f}"],
         ["fleet step-cost cache hit rate",
          f"{report.cost_cache_hit_rate * 100:.2f}%"],
         ["goodput under failure",
          f"{resilience.goodput_under_failure_tokens_per_second:.0f} tok/s"],
         ["p99 e2e", f"{report.e2e.p99_s:.3f} s"]],
        title=f"Chaos fleet over {NUM_REQUESTS} chat requests "
              f"({GPT3_30B.name} on {REPLICAS}x design-a, seed {SEED})")

    BENCH_PATH.write_text(json.dumps({
        "benchmark": "fault_injection",
        "model": GPT3_30B.name,
        "design": "design-a",
        "fleet": {"replicas": REPLICAS, "router": "least-outstanding-requests",
                  "autoscaler": "forecasting"},
        "faults": [spec.summary() for spec in FAULTS],
        "overlay": OVERLAY.summary(),
        "trace": {"kind": "bursty", "num_requests": NUM_REQUESTS,
                  "arrival_rate": ARRIVAL_RATE, "seed": SEED},
        "wall_seconds": wall,
        "requests_per_wall_second": NUM_REQUESTS / wall,
        "cache_hit_rate": report.cost_cache_hit_rate,
        "shed_requests": report.shed,
        "report": report.to_dict(include_requests=False),
    }, indent=2) + "\n", encoding="utf-8")
    print(f"wrote chaos benchmark record to {BENCH_PATH}")

    # Acceptance budget: the chaos run must stay as cheap as a clean one.
    assert wall < WALL_BUDGET_SECONDS
    assert report.completed + report.rejected + report.shed == NUM_REQUESTS
    assert report.shed == 0
    assert resilience.crash_count >= 1
    assert resilience.availability < 1.0
    assert report.cost_cache_hit_rate > 0.95
    # Bit-for-bit reproducibility of the chaos outcome.
    assert repeat.to_dict() == report.to_dict()
    assert repeat_wall < WALL_BUDGET_SECONDS

    # Steady-state figure of merit: a 500-request chaos replay on warm step
    # prices.
    small_trace = apply_overlay(
        generate_trace("bursty", DEFAULT_REQUEST_MIX, ARRIVAL_RATE, 500, SEED),
        OVERLAY)
    warm = [ServingSimulator(GPT3_30B, design_a()) for _ in range(REPLICAS)]
    ClusterSimulator(warm, router="least-outstanding-requests",
                     autoscaler="forecasting", faults=FAULTS).run(small_trace)

    def replay():
        fresh = [ServingSimulator(GPT3_30B, design_a()) for _ in range(REPLICAS)]
        return ClusterSimulator(fresh, router="least-outstanding-requests",
                                autoscaler="forecasting",
                                faults=FAULTS).run(small_trace)

    benchmark(replay)


def test_every_fault_model_completes_the_trace():
    """Each built-in fault model conserves a contended fleet trace."""
    from repro.serving.faults import FAULT_REGISTRY

    trace = generate_trace("bursty", DEFAULT_REQUEST_MIX, 32.0, 600, SEED)
    for kind in sorted(FAULT_REGISTRY):
        replicas = [ServingSimulator(GPT3_30B, design_a()) for _ in range(3)]
        report = ClusterSimulator(
            replicas, faults=(FaultSpec(kind, mttf_s=6.0, duration_s=2.0),),
        ).run(trace)
        assert report.completed + report.rejected + report.shed == 600
        assert report.shed == 0
