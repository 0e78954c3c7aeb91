"""Cluster-simulator throughput: the perf-trajectory record for the fleet.

Routes a 5k-request bursty trace of the default chat mix across a
four-replica fleet (least-outstanding-requests router, queue-depth
autoscaler) and measures *simulator* performance — requests simulated per
wall-clock second and the fleet-wide step-cost cache hit rate.

Beyond the human-readable table under ``reports/``, the run writes
``BENCH_cluster.json`` at the repository root: the machine-readable record
CI uploads next to ``BENCH_sweep.json`` / ``BENCH_serving.json`` and the
benchmark-regression gate (``scripts/check_bench_regression.py``) compares
against the committed baseline.  Pinned invariants: the 5k-request fleet
must finish in under 15 s, the fleet cache hit rate must stay above 98 %
(each replica's step-cost memo pays its own first lookup per state, so the
fleet rate sits slightly below the single-replica 99 %), and two identical
runs must agree bit for bit.

The saturated fleet above attains no SLO at all, so the record also carries
a ``realistic`` block: a 20k-request llama2-7b fleet at a load someone would
deploy (utilisation in [0.5, 0.9], SLO attainment strictly inside (0, 1)),
timed through ``repro.api.simulate`` on warm step prices, so the routing
pre-pass, the replica event loops and the report encoding all count.  An
untimed traced call adds the routing front end's work as exact counts: the
fleet views it built (none: the fleet never scales), the times it rebuilt
the routable replica set (once: nothing changes routability) and the replica
views it built (one per load change of a routable replica, not one per
replica per arrival).  A second untimed call counts the per-request checks
of trace generation and aggregation by wrapping them from here (``src/``
holds no counter): ``Request.__post_init__`` (none: generated rows skip the
checked constructor), ``RequestMetrics.meets`` (one per completed request)
and ``slo_debt_s`` (one per request that missed the SLO).
"""

from __future__ import annotations

import contextlib
import json
import sys
import time

from _harness import REPORTS_DIR, emit_report

from repro.api import SimulateRequest, simulate
from repro.core.designs import design_a
from repro.obs.telemetry import Telemetry
from repro.serving.cluster import ClusterSimulator
from repro.serving.metrics import SLO, RequestMetrics, slo_debt_s
from repro.serving.simulator import ServingSimulator
from repro.serving.trace import Request, generate_trace
from repro.workloads.chat import DEFAULT_REQUEST_MIX
from repro.workloads.llm import GPT3_30B

BENCH_PATH = REPORTS_DIR.parent / "BENCH_cluster.json"

NUM_REQUESTS = 5_000
ARRIVAL_RATE = 64.0
REPLICAS = 4
SEED = 7
WALL_BUDGET_SECONDS = 15.0

#: The realistic-load fleet: llama2-7b chat on four design-a replicas.
REALISTIC = SimulateRequest(
    design="design-a", llm="llama2-7b", scenario="chat-serving",
    input_tokens=256, output_tokens=64, rate=3.2, requests=20_000,
    replicas=4, router="least-outstanding-requests", seed=SEED)


def _run():
    trace = generate_trace("bursty", DEFAULT_REQUEST_MIX, ARRIVAL_RATE,
                           NUM_REQUESTS, SEED)
    replicas = [ServingSimulator(GPT3_30B, design_a()) for _ in range(REPLICAS)]
    cluster = ClusterSimulator(replicas, router="least-outstanding-requests",
                               autoscaler="queue-depth")
    start = time.perf_counter()
    report = cluster.run(trace, slo=SLO(ttft_s=1.0, tpot_s=0.1))
    return report, time.perf_counter() - start


@contextlib.contextmanager
def _counting_checks():
    """Count the calls of the per-request checks while the block runs.

    ``slo_debt_s`` is imported by name, so every loaded ``repro`` module
    that holds it gets the counting wrapper.
    """
    counts: dict[str, int] = {}
    patched = []

    def count(holder, name: str, key: str) -> None:
        original = getattr(holder, name)
        counts[key] = 0

        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        patched.append((holder, name, original))
        setattr(holder, name, counted)

    count(Request, "__post_init__", "request_post_inits")
    count(RequestMetrics, "meets", "meets_calls")
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("repro")
                and getattr(module, "slo_debt_s", None) is slo_debt_s):
            count(module, "slo_debt_s", "slo_debt_calls")
    try:
        yield counts
    finally:
        for holder, name, original in reversed(patched):
            setattr(holder, name, original)


def _run_realistic():
    """The realistic fleet's report payload, the wall time of its call and
    the work counts of untimed traced and counted calls.

    A first call prices the step states, so the timed call measures the
    fleet layers rather than the cost model.
    """
    priced = simulate(REALISTIC)
    start = time.perf_counter()
    response = simulate(REALISTIC)
    wall = time.perf_counter() - start
    assert response.report == priced.report
    tel = Telemetry()
    assert simulate(REALISTIC, telemetry=tel).report == priced.report
    with _counting_checks() as checks:
        assert simulate(REALISTIC).report == priced.report
    return response.report, wall, {**tel.counters, **checks}


def test_cluster_simulator_throughput(benchmark):
    """5k chat requests over 4 replicas: wall-clock, caching, reproducibility."""
    report, wall = _run()
    repeat, repeat_wall = _run()
    realistic, realistic_wall, realistic_counters = _run_realistic()

    emit_report(
        "cluster_throughput",
        ["quantity", "value"],
        [["requests routed", NUM_REQUESTS],
         ["replicas (configured)", report.fleet_size],
         ["replicas (peak / mean active)",
          f"{report.peak_active_replicas} / {report.mean_active_replicas:.2f}"],
         ["wall-clock", f"{wall:.2f} s"],
         ["requests/s simulated", f"{NUM_REQUESTS / wall:.0f}"],
         ["simulated makespan", f"{report.makespan_s:.0f} s"],
         ["fleet step-cost cache hit rate",
          f"{report.cost_cache_hit_rate * 100:.2f}%"],
         ["distinct states priced (fleet)", report.cost_cache_misses],
         ["p99 TTFT", f"{report.ttft.p99_s:.3f} s"],
         ["p99 e2e", f"{report.e2e.p99_s:.3f} s"],
         ["cost per million tokens", f"${report.cost_per_million_tokens_dollars:.3f}"],
         ["realistic fleet: wall-clock", f"{realistic_wall:.3f} s"],
         ["realistic fleet: utilisation / SLO attainment",
          f"{realistic['utilisation']:.3f} / {realistic['slo_attainment']:.3f}"]],
        title=f"Cluster simulator over {NUM_REQUESTS} chat requests "
              f"({GPT3_30B.name} on {REPLICAS}x design-a, seed {SEED})")

    BENCH_PATH.write_text(json.dumps({
        "benchmark": "cluster_simulator",
        "model": GPT3_30B.name,
        "design": "design-a",
        "fleet": {"replicas": REPLICAS, "router": "least-outstanding-requests",
                  "autoscaler": "queue-depth"},
        "trace": {"kind": "bursty", "num_requests": NUM_REQUESTS,
                  "arrival_rate": ARRIVAL_RATE, "seed": SEED},
        "wall_seconds": wall,
        "requests_per_wall_second": NUM_REQUESTS / wall,
        "cache_hit_rate": report.cost_cache_hit_rate,
        "distinct_cost_states": report.cost_cache_misses,
        "report": report.to_dict(include_requests=False),
        "realistic": {
            "wall_seconds": realistic_wall,
            "requests_per_wall_second": REALISTIC.requests / realistic_wall,
            "utilisation": realistic["utilisation"],
            "slo_attainment": realistic["slo_attainment"],
            "fleet_views": realistic_counters["cluster.fleet_views"],
            "routable_rebuilds": realistic_counters["cluster.routable_rebuilds"],
            "view_builds": realistic_counters["cluster.view_builds"],
            "request_post_inits": realistic_counters["request_post_inits"],
            "meets_calls": realistic_counters["meets_calls"],
            "slo_debt_calls": realistic_counters["slo_debt_calls"],
        },
    }, indent=2) + "\n", encoding="utf-8")
    print(f"wrote cluster benchmark record to {BENCH_PATH}")

    # Acceptance budget: 5k requests across the fleet in under 15 s.
    assert wall < WALL_BUDGET_SECONDS
    assert report.completed == NUM_REQUESTS
    assert report.cost_cache_hit_rate > 0.98
    # Bit-for-bit reproducibility of the simulated fleet outcome.
    assert repeat.to_dict() == report.to_dict()
    assert repeat_wall < WALL_BUDGET_SECONDS
    # The realistic case must sit at a load someone would deploy.
    assert 0.5 <= realistic["utilisation"] <= 0.9
    assert 0.0 < realistic["slo_attainment"] < 1.0
    assert realistic["completed"] == REALISTIC.requests

    # Steady-state figure of merit for pytest-benchmark comparisons: a
    # 1k-request fleet replay on warm step prices.
    small_trace = generate_trace("bursty", DEFAULT_REQUEST_MIX, ARRIVAL_RATE,
                                 1000, SEED)
    replicas = [ServingSimulator(GPT3_30B, design_a()) for _ in range(REPLICAS)]
    warm = ClusterSimulator(replicas, router="least-outstanding-requests")
    warm.run(small_trace)

    def replay():
        fresh = [ServingSimulator(GPT3_30B, design_a()) for _ in range(REPLICAS)]
        return ClusterSimulator(fresh, router="least-outstanding-requests").run(small_trace)

    benchmark(replay)


def test_routers_complete_the_trace():
    """Every built-in router finishes a contended fleet trace."""
    from repro.serving.router import ROUTER_REGISTRY

    trace = generate_trace("bursty", DEFAULT_REQUEST_MIX, 32.0, 800, SEED)
    for router in sorted(ROUTER_REGISTRY):
        replicas = [ServingSimulator(GPT3_30B, design_a()) for _ in range(3)]
        report = ClusterSimulator(replicas, router=router).run(trace)
        assert report.completed + report.rejected == 800
        assert report.rejected == 0
