"""Gateway service throughput: the perf record of simulation-as-a-service.

Runs a real :class:`~repro.gateway.GatewayServer` (ephemeral port, real
``urllib`` HTTP round-trips) over one persistent result store and pushes
a batch of distinct serving runs through it twice: the cold pass (every
job simulates) and the warm pass (every job is a store lookup).  The
measured walls therefore price the whole service path — JSON decode,
validation, queueing, worker dispatch, engine run or store hit, JSON
encode — not just the engine.

Those passes open a connection per call (``Connection: close``), so
they never see a wire stall: closing the connection sends a held reply
at once.  A keep-alive block therefore polls one finished job's status
over one ``http.client`` connection, in delayed-ACK mode before every
request as perfbench's gateway client is: a reply whose head and body
left in two writes waits about 40 ms there for the ACK of the head.

The run writes ``BENCH_gateway.json`` at the repository root, compared
against the committed baseline by ``scripts/check_bench_regression.py``.
Pinned invariants: the warm pass performs **zero** new simulations
(count metric, like the cached re-sweep), its store hit rate is 1.0,
every warm result envelope is byte-identical to its cold counterpart
outside the accounting header, and the keep-alive round-trip median
stays under 10 ms (asserted here: the regression gate's 0.25 s absolute
floor would hide a 40 ms stall).
"""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import time
import urllib.request

from _harness import REPORTS_DIR, emit_report

from repro.api import SimulateRequest
from repro.gateway import GatewayServer
from repro.sweep.store import ResultStore

BENCH_PATH = REPORTS_DIR.parent / "BENCH_gateway.json"

#: Distinct serving runs per pass (seeds 0..N-1 over one fast scenario).
NUM_JOBS = 6
NUM_REQUESTS = 120
ARRIVAL_RATE = 16.0
WORKERS = 4
WALL_BUDGET_SECONDS = 30.0
#: Status polls of one finished job over one keep-alive connection.
KEEPALIVE_POLLS = 40
KEEPALIVE_RTT_BUDGET_SECONDS = 0.010

ACCOUNTING = ("served_from_store", "new_simulations",
              "store_hits", "store_misses")


def _payloads():
    return [SimulateRequest(llm="llama2-7b", input_tokens=64,
                            output_tokens=16, rate=ARRIVAL_RATE,
                            requests=NUM_REQUESTS, seed=seed).to_dict()
            for seed in range(NUM_JOBS)]


def _call(url, method="GET", payload=None):
    body = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=body, method=method,
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.loads(response.read())


def _run_pass(server, payloads):
    """Submit every payload, wait for all jobs, fetch all results."""
    start = time.perf_counter()
    accepted = [_call(f"{server.url}/v1/simulate", "POST", payload)
                for payload in payloads]
    for entry in accepted:
        server.manager.wait(entry["job_id"], timeout=120)
    results = [_call(f"{server.url}{entry['result_url']}")
               for entry in accepted]
    return results, time.perf_counter() - start


def _keepalive_round_trips(server, path):
    """Seconds of each of ``KEEPALIVE_POLLS`` GETs of ``path``, one connection."""
    connection = http.client.HTTPConnection(server.host, server.port,
                                            timeout=60)
    seconds = []
    try:
        connection.connect()
        for _ in range(KEEPALIVE_POLLS):
            if hasattr(socket, "TCP_QUICKACK"):  # not sticky: set per request
                connection.sock.setsockopt(socket.IPPROTO_TCP,
                                           socket.TCP_QUICKACK, 0)
            start = time.perf_counter()
            connection.request("GET", path)
            response = connection.getresponse()
            response.read()
            seconds.append(time.perf_counter() - start)
            assert response.status == 200
    finally:
        connection.close()
    return seconds


def test_gateway_store_roundtrip(benchmark, tmp_path):
    """Cold vs. warm service passes against one shared persistent store."""
    store = ResultStore(tmp_path / "gateway_store.jsonl")
    payloads = _payloads()
    with GatewayServer(store, port=0, workers=WORKERS) as server:
        cold, cold_wall = _run_pass(server, payloads)
        warm, warm_wall = _run_pass(server, payloads)

        cold_simulations = sum(r["new_simulations"] for r in cold)
        warm_simulations = sum(r["new_simulations"] for r in warm)
        warm_hits = sum(r["store_hits"] for r in warm)
        warm_misses = sum(r["store_misses"] for r in warm)
        warm_hit_rate = warm_hits / max(warm_hits + warm_misses, 1)
        finished = _call(f"{server.url}/v1/jobs")["jobs"][0]
        round_trips = _keepalive_round_trips(
            server, f"/v1/jobs/{finished['job_id']}")
        rtt_p50 = statistics.median(round_trips)

        emit_report(
            "gateway_store_roundtrip",
            ["quantity", "cold pass", "warm pass"],
            [["wall-clock", f"{cold_wall:.2f} s", f"{warm_wall:.2f} s"],
             ["jobs", len(cold), len(warm)],
             ["new simulations", cold_simulations, warm_simulations],
             ["store hits", sum(r["store_hits"] for r in cold), warm_hits],
             ["store hit rate", "-", f"{warm_hit_rate:.2f}"],
             ["keep-alive status poll p50", "-", f"{rtt_p50 * 1e3:.2f} ms"]],
            title=f"Gateway service: {NUM_JOBS} jobs x {NUM_REQUESTS} "
                  f"requests over HTTP ({WORKERS} workers)")

        BENCH_PATH.write_text(json.dumps({
            "benchmark": "gateway_store_roundtrip",
            "jobs": NUM_JOBS,
            "requests_per_job": NUM_REQUESTS,
            "arrival_rate": ARRIVAL_RATE,
            "workers": WORKERS,
            "cold_wall_seconds": cold_wall,
            "warm_wall_seconds": warm_wall,
            "cold_simulations": cold_simulations,
            "warm_simulations": warm_simulations,
            "warm_hit_rate": warm_hit_rate,
            "store_entries": len(store),
            "keepalive_round_trips": len(round_trips),
            "keepalive_rtt_p50_seconds": rtt_p50,
        }, indent=2) + "\n", encoding="utf-8")
        print(f"wrote gateway benchmark record to {BENCH_PATH}")

        assert cold_wall < WALL_BUDGET_SECONDS
        assert warm_wall < WALL_BUDGET_SECONDS
        # Cold pass simulates every job exactly once; warm is pure lookup.
        assert cold_simulations == NUM_JOBS
        assert warm_simulations == 0
        assert warm_hit_rate == 1.0
        # Head and body in one write: no reply waits for a delayed ACK.
        assert rtt_p50 < KEEPALIVE_RTT_BUDGET_SECONDS
        # Warm envelopes match cold ones outside the accounting header.
        for cold_result, warm_result in zip(cold, warm):
            assert {k: v for k, v in warm_result.items()
                    if k not in ACCOUNTING} == \
                   {k: v for k, v in cold_result.items()
                    if k not in ACCOUNTING}

        # Steady-state figure of merit: one fully warm service pass.
        benchmark(lambda: _run_pass(server, payloads)[1])
