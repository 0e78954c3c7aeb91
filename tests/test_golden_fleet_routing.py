"""Golden routing of a heterogeneous fleet, pinned as integers.

``tests/golden/serving_reports.json`` runs only homogeneous design-a
fleets of 64/16-token requests: every request fits every replica, so the
front end's KV fit filter and its ``fitting or candidates`` fallback
never run there.  This golden covers them.  Three llama2-7b int8
replicas with different token limits (3,786 on one baseline chip, 33,276
on two design-a chips, 33,275 on two design-b chips) serve a seeded
300-request trace in which some requests fit every replica, some only
the two larger ones and some none.

Each case pins, in order, the replica of every ``route`` and ``reroute``
decision the router's telemetry records, and each replica's
``requests_routed``, ``cost_cache_hits`` and ``cost_cache_misses``.
Only integers are pinned, so one digest set holds under every float
``sum()``; ``utilisation-target`` is left out because its decisions read
a float ``sum()``.  Regenerate the file only for an intentional routing
change::

    PYTHONPATH=src python tests/golden/regenerate.py fleet-routing

The module imports no pytest, so the regenerate script can reuse it.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random

from repro.core.designs import PREDEFINED_DESIGNS
from repro.obs.telemetry import Telemetry
from repro.serving.cluster import ClusterSimulator
from repro.serving.faults import parse_fault
from repro.serving.simulator import ServingSimulator
from repro.serving.trace import Request
from repro.workloads.llm import LLAMA2_7B

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "fleet_routing.json"

#: (design, devices, max_batch) of each replica, in index order.
FLEET = (("baseline", 1, 8), ("design-a", 2, 16), ("design-b", 2, 24))
ROUTERS = ("round-robin", "least-outstanding-requests", "least-kv-pressure",
           "session-affinity")
AUTOSCALERS = ("fixed", "queue-depth", "forecasting")
FAULTS = {
    "none": (),
    "crash": ("replica-crash:mttf_s=3,duration_s=0.5",),
    "stall": ("admission-stall:at_s=2,duration_s=4,replica=1",),
}

SEED = 20
NUM_REQUESTS = 300
RATE = 20.0
PROMPTS = (64, 256, 2048)
#: A fifth of the prompts are this many times longer: 2,560 tokens still
#: fits every replica, 10,240 only replicas 1 and 2, 81,920 none.
LONG_PROMPT_FACTOR = 40
OUTPUTS = (8, 64, 512)
SESSIONS = (None, 1, 2, 3)


def replicas() -> list[ServingSimulator]:
    """Fresh replica engines of the golden fleet."""
    return [ServingSimulator(LLAMA2_7B, PREDEFINED_DESIGNS[design],
                             max_batch=max_batch, devices=devices)
            for design, devices, max_batch in FLEET]


def routing_trace() -> tuple[Request, ...]:
    """The seeded Poisson trace every case routes."""
    rng = random.Random(SEED)
    now = 0.0
    requests = []
    for request_id in range(NUM_REQUESTS):
        now += rng.expovariate(RATE)
        prompt = rng.choice(PROMPTS)
        if rng.random() < 0.2:
            prompt *= LONG_PROMPT_FACTOR
        requests.append(Request(request_id=request_id, arrival_s=now,
                                input_tokens=prompt,
                                output_tokens=rng.choice(OUTPUTS),
                                session_id=rng.choice(SESSIONS)))
    return tuple(requests)


def cases() -> dict[str, tuple[str, str, tuple[str, ...]]]:
    """Case name -> (router, autoscaler, fault descriptions)."""
    return {f"{router}/{autoscaler}/{fault}": (router, autoscaler, faults)
            for router in ROUTERS for autoscaler in AUTOSCALERS
            for fault, faults in FAULTS.items()}


def routing(router: str, autoscaler: str,
            faults: tuple[str, ...]) -> dict[str, list[list[int]]]:
    """The integers one case pins."""
    tel = Telemetry()
    report = ClusterSimulator(
        replicas(), router=router, autoscaler=autoscaler,
        faults=[parse_fault(text) for text in faults],
    ).run(routing_trace(), telemetry=tel)
    return {
        "routes": [[event.args["request"], event.args["replica"],
                    int(event.name == "reroute")]
                   for event in tel.events if event.track == "router"
                   and event.name in ("route", "reroute")],
        "replicas": [[summary.requests_routed, summary.cost_cache_hits,
                      summary.cost_cache_misses]
                     for summary in report.replicas]}


def routing_digests() -> dict[str, str]:
    """Case name -> sha256 of the case's pinned integers."""
    return {name: hashlib.sha256(
                json.dumps(routing(*case)).encode("utf-8")).hexdigest()
            for name, case in cases().items()}


def test_routing_matches_golden():
    expected = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["digests"]
    actual = routing_digests()
    assert sorted(actual) == sorted(expected)
    moved = [name for name in expected if actual[name] != expected[name]]
    assert not moved, f"{len(moved)} of {len(expected)} routings moved: {moved}"


def test_trace_fits_all_some_and_none_of_the_fleet():
    limits = [replica.kv_budget(devices) // replica.kv_bytes_per_token
              for replica, (_, devices, _) in zip(replicas(), FLEET)]
    assert limits == [3786, 33276, 33275]
    fitting = {sum(request.total_tokens <= limit for limit in limits)
               for request in routing_trace()}
    assert fitting == {0, 2, 3}
