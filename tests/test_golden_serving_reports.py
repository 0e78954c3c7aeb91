"""Golden digests of serving and fleet reports, byte for byte.

``tests/golden/serving_reports.json`` holds the sha256 of
``json.dumps(report.to_dict())`` and of
``json.dumps(report.to_dict(include_requests=False))`` for 64 fleet runs
(every built-in router x autoscaler x four fault settings), two fleets
whose replicas reject requests (some, then all of them) and one
single-deployment run per scheduler.  ``json.dumps`` does not sort keys,
so the digests pin key order, every float and the ``cost_cache_*`` counts
that the perfbench digests leave out: a routing front end that skips a
step-cost lookup or hands a policy a stale replica view moves them.

Python 3.12 made ``sum()`` of floats compensated, which moves the last
bits of every fleet aggregate, so the file stores one digest set per
summation behaviour.  Regenerate it only for an intentional change of
the reports, under both interpreters (see CONTRIBUTING.md)::

    PYTHONPATH=src python3.11 tests/golden/regenerate.py serving-reports
    PYTHONPATH=src python3.12 tests/golden/regenerate.py serving-reports

The module imports no pytest, so the regenerate script can reuse it under
an interpreter that has only the package's own dependencies.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

from repro.api.requests import SimulateRequest
from repro.serving.cluster import simulate_cluster
from repro.serving.simulator import simulate_serving

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "serving_reports.json"

ROUTERS = ("round-robin", "least-outstanding-requests", "least-kv-pressure",
           "session-affinity")
AUTOSCALERS = ("fixed", "queue-depth", "utilisation-target", "forecasting")
SCHEDULERS = ("fcfs", "shortest-prompt-first", "decode-priority")
FAULTS = {
    "none": (),
    "crash": ("replica-crash:mttf_s=2,duration_s=0.3",),
    "stall": ("admission-stall:at_s=1,duration_s=2,replica=0",),
    "slow": ("slow-node:mttf_s=4,duration_s=1,magnitude=2",),
}

#: The shared workload: a 400-request llama2-7b chat trace on design-a.
WORKLOAD = dict(design="design-a", llm="llama2-7b", scenario="chat-serving",
                input_tokens=64, output_tokens=16, rate=32.0, requests=400,
                seed=7)

#: Two-replica fleets of one device each whose KV budget turns requests
#: away: 8192/1024 tokens completes 7 of 20 and rejects 13; 16384/2048
#: rejects all 20, so every latency summary is zero and the SLO debt is
#: the integer 0.
REJECTING = {f"{inp}x{out}": dict(
    design="design-a", llm="llama2-7b", scenario="chat-serving",
    input_tokens=inp, output_tokens=out, rate=1.0, requests=20, seed=3,
    replicas=2, devices=1) for inp, out in ((8192, 1024), (16384, 2048))}


def summation() -> str:
    """Which float ``sum()`` the running interpreter has."""
    return "compensated" if sum([0.1] * 10) == 1.0 else "naive"


def cases() -> dict[str, SimulateRequest]:
    """Case name -> the request it runs, fleets first."""
    found = {
        f"fleet/{router}/{autoscaler}/{fault}": SimulateRequest(
            **WORKLOAD, replicas=4, router=router, autoscaler=autoscaler,
            faults=faults)
        for router in ROUTERS for autoscaler in AUTOSCALERS
        for fault, faults in FAULTS.items()}
    found.update({f"fleet-rejects/{shape}": SimulateRequest(**settings)
                  for shape, settings in REJECTING.items()})
    found.update({f"single/{scheduler}": SimulateRequest(
        **WORKLOAD, scheduler=scheduler) for scheduler in SCHEDULERS})
    return found


def _sha256(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload).encode("utf-8")).hexdigest()


def report_digests() -> dict[str, dict[str, str]]:
    """Case name -> digests of the report with and without its rows."""
    digests = {}
    for name, request in cases().items():
        model, config, settings = request.resolve()
        spec = request.spec()
        run = simulate_cluster if spec.replicas > 1 else simulate_serving
        report = run(model, config, spec, settings)
        digests[name] = {
            "rows": _sha256(report.to_dict()),
            "no_rows": _sha256(report.to_dict(include_requests=False))}
    return digests


def _golden() -> dict[str, dict[str, dict[str, str]]]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["digests"]


def test_reports_match_golden():
    expected = _golden()[summation()]
    actual = report_digests()
    assert sorted(actual) == sorted(expected)
    moved = [name for name in expected if actual[name] != expected[name]]
    assert not moved, f"{len(moved)} of {len(expected)} report digests moved: {moved}"


def test_golden_holds_both_summation_sets():
    digests = _golden()
    assert sorted(digests) == ["compensated", "naive"]
    assert sorted(digests["compensated"]) == sorted(digests["naive"]) == sorted(cases())
    assert len(cases()) == (len(ROUTERS) * len(AUTOSCALERS) * len(FAULTS)
                            + len(REJECTING) + len(SCHEDULERS))
