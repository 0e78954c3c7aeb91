"""Golden digests of the stored and wire payloads the report golden misses.

``tests/golden/payloads.json`` holds the sha256 of ``json.dumps`` of
every payload below, each produced through the ``repro.api`` facade
without a store:

* the result rows of a small mixed sweep (an LLM point, a DiT point and
  one serving point), the stored ``sweep-result`` shape;
* one Pareto frontier (``ParetoFrontier.to_dict()``);
* one fleet-sizing plan;
* one response envelope per response kind (``simulate`` twice: a single
  deployment with its rows, and a faulted fleet whose resilience summary
  carries ``recovery_s = inf``; ``sweep`` twice: the analytical points,
  and the serving point).

Every envelope is a function of its request alone: the same bytes on a
cold process-wide step-price table and on a warm one.

``json.dumps`` does not sort keys, so the digests pin key order, list
shapes and every float.  Fleet aggregates use ``sum()``, whose float
result changed in Python 3.12, so the file stores one digest set per
summation behaviour, as ``serving_reports.json`` does.  Regenerate it
only for an intentional payload change, under both interpreters::

    PYTHONPATH=src python3.11 tests/golden/regenerate.py payloads
    PYTHONPATH=src python3.12 tests/golden/regenerate.py payloads

The module imports no pytest, so the regenerate script can reuse it under
an interpreter that has only the package's own dependencies.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import repro.api as api
from repro.serving.costs import STEP_PRICES

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "payloads.json"

#: The small llama2-7b chat shape every serving case runs.
SHAPE = dict(llm="llama2-7b", input_tokens=64, output_tokens=16, seed=7)


def responses() -> dict[str, object]:
    """Case name -> the facade response it digests."""
    return {
        "simulate": api.simulate(api.SimulateRequest(
            **SHAPE, rate=16.0, requests=40)),
        "simulate-fleet": api.simulate(api.SimulateRequest(
            **SHAPE, rate=16.0, requests=40, replicas=2,
            faults=("replica-crash:at_s=0.5,duration_s=1,replica=0",))),
        "fleet": api.fleet(api.FleetRequest(
            **SHAPE, rate=16.0, requests=60, max_replicas=3)),
        "sweep": api.sweep(api.SweepRequest(
            models=("llama2-7b", "dit-xl-2"), designs=("design-a",),
            precisions=("int8",), batches=(2,), input_tokens=64,
            output_tokens=16, resolution=256, steps=2)),
        "sweep-serving": api.sweep(api.SweepRequest(
            models=("llama2-7b",), designs=("design-a",),
            precisions=("int8",), batches=(2,), input_tokens=64,
            output_tokens=16, schedulers=("fcfs",), arrival_rates=(16.0,),
            trace_requests=40, seed=7)),
        "optimize": api.optimize(api.OptimizeRequest(
            **SHAPE, designs=("baseline", "design-a", "design-b"),
            replica_counts=(1, 2), rate=16.0, requests=60,
            constraints=("slo>=0.5",))),
        "autoconfig-preview": api.autoconfig_preview(
            api.AutoconfigPreviewRequest(llm="llama2-7b")),
    }


def summation() -> str:
    """Which float ``sum()`` the running interpreter has."""
    return "compensated" if sum([0.1] * 10) == 1.0 else "naive"


def _sha256(payload: object) -> str:
    return hashlib.sha256(json.dumps(payload).encode("utf-8")).hexdigest()


def payload_digests() -> dict[str, str]:
    """Payload name -> the sha256 of its ``json.dumps`` bytes."""
    found = responses()
    digests = {f"envelope/{name}": _sha256(response.to_dict())
               for name, response in found.items()}
    digests["sweep/rows"] = _sha256(
        [*found["sweep"].rows, *found["sweep-serving"].rows])
    digests["optimize/frontier"] = _sha256(found["optimize"].frontier)
    digests["fleet/plan"] = _sha256(found["fleet"].plan)
    return dict(sorted(digests.items()))


def _golden() -> dict[str, dict[str, str]]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["digests"]


def test_payloads_match_golden():
    expected = _golden()[summation()]
    actual = payload_digests()
    assert sorted(actual) == sorted(expected)
    moved = [name for name in expected if actual[name] != expected[name]]
    assert not moved, f"{len(moved)} of {len(expected)} payload digests moved: {moved}"


def test_golden_holds_both_summation_sets():
    digests = _golden()
    assert sorted(digests) == ["compensated", "naive"]
    assert sorted(digests["compensated"]) == sorted(digests["naive"])


def test_envelopes_are_equal_on_a_cold_and_a_warm_table():
    STEP_PRICES.clear()
    cold = {name: response.to_dict() for name, response in responses().items()}
    warm = {name: response.to_dict() for name, response in responses().items()}
    moved = [name for name in cold if warm[name] != cold[name]]
    assert not moved, f"envelopes that depend on the step-price table: {moved}"
