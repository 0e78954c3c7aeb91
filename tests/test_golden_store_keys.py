"""Golden store keys of the fleet plans and co-design searches.

``tests/golden/payloads.json`` runs every case without a store, so it
pins what a run computes but not the key it is stored under.  A refactor
that builds a spec which prices the same but fingerprints differently
would pass it and still turn every warm store cold.  This golden runs six
``repro.api`` calls, each into a fresh
:class:`~repro.sweep.store.ResultStore`, and pins the sorted
``(kind, key)`` pairs each one writes:

* ``fleet``: an exact plan, a fluid plan and a chaos plan (a replica
  crash plus a flash crowd);
* ``optimize``: successive halving under ``slo>=0.5``, successive halving
  under the same chaos (its short-trace screen) and an exhaustive search.

Keys are fingerprints whose floats enter by ``repr``, so one set holds
under every interpreter.  Regenerate the file only for an intentional key
change (a version bump)::

    PYTHONPATH=src python tests/golden/regenerate.py store-keys

The module imports no pytest, so the regenerate script can reuse it.
"""

from __future__ import annotations

import json
import pathlib
import tempfile

import repro.api as api
from repro.sweep.store import ResultStore

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "store_keys.json"

#: The small llama2-7b chat workload every case runs.
WORKLOAD = dict(llm="llama2-7b", input_tokens=64, output_tokens=16,
                rate=24.0, requests=60, seed=7)
CHAOS = dict(faults=("replica-crash:at_s=0.5,duration_s=1,replica=0",),
             overlay="flash-crowd:start_s=0.5,duration_s=2,magnitude=2")
FLEET = dict(WORKLOAD, max_replicas=3, attainment=0.99)
SEARCH = dict(WORKLOAD, designs=("baseline", "design-a"),
              replica_counts=(1, 2))


def requests() -> dict[str, object]:
    """Case name -> the request whose store keys it pins."""
    return {
        "fleet-exact": api.FleetRequest(**FLEET),
        "fleet-fluid": api.FleetRequest(**FLEET, fidelity="fluid"),
        "fleet-chaos": api.FleetRequest(**FLEET, **CHAOS),
        "optimize-halving": api.OptimizeRequest(
            **SEARCH, constraints=("slo>=0.5",)),
        "optimize-halving-chaos": api.OptimizeRequest(
            **SEARCH, constraints=("slo>=0.5",), **CHAOS),
        "optimize-exhaustive": api.OptimizeRequest(
            **SEARCH, strategy="exhaustive"),
    }


def store_keys() -> dict[str, list[list[str]]]:
    """Case name -> the sorted ``[kind, key]`` pairs its call stores."""
    keys = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name, request in requests().items():
            store = ResultStore(pathlib.Path(scratch) / f"{name}.jsonl")
            api.run(request, store=store)
            keys[name] = sorted([kind, key] for kind, key in store.keys())
    return keys


def test_store_keys_match_golden():
    expected = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["keys"]
    actual = store_keys()
    assert sorted(actual) == sorted(expected)
    moved = [name for name in expected if actual[name] != expected[name]]
    assert not moved, f"{len(moved)} of {len(expected)} key sets moved: {moved}"


def test_every_case_stores_something():
    for name, pairs in json.loads(
            GOLDEN_PATH.read_text(encoding="utf-8"))["keys"].items():
        assert pairs, name
