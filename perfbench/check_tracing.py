"""Tracing only observes: checks of the traced run's span recorder.

Run from the root of a checkout (the name keeps it out of the default
test collection)::

    PYTHONPATH=src python3 -m pytest -q perfbench/check_tracing.py

* Traced and untraced calls give byte-identical responses, in process
  and through a gateway child started by the launcher.
* Every wrapped boundary sees every call: each wrapper's call count
  equals the profiler's count for the original function, so no caller
  still holds an unwrapped reference (the three traps in ``tracer.py``).
"""

from __future__ import annotations

import cProfile
import json
import pathlib
import pstats
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gateway  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402


def _requests(tmp_path):
    """Small ops that reach every wrapped layer, store hits included."""
    from repro.api import request_from_dict
    from repro.sweep.store import ResultStore

    store = ResultStore(tmp_path / "store.jsonl")
    payloads = [wl.WORKLOADS["serve-mix"].payload(0, index)
                for index in range(3)]
    payloads.append(wl.WORKLOADS["day-trace"].warmup_payload())
    payloads.append(wl.WORKLOADS["optimize-search"].warmup_payload())
    calls = [(request_from_dict(payload), None) for payload in payloads]
    # A single deployment and a fleet, each cold then warm from the store.
    for shape in wl.SERVE_SHAPES[:2]:
        request = request_from_dict(wl.serve_payload(shape, 3))
        calls += [(request, store), (request, store)]
    return calls


def _run(calls) -> list[str]:
    import repro.api

    return [json.dumps(repro.api.run(request, store=store).to_dict(),
                       sort_keys=True)
            for request, store in calls]


def test_traced_responses_are_identical(tmp_path):
    untraced = _run(_requests(tmp_path / "a"))
    installation = tracing.install(tracing.Tracer())
    try:
        traced = _run(_requests(tmp_path / "b"))
    finally:
        installation.uninstall()
    assert traced == untraced


def test_wrappers_see_every_call(tmp_path):
    calls = _requests(tmp_path)
    tracer = tracing.Tracer()
    installation = tracing.install(tracer)
    profiler = cProfile.Profile()
    try:
        profiler.enable()
        _run(calls)
        profiler.disable()
    finally:
        installation.uninstall()
    profiled = {}
    for (path, line, name), row in pstats.Stats(profiler).stats.items():
        profiled[(path, line, name)] = row[1]
    seen = tracer.totals()
    reached = 0
    for key, original in installation.originals.items():
        code = original.__code__
        expected = profiled.get((code.co_filename, code.co_firstlineno,
                                 code.co_name), 0)
        assert seen[key] == expected, key
        reached += expected > 0
    # Everything but the MoE graph builder is reached by these ops.
    assert reached == len(installation.originals) - 1


def test_traps_are_patched_and_restored():
    import repro.api
    import repro.api.facade
    import repro.optimize.evaluator
    import repro.serving.cluster
    import repro.serving.simulator
    import repro.sweep

    module = sys.modules["repro.sweep.fingerprint"]
    original = module.fingerprint
    holders = [(repro.api, "simulate"), (repro.api.facade, "simulate"),
               (repro.api.facade.HANDLERS, "simulate"),
               (repro.sweep, "fingerprint"), (repro.api.facade, "fingerprint"),
               (repro.serving.cluster, "fingerprint"),
               (repro.serving.simulator, "generate_trace"),
               (repro.optimize.evaluator, "fleet_lower_bound")]

    def get(holder, name):
        return holder[name] if isinstance(holder, dict) else getattr(holder, name)

    before = [get(holder, name) for holder, name in holders]
    installation = tracing.install(tracing.Tracer())
    try:
        for (holder, name), function in zip(holders, before):
            assert get(holder, name).__wrapped__ is function, name
        assert module.fingerprint.__wrapped__ is original
    finally:
        installation.uninstall()
    assert [get(holder, name) for holder, name in holders] == before
    assert module.fingerprint is original


def _gateway_reports(scratch: pathlib.Path, spans=None):
    entries = wl.catalogue(0)
    with gateway.GatewayChild(HERE.parent, scratch, spans) as child:
        conns = [gateway.Connection(child.host, child.port) for _ in range(2)]
        outcomes = gateway.run_pair(conns, [entries[0], entries[0]])
        outcomes += gateway.run_pair(conns, [entries[1], entries[0]])
        for conn in conns:
            conn.close()
    return outcomes, [json.dumps(outcome["envelope"]["report"], sort_keys=True)
                      for outcome in outcomes]


def test_gateway_traced_answers_match_untraced(tmp_path):
    _, untraced = _gateway_reports(tmp_path)
    spans = tmp_path / "spans.json"
    outcomes, traced = _gateway_reports(tmp_path, spans)
    assert traced == untraced
    assert traced[0] == traced[1] == traced[3]
    recorded = json.loads(spans.read_text())
    jobs = {outcome["job"]["job_id"] for outcome in outcomes}
    assert jobs <= {span[2] for span in recorded["spans"]}
