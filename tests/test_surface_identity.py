"""One request, one store entry: ``repro.api`` and the CLI share results.

Each case decodes an HTTP-style payload whose float fields are spelt as
JSON integers (``"rate": 16``, ``"arrival_rates": [4]``), runs it through
``repro.api`` against a store, then runs the CLI command the request
maps to against the same store.  The CLI must simulate nothing new and
write the API's payload, Pareto ``cache_key``s included: an integral rate
is the same float whichever surface spelt it.

The CLI argv is built from the request by walking ``build_parser()``'s
actions, so the cases also check that every request field has the flag
the parser promises.  A frontier's run counts say how it was computed
(cold: simulated; warm: served), so they are compared as accounting, not
as content.
"""

import argparse
import json

import pytest

from repro import api
from repro.api import request_from_dict
from repro.cli import build_parser, main
from repro.sweep.store import ResultStore

#: Frontier fields that count how a search ran, not what it found.
PROVENANCE = ("short_runs", "full_runs", "store_served")

SMALL = {"llm": "llama2-7b", "input_tokens": 64, "output_tokens": 16,
         "seed": 7}

#: kind -> (HTTP-style payload, CLI subcommand, response field the CLI's
#: --json file holds).
CASES = {
    "simulate": ({"kind": "simulate", **SMALL, "rate": 16, "requests": 40,
                  "replicas": 3, "slo_ttft": 2,
                  "faults": ["replica-crash:at_s=1,duration_s=1,replica=0"]},
                 "serve", "report"),
    "fleet": ({"kind": "fleet", **SMALL, "rate": 4, "requests": 40,
               "max_replicas": 2, "slo_ttft": 2, "slo_tpot": 1},
              "fleet", "plan"),
    "sweep": ({"kind": "sweep", "models": ["llama2-7b"],
               "designs": ["baseline"], "precisions": ["int8"],
               "batches": [2], "schedulers": ["fcfs"], "arrival_rates": [4],
               "trace_requests": 20, "input_tokens": 64, "output_tokens": 16,
               "seed": 7},
              "sweep", "rows"),
    "optimize": ({"kind": "optimize", **SMALL, "designs": ["baseline",
                                                           "design-a"],
                  "replica_counts": [1, 2], "rate": 12, "requests": 40,
                  "constraints": ["slo>=0.5"]},
                 "optimize", "frontier"),
}


def cli_argv(request, subcommand: str) -> list[str]:
    """The ``repro-sim`` argv whose flags spell ``request``'s fields."""
    parser = build_parser()
    (commands,) = [action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction)]
    sub = commands.choices[subcommand]
    values = request.to_dict()

    def flags(actions, skip=()):
        argv = []
        for action in actions:
            if action.dest not in values or action.dest in skip:
                continue
            value, option = values[action.dest], action.option_strings[-1]
            if isinstance(action, argparse._StoreFalseAction):
                argv += [option] if value is False else []
            elif isinstance(action, argparse._AppendAction):
                for item in value:
                    argv += [option, str(item)]
            elif isinstance(value, list):
                argv += [option, *map(str, value)] if value else []
            elif value is not None:
                argv += [option, str(value)]
        return argv

    own = {action.dest for action in sub._actions}
    return (flags(parser._actions, skip=own) + [subcommand]
            + flags(sub._actions))


@pytest.mark.parametrize("kind", sorted(CASES))
def test_cli_reuses_the_api_store_entry(kind, tmp_path, capsys):
    payload, subcommand, field = CASES[kind]
    request = request_from_dict(payload)
    store_path = tmp_path / "store.jsonl"
    response = api.HANDLERS[kind](request, store=ResultStore(store_path))
    stored = response.store_misses
    assert stored > 0

    out_path = tmp_path / "cli.json"
    argv = cli_argv(request, subcommand)
    main(argv + ["--store", str(store_path), "--json", str(out_path)])
    stdout = capsys.readouterr().out
    assert f"new simulations: 0; served from store: {stored}" in stdout, argv
    expected = json.loads(json.dumps(getattr(response, field)))
    written = json.loads(out_path.read_text(encoding="utf-8"))
    if kind == "optimize":
        assert written["store_served"] == stored
        for name in PROVENANCE:
            del expected[name], written[name]
    assert written == expected  # each point's and extreme's cache_key too


def test_integral_float_spellings_are_one_request():
    payload = CASES["simulate"][0]
    spelt_as_floats = {**payload, "rate": 16.0, "slo_ttft": 2.0}
    one, other = request_from_dict(payload), request_from_dict(spelt_as_floats)
    assert one == other
    assert one.to_dict() == other.to_dict()
    assert type(one.rate) is float and type(one.slo_ttft) is float
    assert api.request_fingerprint(one) == api.request_fingerprint(other)
