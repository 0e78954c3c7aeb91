"""Golden CLI → request mapping of ``serve``, ``fleet``, ``sweep`` and ``optimize``.

Two things are pinned, both written before the CLI derived its flags from
the request dataclasses, so the derivation is held to what the
hand-written flags did:

* for each argv in :data:`ARGVS`, the ``request.to_dict()`` the command
  hands to ``repro.api`` (captured by patching the facade call to record
  the request and stop before anything runs).  Together the argv lists
  use every request-backed flag, global options before the subcommand,
  ``--seed`` after it, repeated ``--faults``, ``--no-capacity-bound`` and
  sweeps whose tensor-parallel and serving grids skip some of the models
  (the request keeps every model the flags name; the grid skips them);
* for each of the four subcommands, the sorted per-option blocks of its
  ``--help`` at a fixed width (option order in the listing is free; each
  option's spelling, metavar, choices and help text are not).

Regenerate the file only for an intentional CLI change::

    PYTHONPATH=src python tests/golden/regenerate.py cli-requests

The module imports no pytest, so the regenerate script can reuse it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
from unittest import mock

from repro import api
from repro.cli import main

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "cli_requests.json"

#: Subcommands whose flags become request fields.
SUBCOMMANDS = ("serve", "fleet", "sweep", "optimize")
#: The facade calls those subcommands end in.
FACADE_CALLS = ("simulate", "fleet", "sweep", "optimize")
#: Terminal width the help blocks are rendered at.
HELP_COLUMNS = "100"

CRASH = "replica-crash:at_s=1,duration_s=2,replica=1"
SLOW = "slow-node:mttf_s=4,duration_s=1,magnitude=2"
CROWD = "flash-crowd:start_s=1,duration_s=3,magnitude=3"

ARGVS: tuple[tuple[str, ...], ...] = (
    ("serve",),
    ("--batch", "4", "--input-tokens", "128", "--output-tokens", "32",
     "--llm", "llama2-7b", "--seed", "3",
     "serve", "--design", "design-b", "--scenario", "llm-serving",
     "--trace", "bursty", "--rate", "16", "--requests", "50",
     "--scheduler", "decode-priority", "--max-batch", "16", "--bucket", "128",
     "--devices", "2", "--precision", "bf16", "--slo-ttft", "2.5",
     "--slo-tpot", "0.05"),
    ("--llm", "llama2-7b", "--seed", "1",
     "serve", "--replicas", "3", "--router", "least-kv-pressure",
     "--autoscaler", "queue-depth", "--min-replicas", "2", "--seed", "9",
     "--faults", CRASH, "--faults", SLOW, "--overlay", CROWD),
    ("--llm", "llama2-7b", "serve", "--fidelity", "fluid", "--rate", "0.5",
     "--requests", "5000", "--replicas", "2"),
    ("fleet", "--rate", "8"),
    ("--llm", "llama2-7b", "--batch", "2", "--input-tokens", "64",
     "--output-tokens", "16",
     "fleet", "--design", "design-b", "--scenario", "llm-serving",
     "--rate", "12", "--attainment", "0.8", "--max-replicas", "4",
     "--requests", "40", "--trace", "diurnal",
     "--scheduler", "shortest-prompt-first", "--router", "round-robin",
     "--max-batch", "16", "--precision", "bf16", "--slo-ttft", "2",
     "--slo-tpot", "0.2", "--seed", "7", "--fidelity", "fluid"),
    ("--seed", "5", "--llm", "llama2-7b",
     "fleet", "--rate", "4", "--faults", CRASH, "--overlay", CROWD),
    ("sweep",),
    ("--input-tokens", "64", "--output-tokens", "16", "--resolution", "256",
     "--steps", "2", "--seed", "4",
     "sweep", "--designs", "baseline", "design-a",
     "--models", "gpt3-30b", "dit-xl-2", "mixtral-8x7b",
     "--scenarios", "llm-serving", "dit-sampling", "moe-serving",
     "--precisions", "int8", "--batches", "2", "4", "--devices", "1", "2",
     "--workers", "2"),
    ("sweep", "--models", "llama2-7b", "dit-xl-2", "mixtral-8x7b",
     "--designs", "design-a", "--devices", "2", "--parallelism", "tensor"),
    ("--seed", "3",
     "sweep", "--models", "llama2-7b", "dit-xl-2", "--designs", "baseline",
     "--precisions", "int8", "--batches", "2",
     "--schedulers", "fcfs", "decode-priority", "--arrival-rates", "4", "8",
     "--trace", "bursty", "--trace-requests", "40",
     "--routers", "least-kv-pressure", "round-robin",
     "--replica-counts", "1", "2", "--autoscaler", "queue-depth"),
    ("optimize",),
    ("--llm", "llama2-7b", "--input-tokens", "64", "--output-tokens", "16",
     "optimize", "--designs", "baseline", "design-a",
     "--precisions", "int8", "bf16", "--schedulers", "fcfs", "decode-priority",
     "--routers", "round-robin", "least-kv-pressure",
     "--autoscalers", "fixed", "queue-depth", "--replica-counts", "2", "3",
     "--max-batches", "16", "32",
     "--objectives", "cost-per-million-tokens", "p99-tpot",
     "--constraints", "slo>=0.5", "fit", "--strategy", "exhaustive",
     "--budget", "6", "--rate", "24", "--requests", "120", "--trace", "bursty",
     "--scenario", "llm-serving", "--slo-ttft", "1.5", "--slo-tpot", "0.08",
     "--seed", "7", "--no-capacity-bound"),
    ("--seed", "11", "--llm", "llama2-13b",
     "optimize", "--rate", "12", "--replica-counts", "1",
     "--faults", CRASH, "--faults", SLOW, "--overlay", CROWD),
)


class _Sent(Exception):
    """Raised by the patched facade call; carries the request it got."""


def _record(request, **_):
    raise _Sent(request)


def sent_request(argv) -> dict:
    """The ``to_dict()`` of the request ``repro-sim argv`` hands to the API."""
    patches = {name: _record for name in FACADE_CALLS}
    with mock.patch.multiple(api, **patches), \
            contextlib.redirect_stdout(io.StringIO()):
        try:
            main(list(argv))
        except _Sent as sent:
            return sent.args[0].to_dict()
    raise AssertionError(f"repro-sim {' '.join(argv)} never reached repro.api")


def help_blocks(subcommand: str) -> list[str]:
    """Sorted per-option blocks of ``repro-sim SUBCOMMAND --help``."""
    text = io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": HELP_COLUMNS}), \
            contextlib.redirect_stdout(text):
        try:
            main([subcommand, "--help"])
        except SystemExit:
            pass
    lines = text.getvalue().split("\n\noptions:\n", 1)[1].splitlines()
    blocks: list[list[str]] = []
    for line in lines:
        if not line.strip():
            break
        if line.startswith("  -"):
            blocks.append([line])
        else:
            blocks[-1].append(line)
    return sorted("\n".join(block) for block in blocks)


def golden_payload() -> dict:
    """The file's content as the current CLI produces it."""
    return {
        "description": "request.to_dict() each argv hands to repro.api, and "
                       f"the sorted --help option blocks at {HELP_COLUMNS} "
                       "columns, per request-backed subcommand",
        "requests": [{"argv": list(argv), "request": sent_request(argv)}
                     for argv in ARGVS],
        "help": {name: help_blocks(name) for name in SUBCOMMANDS},
    }


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_argvs_map_to_the_pinned_requests():
    golden = load_golden()["requests"]
    assert [case["argv"] for case in golden] == [list(a) for a in ARGVS]
    for case in golden:
        assert sent_request(case["argv"]) == case["request"], case["argv"]


def test_help_blocks_are_pinned():
    golden = load_golden()["help"]
    assert sorted(golden) == sorted(SUBCOMMANDS)
    for name in SUBCOMMANDS:
        assert help_blocks(name) == golden[name], name
