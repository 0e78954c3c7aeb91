#!/usr/bin/env python
"""Regenerate the golden files from the current model.

Run this only when a change *intentionally* shifts the reproduction's
numbers or the trace schema; the diff of the golden file then documents
exactly what moved::

    PYTHONPATH=src python tests/golden/regenerate.py

Covers ``table_iv.json`` (the paper reproduction), ``chrome_trace.json``
(the pinned Chrome trace-event export schema), ``serving_reports.json``
(report digests), ``payloads.json`` (sweep rows, a frontier, a fleet
plan and the response envelopes), ``fleet_routing.json`` (the routing
of a heterogeneous fleet, integers only, so one digest set serves every
interpreter), ``cli_requests.json`` (the request each CLI argv hands
to ``repro.api`` and the subcommands' option help),
``fingerprint_versions.json`` (each store version with the definitions
that feed it; a changed one under an unchanged version is refused),
``step_prices.json`` (the ``repr`` of cold step prices, graph operators
and mapping candidates) and ``store_keys.json`` (the keys fleet plans
and co-design searches store under, one set for every interpreter).
The report, payload and step-price goldens depend on the interpreter's
float ``sum()``, and a run writes only its own interpreter's set, so
after an intentional change regenerate them under Python 3.11 and 3.12::

    PYTHONPATH=src python3.11 tests/golden/regenerate.py serving-reports
    PYTHONPATH=src python3.12 tests/golden/regenerate.py serving-reports
    PYTHONPATH=src python3.11 tests/golden/regenerate.py payloads
    PYTHONPATH=src python3.12 tests/golden/regenerate.py payloads
    PYTHONPATH=src python3.11 tests/golden/regenerate.py step-prices
    PYTHONPATH=src python3.12 tests/golden/regenerate.py step-prices
    PYTHONPATH=src python tests/golden/regenerate.py fleet-routing
    PYTHONPATH=src python tests/golden/regenerate.py cli-requests
    PYTHONPATH=src python tests/golden/regenerate.py fingerprint-versions
    PYTHONPATH=src python tests/golden/regenerate.py store-keys
"""

from __future__ import annotations

import json
import pathlib
import sys

from repro.core.explorer import ArchitectureExplorer
from repro.core.simulator import DiTInferenceSettings, LLMInferenceSettings
from repro.obs.export import chrome_trace_dict

GOLDEN_PATH = pathlib.Path(__file__).parent / "table_iv.json"
TRACE_GOLDEN_PATH = pathlib.Path(__file__).parent / "chrome_trace.json"
REPORTS_GOLDEN_PATH = pathlib.Path(__file__).parent / "serving_reports.json"
PAYLOADS_GOLDEN_PATH = pathlib.Path(__file__).parent / "payloads.json"
ROUTING_GOLDEN_PATH = pathlib.Path(__file__).parent / "fleet_routing.json"
CLI_GOLDEN_PATH = pathlib.Path(__file__).parent / "cli_requests.json"
FINGERPRINT_GOLDEN_PATH = pathlib.Path(__file__).parent / "fingerprint_versions.json"
STEP_PRICES_GOLDEN_PATH = pathlib.Path(__file__).parent / "step_prices.json"
STORE_KEYS_GOLDEN_PATH = pathlib.Path(__file__).parent / "store_keys.json"
# The golden tests live one directory up and import no pytest at module level.
sys.path.insert(0, str(pathlib.Path(__file__).parent.parent))


def write_serving_reports() -> None:
    """Rewrite this interpreter's digest set, keeping the other one."""
    from test_golden_serving_reports import report_digests, summation

    golden = {"description": "sha256 of json.dumps(report.to_dict()) with "
                             "and without rows, per float summation of sum()",
              "digests": {}}
    if REPORTS_GOLDEN_PATH.exists():
        golden = json.loads(REPORTS_GOLDEN_PATH.read_text(encoding="utf-8"))
    golden["digests"][summation()] = report_digests()
    golden["digests"] = dict(sorted(golden["digests"].items()))
    REPORTS_GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n",
                                   encoding="utf-8")
    print(f"wrote {REPORTS_GOLDEN_PATH} ({summation()} summation, "
          f"{len(golden['digests'][summation()])} reports)")


def write_payloads() -> None:
    """Rewrite this interpreter's payload digest set, keeping the other one."""
    from test_golden_payloads import payload_digests, summation

    golden = {"description": "sha256 of json.dumps of sweep rows, a Pareto "
                             "frontier, a fleet plan and one response "
                             "envelope per kind, per float summation of sum()",
              "digests": {}}
    if PAYLOADS_GOLDEN_PATH.exists():
        golden = json.loads(PAYLOADS_GOLDEN_PATH.read_text(encoding="utf-8"))
    golden["digests"][summation()] = payload_digests()
    golden["digests"] = dict(sorted(golden["digests"].items()))
    PAYLOADS_GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n",
                                    encoding="utf-8")
    print(f"wrote {PAYLOADS_GOLDEN_PATH} ({summation()} summation, "
          f"{len(golden['digests'][summation()])} payloads)")


def write_step_prices() -> None:
    """Rewrite this interpreter's step-price set, keeping the other one."""
    from test_golden_step_prices import snapshot, summation

    golden = {"description": "repr of cold llama2-7b step prices, a DiT block "
                             "and an MoE layer operator by operator, and "
                             "every candidate of two mapped matmuls, per "
                             "float summation of sum()",
              "sets": {}}
    if STEP_PRICES_GOLDEN_PATH.exists():
        golden = json.loads(STEP_PRICES_GOLDEN_PATH.read_text(encoding="utf-8"))
    golden["sets"][summation()] = snapshot()
    golden["sets"] = dict(sorted(golden["sets"].items()))
    STEP_PRICES_GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n",
                                       encoding="utf-8")
    print(f"wrote {STEP_PRICES_GOLDEN_PATH} ({summation()} summation, "
          f"{len(golden['sets'][summation()]['step_prices'])} step prices)")


def write_fleet_routing() -> None:
    """Rewrite the heterogeneous fleet's routing digests."""
    from test_golden_fleet_routing import routing_digests

    golden = {"description": "sha256 of json.dumps of each case's route and "
                             "reroute replicas and per-replica "
                             "requests_routed and cost_cache_* counts",
              "digests": routing_digests()}
    ROUTING_GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n",
                                   encoding="utf-8")
    print(f"wrote {ROUTING_GOLDEN_PATH} ({len(golden['digests'])} routings)")


def write_cli_requests() -> None:
    """Rewrite the CLI argv -> request mapping and the option help."""
    from test_golden_cli_requests import golden_payload

    golden = golden_payload()
    CLI_GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n",
                               encoding="utf-8")
    print(f"wrote {CLI_GOLDEN_PATH} ({len(golden['requests'])} requests)")


def write_fingerprint_versions() -> None:
    """Rewrite the fingerprint contracts; refuse a change left unbumped."""
    from test_fingerprint_versions import snapshot, unbumped

    live = snapshot()
    recorded = json.loads(FINGERPRINT_GOLDEN_PATH.read_text(encoding="utf-8"))
    if problems := unbumped(recorded["contracts"], live):
        raise SystemExit("\n".join(problems))
    golden = {"description": "each version with the definitions that feed it",
              "contracts": live}
    FINGERPRINT_GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n",
                                       encoding="utf-8")
    print(f"wrote {FINGERPRINT_GOLDEN_PATH} ({len(live)} contracts)")


def write_store_keys() -> None:
    """Rewrite the store keys of the fleet plans and co-design searches."""
    from test_golden_store_keys import store_keys

    golden = {"description": "sorted [kind, key] pairs each fleet plan and "
                             "co-design search writes into a fresh store",
              "keys": store_keys()}
    STORE_KEYS_GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n",
                                      encoding="utf-8")
    print(f"wrote {STORE_KEYS_GOLDEN_PATH} ({len(golden['keys'])} cases)")


def main() -> None:
    explorer = ArchitectureExplorer(
        llm_settings=LLMInferenceSettings(batch=8, input_tokens=1024, output_tokens=512,
                                          decode_kv_samples=4),
        dit_settings=DiTInferenceSettings(batch=8, image_resolution=512, sampling_steps=50))
    rows = explorer.explore()
    golden = {
        "description": "Table IV / Fig. 7 exploration at paper settings "
                       "(GPT-3-30B 1024+512 tokens batch 8, DiT-XL/2 512px 50 steps, INT8)",
        "rows": [
            {"design": row.design, "workload": row.workload, "peak_tops": row.peak_tops,
             "latency_seconds": row.latency_seconds,
             "mxu_energy_joules": row.mxu_energy_joules,
             "latency_vs_baseline": row.latency_vs_baseline,
             "energy_saving_vs_baseline": row.energy_saving_vs_baseline}
            for row in rows
        ],
        "best_design": {
            workload: {"design": best.design,
                       "latency_vs_baseline": best.latency_vs_baseline,
                       "energy_saving_vs_baseline": best.energy_saving_vs_baseline}
            for workload, best in (
                ("llm", explorer.best_design(rows, "llm", max_latency_increase=0.25)),
                ("dit", explorer.best_design(rows, "dit", max_latency_increase=0.25)))
        },
    }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH} ({len(golden['rows'])} rows)")

    # The trace golden is generated from the same synthetic telemetry the
    # schema tests build, so the two can never drift apart.
    from test_obs import synthetic_telemetry
    trace = chrome_trace_dict(synthetic_telemetry())
    TRACE_GOLDEN_PATH.write_text(json.dumps(trace, indent=2, sort_keys=True)
                                 + "\n", encoding="utf-8")
    print(f"wrote {TRACE_GOLDEN_PATH} "
          f"({len(trace['traceEvents'])} trace events)")
    write_serving_reports()
    write_payloads()
    write_step_prices()
    write_fleet_routing()
    write_cli_requests()
    write_fingerprint_versions()
    write_store_keys()


if __name__ == "__main__":
    if sys.argv[1:] == ["serving-reports"]:
        write_serving_reports()
    elif sys.argv[1:] == ["payloads"]:
        write_payloads()
    elif sys.argv[1:] == ["step-prices"]:
        write_step_prices()
    elif sys.argv[1:] == ["fleet-routing"]:
        write_fleet_routing()
    elif sys.argv[1:] == ["cli-requests"]:
        write_cli_requests()
    elif sys.argv[1:] == ["fingerprint-versions"]:
        write_fingerprint_versions()
    elif sys.argv[1:] == ["store-keys"]:
        write_store_keys()
    else:
        main()
