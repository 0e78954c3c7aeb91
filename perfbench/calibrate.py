"""Regenerate the benchmark's stored inputs.

Usage (from the root of a checkout)::

    python3 perfbench/calibrate.py            # rewrite expected_digests.json
    python3 perfbench/calibrate.py --rates    # print fluid capacities

``expected_digests.json`` holds the digest of every op the default seed
runs at the benchmark's ``run_seconds`` (per catalogue entry on
gateway-zipf, whose entries are simulated in-process here: the gateway
must answer byte-identically).  Regenerate it only for an intended change
of simulated results, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402


def digests() -> dict[str, list[str]]:
    from repro.api import request_from_dict, run

    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    table = {}
    for name, workload in wl.WORKLOADS.items():
        if workload.gateway:
            payloads = wl.catalogue(wl.DEFAULT_SEED)
        else:
            payloads = [workload.payload(wl.DEFAULT_SEED, index)
                        for index in range(workload.op_count(seconds))]
        table[name] = []
        for payload in payloads:
            response = run(request_from_dict(payload))
            body = (response.report if payload["kind"] == "simulate"
                    else response.frontier)
            table[name].append(wl.digest(payload["kind"], body))
        print(f"{name}: {len(table[name])} digests", file=sys.stderr)
    return table


def fluid_capacities() -> None:
    """Per-replica rate at which the fluid estimator's utilisation hits 0.99."""
    from repro.api import simulate, SimulateRequest

    for design, precision in wl.SERVE_LOAD:
        low, high = 1e-4, 2.0
        for _ in range(40):
            rate = (low * high) ** 0.5
            payload = dict(wl.serve_payload((design, precision, 1), 0),
                           rate=rate, fidelity="fluid")
            payload.pop("kind")
            report = simulate(SimulateRequest(**payload)).report
            low, high = (rate, high) if report["utilisation"] < 0.99 else (low, rate)
        print(f"{design} {precision}: {low:.5f} req/s per replica")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rates", action="store_true",
                        help="print fluid capacity estimates instead")
    if parser.parse_args().rates:
        fluid_capacities()
        return 0
    table = digests()
    (HERE / "expected_digests.json").write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
