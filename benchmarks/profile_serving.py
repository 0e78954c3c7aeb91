#!/usr/bin/env python
"""Profile the serving event core over a large trace.

The profiling harness behind the heap-core optimisation work: replays a
configurable Poisson trace through :class:`~repro.serving.simulator.
ServingSimulator` under ``cProfile``, prints the top functions by
cumulative and by total (self) time, and dumps the raw ``.pstats``
artifact for interactive digging::

    PYTHONPATH=src python benchmarks/profile_serving.py --requests 100000
    python -m pstats serving_profile.pstats

The trace is generated and the step-cost memo warmed *outside* the
profiled region, so the profile shows the event loop itself — the thing
the day-scale gate in ``bench_serving_scale.py`` times — not trace
construction or first-touch analytical pricing.  ``repro-sim serve
--profile`` wraps the same machinery around a one-off CLI run instead.
"""

from __future__ import annotations

import argparse
import cProfile
import pathlib
import pstats
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.core.designs import PREDEFINED_DESIGNS  # noqa: E402
from repro.serving.metrics import SLO  # noqa: E402
from repro.serving.simulator import ServingSimulator  # noqa: E402
from repro.serving.trace import generate_trace  # noqa: E402
from repro.workloads.chat import DEFAULT_REQUEST_MIX  # noqa: E402
from repro.workloads.llm import GPT3_30B  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="cProfile the serving event core over a Poisson trace")
    parser.add_argument("--design", default="design-a",
                        choices=sorted(PREDEFINED_DESIGNS))
    parser.add_argument("--requests", type=int, default=100_000,
                        help="trace length (default 100000)")
    parser.add_argument("--rate", type=float, default=32.0,
                        help="arrival rate in requests/s (default 32)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--bucket", type=int, default=512,
                        help="step-cost context bucket in tokens (default 512)")
    parser.add_argument("--collect-requests", action="store_true",
                        help="keep per-request metric rows (default: "
                             "aggregate-only, the day-scale configuration)")
    parser.add_argument("--top", type=int, default=25,
                        help="rows per ranking printed (default 25)")
    parser.add_argument("--out", default="serving_profile.pstats",
                        help="where the .pstats artifact lands "
                             "(default serving_profile.pstats)")
    args = parser.parse_args(argv)

    trace = generate_trace("poisson", DEFAULT_REQUEST_MIX, args.rate,
                           args.requests, args.seed)
    simulator = ServingSimulator(GPT3_30B, PREDEFINED_DESIGNS[args.design],
                                 bucket_tokens=args.bucket)
    # Warm the memo and pin the deployment: the profile should be the
    # event loop, not one-time pricing or the deployment-planning scan.
    warm = min(2000, args.requests)
    simulator.run(trace[:warm], collect_requests=False)
    devices = simulator.plan_devices(trace)

    profiler = cProfile.Profile()
    profiler.enable()
    report = simulator.run(trace, slo=SLO(ttft_s=1.0, tpot_s=0.1),
                           devices=devices,
                           collect_requests=args.collect_requests)
    profiler.disable()

    print(f"simulated {report.completed} requests "
          f"({report.prefill_steps + report.decode_steps} scheduler steps, "
          f"makespan {report.makespan_s:.0f} s simulated)")
    stats = pstats.Stats(profiler)
    print("\n=== top functions by cumulative time ===")
    stats.sort_stats("cumulative").print_stats(args.top)
    print("\n=== top functions by self time ===")
    stats.sort_stats("tottime").print_stats(args.top)
    stats.dump_stats(args.out)
    print(f"wrote profile data to {args.out} (inspect with `python -m pstats`)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
