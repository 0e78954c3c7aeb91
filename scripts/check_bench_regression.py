#!/usr/bin/env python
"""Benchmark-regression gate: fresh BENCH_*.json vs. committed baselines.

The benchmark suite writes machine-readable perf records at the repository
root (``BENCH_sweep.json``, ``BENCH_serving.json``,
``BENCH_serving_scale.json``, ``BENCH_cluster.json``,
``BENCH_optimize.json``, ``BENCH_faults.json``, ``BENCH_obs.json``,
``BENCH_gateway.json``);
this script compares them against the copies committed under
``benchmarks/baselines/`` and turns the comparison into a CI verdict:

* **wall-time metrics** regress when the fresh value exceeds
  ``baseline * (1 + threshold)`` *and* ``baseline + absolute floor`` — the
  floor keeps millisecond-scale timings (e.g. the fully cached re-sweep)
  from tripping the gate on scheduler noise.  The default thresholds fail
  at >25 % and warn at >10 %; CI passes wider ones because hosted runners
  are not the machine the baselines were recorded on.
* **cache-hit-rate metrics** regress on an *absolute* drop (default: fail
  below baseline − 0.02, warn below baseline − 0.005) — hit rates are what
  make the wall-times possible, so they are gated directly.
* **count metrics** (e.g. graph simulations of a cached re-sweep) fail
  whenever the fresh value exceeds the baseline at all: a cached re-sweep
  that starts simulating again is a correctness bug, not noise.
* **throughput metrics** (e.g. requests simulated per wall-second) are
  wall-times upside down: they regress on the slowdown a drop is worth,
  ``baseline / fresh - 1`` (infinite for a fresh 0), gated with the same
  relative thresholds, so a threshold means the same thing for both kinds
  (at 0.25, a throughput fails once it falls by 20 %).
* **overhead metrics** (the telemetry enabled-overhead fraction) gate
  against an *absolute* ceiling (fail at >= 0.05, warn at >= 0.035),
  not a baseline ratio — the 5 % budget is part of the telemetry
  contract (``src/repro/obs``), so creeping toward it from a tiny
  baseline must not read as "within 25 % of before".

Regenerating the baselines after an intentional perf change::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_sweep_engine.py \\
        benchmarks/bench_serving.py benchmarks/bench_cluster.py
    python scripts/check_bench_regression.py --update

then commit the refreshed ``benchmarks/baselines/*.json`` and justify the
shift in the commit message (see CONTRIBUTING.md).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import sys
from dataclasses import dataclass

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Metric:
    """One gated value inside a benchmark record."""

    path: str            # dotted key path inside the JSON record
    kind: str            # "wall" | "rate" | "count"

    def read(self, record: dict) -> float:
        value: object = record
        for key in self.path.split("."):
            if not isinstance(value, dict) or key not in value:
                raise KeyError(f"metric '{self.path}' missing from record")
            value = value[key]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise TypeError(f"metric '{self.path}' is not numeric: {value!r}")
        return float(value)


#: The gated benchmark files and the metrics compared in each.
BENCH_METRICS: dict[str, tuple[Metric, ...]] = {
    "BENCH_sweep.json": (
        Metric("serial_wall_seconds", "wall"),
        Metric("parallel_wall_seconds", "wall"),
        Metric("cached_wall_seconds", "wall"),
        Metric("cached_resweep_simulations", "count"),
    ),
    "BENCH_serving.json": (
        Metric("wall_seconds", "wall"),
        Metric("cache_hit_rate", "rate"),
        Metric("cold_pricing.wall_seconds", "wall"),
        Metric("cold_pricing.graph_evals", "count"),
        Metric("cold_pricing.matmul_maps", "count"),
        Metric("cold_pricing.mapping_candidates", "count"),
    ),
    "BENCH_serving_scale.json": (
        Metric("exact.wall_seconds", "wall"),
        Metric("exact.requests_per_wall_second", "throughput"),
        Metric("exact.cache_hit_rate", "rate"),
        Metric("fluid.speedup_vs_exact", "throughput"),
    ),
    "BENCH_cluster.json": (
        Metric("wall_seconds", "wall"),
        Metric("cache_hit_rate", "rate"),
        Metric("realistic.wall_seconds", "wall"),
        Metric("realistic.requests_per_wall_second", "throughput"),
        Metric("realistic.fleet_views", "count"),
        Metric("realistic.routable_rebuilds", "count"),
        Metric("realistic.view_builds", "count"),
        Metric("realistic.request_post_inits", "count"),
        Metric("realistic.meets_calls", "count"),
        Metric("realistic.slo_debt_calls", "count"),
    ),
    "BENCH_optimize.json": (
        Metric("cold_wall_seconds", "wall"),
        Metric("warm_wall_seconds", "wall"),
        Metric("warm_simulations", "count"),
    ),
    "BENCH_faults.json": (
        Metric("wall_seconds", "wall"),
        Metric("cache_hit_rate", "rate"),
        Metric("shed_requests", "count"),
    ),
    "BENCH_obs.json": (
        Metric("overhead_fraction", "overhead"),
    ),
    "BENCH_gateway.json": (
        Metric("cold_wall_seconds", "wall"),
        Metric("warm_wall_seconds", "wall"),
        Metric("warm_simulations", "count"),
        Metric("warm_hit_rate", "rate"),
    ),
}

#: Wall-time regressions below this absolute delta (seconds) never gate.
WALL_ABSOLUTE_FLOOR_S = 0.25

#: Overhead metrics gate on these absolute ceilings (not baseline ratios):
#: the telemetry contract's enabled-overhead budget and its early warning.
OVERHEAD_FAIL_CEILING = 0.05
OVERHEAD_WARN_CEILING = 0.035


def compare(name: str, metric: Metric, fresh: float, base: float,
            fail_threshold: float, warn_threshold: float) -> tuple[str, str]:
    """Return (verdict, detail) for one metric; verdict in ok/warn/fail."""
    if metric.kind == "wall":
        # The absolute noise floor applies BEFORE any relative comparison:
        # a sub-floor delta never gates, however large the ratio — which is
        # what keeps zero/near-zero baselines (the fully cached re-sweep
        # records wall-times of milliseconds, sometimes 0.0) from dividing
        # their way into a spurious verdict, or into a ZeroDivisionError.
        delta = fresh - base
        if base > 0:
            detail = f"{base:.3f}s -> {fresh:.3f}s ({delta / base:+.1%})"
        else:
            detail = f"{base:.3f}s -> {fresh:.3f}s (zero baseline, absolute gate)"
        if delta <= WALL_ABSOLUTE_FLOOR_S / 2:
            return "ok", detail
        # Past the floor, a missing/zero baseline means any regression is
        # infinitely relative — gate on the absolute delta alone.
        ratio = (delta / base) if base > 0 else float("inf")
        if delta > WALL_ABSOLUTE_FLOOR_S and ratio > fail_threshold:
            return "fail", detail
        if ratio > warn_threshold:
            return "warn", detail
        return "ok", detail
    if metric.kind == "rate":
        drop = base - fresh
        detail = f"{base:.4f} -> {fresh:.4f} ({-drop:+.4f})"
        if drop > 0.02:
            return "fail", detail
        if drop > 0.005:
            return "warn", detail
        return "ok", detail
    if metric.kind == "throughput":
        # Inverted wall-time: gate the equivalent slowdown, not the relative
        # drop, which never exceeds 1.0 and so could never pass CI's wider
        # fail threshold.  No absolute floor — these are large numbers
        # (hundreds of thousands of requests per wall-second), never near
        # zero.
        if fresh > 0:
            slowdown = base / fresh - 1.0
        else:
            slowdown = float("inf") if base > 0 else 0.0
        detail = f"{base:,.0f} -> {fresh:,.0f} (slowdown {slowdown:+.1%})"
        if slowdown > fail_threshold:
            return "fail", detail
        if slowdown > warn_threshold:
            return "warn", detail
        return "ok", detail
    if metric.kind == "count":
        detail = f"{base:.0f} -> {fresh:.0f}"
        return ("fail" if fresh > base else "ok"), detail
    if metric.kind == "overhead":
        # Absolute ceiling, baseline shown for context only: the budget
        # is a contract, not a trajectory.
        detail = (f"{base:+.2%} -> {fresh:+.2%} "
                  f"(ceiling {OVERHEAD_FAIL_CEILING:.0%})")
        if fresh >= OVERHEAD_FAIL_CEILING:
            return "fail", detail
        if fresh >= OVERHEAD_WARN_CEILING:
            return "warn", detail
        return "ok", detail
    raise ValueError(f"unknown metric kind '{metric.kind}'")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="compare fresh BENCH_*.json records against committed "
                    "baselines and fail on wall-time/cache regressions")
    parser.add_argument("--bench-dir", type=pathlib.Path, default=REPO_ROOT,
                        help="directory holding the fresh BENCH_*.json files "
                             "(default: repository root)")
    parser.add_argument("--baseline-dir", type=pathlib.Path,
                        default=REPO_ROOT / "benchmarks" / "baselines",
                        help="directory holding the committed baselines")
    parser.add_argument("--fail-threshold", type=float, default=0.25,
                        help="relative wall-time regression that fails "
                             "(default 0.25 = +25%%)")
    parser.add_argument("--warn-threshold", type=float, default=0.10,
                        help="relative wall-time regression that warns "
                             "(default 0.10 = +10%%)")
    parser.add_argument("--update", action="store_true",
                        help="copy the fresh records over the baselines "
                             "instead of comparing")
    args = parser.parse_args(argv)

    if args.warn_threshold > args.fail_threshold:
        parser.error("--warn-threshold must not exceed --fail-threshold")

    if args.update:
        args.baseline_dir.mkdir(parents=True, exist_ok=True)
        for name in BENCH_METRICS:
            source = args.bench_dir / name
            if not source.exists():
                print(f"SKIP  {name}: no fresh record at {source}")
                continue
            shutil.copyfile(source, args.baseline_dir / name)
            print(f"WROTE {args.baseline_dir / name}")
        return 0

    failures = warnings = 0
    for name, metrics in BENCH_METRICS.items():
        fresh_path = args.bench_dir / name
        base_path = args.baseline_dir / name
        if not fresh_path.exists():
            print(f"FAIL  {name}: fresh record missing at {fresh_path} "
                  "(run the benchmark suite first)")
            failures += 1
            continue
        if not base_path.exists():
            print(f"FAIL  {name}: no committed baseline at {base_path} "
                  "(run with --update and commit it)")
            failures += 1
            continue
        fresh = json.loads(fresh_path.read_text(encoding="utf-8"))
        base = json.loads(base_path.read_text(encoding="utf-8"))
        for metric in metrics:
            try:
                verdict, detail = compare(name, metric, metric.read(fresh),
                                          metric.read(base),
                                          args.fail_threshold, args.warn_threshold)
            except (KeyError, TypeError) as error:
                print(f"FAIL  {name}:{metric.path}: {error}")
                failures += 1
                continue
            label = {"ok": "OK   ", "warn": "WARN ", "fail": "FAIL "}[verdict]
            print(f"{label} {name}:{metric.path}: {detail}")
            failures += verdict == "fail"
            warnings += verdict == "warn"

    print(f"benchmark regression check: {failures} failure(s), "
          f"{warnings} warning(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
