"""Command-line interface for the CIM-TPU simulator.

Five subcommands cover the everyday uses of the library without writing any
Python:

``repro-sim compare``
    Fig. 6-style comparison of the baseline TPUv4i and a CIM design on one
    LLM layer (prefill + decode) and one DiT block.
``repro-sim explore``
    The Table IV / Fig. 7 design-space sweep (a thin client of the sweep
    engine; honours the global ``--llm`` model selection).
``repro-sim multi-device``
    Fig. 8-style multi-TPU throughput scaling.
``repro-sim sweep``
    Free-form scenario sweeps over the full grid of (design × model ×
    scenario × precision × batch × device count) points, powered by the
    memoised :class:`~repro.sweep.engine.SweepEngine`.  Supports
    ``--scenarios`` to pick registered scenarios (default: each model's
    own), ``--workers`` for multiprocessing fan-out and ``--json`` /
    ``--csv`` structured export; by default it widens the paper's Table IV
    grid to every registered model (GPT-3-30B/175B, Llama-2-7B/13B,
    Mixtral-8x7B, DiT-XL/2).
``repro-sim serve``
    Discrete-event serving simulation: replay a seeded request trace
    (Poisson/bursty/diurnal arrivals over the scenario's request mix, or a
    JSONL file) through the continuous-batching scheduler and report
    TTFT/TPOT/e2e percentiles, SLO goodput, utilisation and energy per
    token.  ``--replicas N`` lifts the run to a fleet: the trace is routed
    across N replicas by a registered ``--router`` policy under a
    registered ``--autoscaler`` policy, and the report adds per-replica
    breakdowns, the replica-count timeline and cost per million tokens.
    ``--check-determinism`` runs the simulation twice and fails unless the
    reports agree bit-for-bit (the CI reproducibility gate).
``repro-sim fleet``
    Fleet sizing: the smallest replica count whose SLO attainment reaches
    a target at a given request rate, with per-fleet goodput and cost.
``repro-sim optimize``
    Pareto co-design search over the joint (design × precision ×
    scheduler × router × autoscaler × replica count) space under declared
    objectives (cost per million tokens, p99 TTFT/TPOT, energy per token,
    chip-hours) and constraints (``slo>=0.95``, ``fit``, objective
    bounds).  ``--strategy successive-halving`` prunes dominated
    candidates on cheap short traces before re-scoring survivors on the
    full trace; ``--store PATH`` persists every priced point so repeated
    searches perform zero new simulations.
``repro-sim gateway``
    Simulation as a service: serve every engine over HTTP.  ``POST`` a
    JSON request to ``/v1/simulate``, ``/v1/fleet``, ``/v1/sweep``,
    ``/v1/optimize`` or ``/v1/autoconfig-preview``, poll
    ``GET /v1/jobs/<id>`` and fetch ``GET /v1/jobs/<id>/result``.  All
    jobs share one persistent ``--store``, so any request any client has
    run before is served with zero new simulations.
``repro-sim report``
    Text dashboard rendered from a ``--trace-out`` Chrome trace or
    ``--metrics-out`` JSONL file: gauge sparklines (queue depth, batch
    occupancy, KV utilisation, SLO attainment over time), the
    autoscaler/fault action log, span totals and counters.
``repro-sim lint``
    The repro-lint contract checker: AST rules that machine-enforce the
    repo's determinism (RPR001), closed error contract (RPR005) and
    telemetry-discipline (RPR006) invariants, with structured
    ``file:line`` findings and ``--json`` export.
``repro-sim models``
    List the registered model configurations and their memory footprints.
``repro-sim scenarios``
    List the registered inference scenarios and their capabilities.

Global options (``--batch``, ``--input-tokens``, ``--output-tokens``,
``--resolution``, ``--steps``, ``--llm``, ``--seed``) set the workload
scenario; ``-v``/``-vv`` raises diagnostic logging on stderr (results
always stay on stdout); each subcommand adds its own switches.
``serve``, ``sweep`` and ``optimize`` accept ``--trace-out`` (Chrome
trace-event JSON for Perfetto) and ``--metrics-out`` (time-series JSONL);
serving traces are stamped in simulated time, search traces in wall time.  Run
``python -m repro.cli --help`` (or ``repro-sim --help`` once installed) for
the full option set.

``serve``, ``fleet``, ``sweep`` and ``optimize`` are thin clients of the
unified :mod:`repro.api` facade: each builds a frozen request from its
flags, runs it through the same handler the HTTP gateway dispatches to,
and prints from the response envelope — so the CLI, the gateway and
direct Python calls produce byte-identical results for the same spec.
Their request flags are derived from the request's fields (one flag per
field, named after it), and the request's own validation is theirs.
Their shared ``--store PATH`` flag points every surface at the same
persistent result cache.

**Determinism guarantee:** every subcommand is a pure function of its flags.
The simulator itself is analytical (RNG-free); the only randomness anywhere
is the serving-trace generator, which draws from an explicit
``random.Random`` seeded by the global ``--seed`` flag — so two invocations
with identical flags produce bit-for-bit identical output, tables and
exports included.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import pathlib
import signal
import sys
from collections.abc import Sequence

from repro import api as repro_api
from repro.analysis.breakdown import overall_comparison
from repro.api.requests import field_types
from repro.log import configure_logging
from repro.obs import (
    Telemetry,
    load_trace_file,
    render_report,
    write_chrome_trace,
    write_metrics_jsonl,
)
from repro.analysis.capacity import dit_footprint, llm_footprint, plan_capacity
from repro.analysis.report import format_table
from repro.codec import encode
from repro.common import Precision
from repro.core.designs import PREDEFINED_DESIGNS, tpuv4i_baseline
from repro.core.explorer import ArchitectureExplorer
from repro.core.simulator import DiTInferenceSettings, InferenceSimulator, LLMInferenceSettings
from repro.optimize import (
    OBJECTIVE_REGISTRY,
    SEARCH_REGISTRY,
    get_objective,
)
from repro.optimize.pareto import frontier_fieldnames
from repro.serving.autoscaler import AUTOSCALER_REGISTRY
from repro.serving.cluster import ClusterSimulator, ReplicaSummary
from repro.serving.faults import FAULT_REGISTRY
from repro.serving.metrics import RequestMetrics
from repro.serving.router import ROUTER_REGISTRY
from repro.serving.scheduler import SCHEDULER_REGISTRY
from repro.serving.simulator import ServingSimulator
from repro.serving.trace import (
    OVERLAY_REGISTRY,
    TRACE_REGISTRY,
    apply_overlay,
    load_trace_jsonl,
)
from repro.sweep.engine import SweepEngine
from repro.sweep.export import fieldnames_of, write_csv, write_json
from repro.sweep.grid import SweepPoint
from repro.workloads.dit import DIT_XL_2, DiTConfig
from repro.workloads.llm import GPT3_30B, LLMConfig
from repro.workloads.moe import MoEConfig
from repro.workloads.registry import (
    MODEL_REGISTRY,
    SCENARIO_REGISTRY,
    get_model,
    scenario_for,
)

logger = logging.getLogger(__name__)


def _telemetry_from_args(args: argparse.Namespace) -> Telemetry | None:
    """A telemetry sink when the run asked for exports, else None.

    ``None`` keeps instrumented hot paths on their zero-overhead branch;
    interval validation errors surface as usage errors, not tracebacks.
    """
    if not (getattr(args, "trace_out", None) or getattr(args, "metrics_out", None)):
        return None
    try:
        return Telemetry(gauge_interval_s=getattr(args, "gauge_interval", 1.0))
    except ValueError as error:
        raise SystemExit(str(error)) from None


def _export_telemetry(telemetry: Telemetry | None, args: argparse.Namespace,
                      *, time_domain: str) -> None:
    """Write the run's telemetry to the requested trace/metrics files."""
    if telemetry is None:
        return
    try:
        if getattr(args, "trace_out", None):
            path = write_chrome_trace(telemetry, args.trace_out,
                                      time_domain=time_domain)
            print(f"wrote Chrome trace to {path} "
                  "(open in Perfetto / chrome://tracing)")
        if getattr(args, "metrics_out", None):
            path = write_metrics_jsonl(telemetry, args.metrics_out,
                                       time_domain=time_domain)
            print(f"wrote metrics JSONL to {path}")
    except OSError as error:
        raise SystemExit(f"cannot write telemetry: {error}") from None


def _open_store(path: str | None, telemetry: Telemetry | None = None):
    """A validated persistent ResultStore, or ``None`` when no path given.

    The engines only append mid-run, so writability is probed up front: a
    bad ``--store`` path is a clean usage error now, not an engine error
    halfway through a search.
    """
    if not path:
        return None
    from repro.sweep.store import ResultStore

    try:
        store = ResultStore(path, telemetry=telemetry)
        with open(store.path, "ab"):
            pass
    except OSError as error:
        raise SystemExit(f"cannot use result store '{path}': {error}") from None
    return store


def _print_accounting(response, store) -> None:
    """What a run against ``--store`` computed and what the store served."""
    if store is not None:
        print(f"new simulations: {response.new_simulations}; "
              f"served from store: {response.store_hits}")
        print(f"persistent store: {store.path} ({len(store)} entries)")


def _design_config(name: str):
    try:
        return PREDEFINED_DESIGNS[name]
    except KeyError:
        known = ", ".join(sorted(PREDEFINED_DESIGNS))
        raise SystemExit(f"unknown design '{name}'; choose one of: {known}") from None


def _llm(name: str) -> LLMConfig:
    """The registered LLM ``name``; an unknown or non-LLM name is a usage error."""
    try:
        model = get_model(name)
    except KeyError as error:
        raise SystemExit(error.args[0]) from None
    if not isinstance(model, LLMConfig):
        raise SystemExit(f"'{name}' is not an LLM")
    return model


def _request(cls, args: argparse.Namespace):
    """Request ``cls`` from the flags named after its fields.

    The request validates itself; its rejection is the usage error, in
    the API's own words.
    """
    try:
        return cls(**{name: getattr(args, name) for name in field_types(cls)})
    except repro_api.ApiRequestError as error:
        raise SystemExit(error.error.render()) from None


def _llm_settings(args: argparse.Namespace) -> LLMInferenceSettings:
    return LLMInferenceSettings(batch=args.batch, input_tokens=args.input_tokens,
                                output_tokens=args.output_tokens, decode_kv_samples=2)


def _dit_settings(args: argparse.Namespace) -> DiTInferenceSettings:
    return DiTInferenceSettings(batch=args.batch, image_resolution=args.resolution,
                                sampling_steps=args.steps)


# ---------------------------------------------------------------- subcommands
def cmd_compare(args: argparse.Namespace) -> int:
    """Compare the baseline against a CIM design on Fig. 6 workloads."""
    baseline = InferenceSimulator(tpuv4i_baseline())
    candidate = InferenceSimulator(_design_config(args.design))
    llm = _llm(args.llm)
    llm_settings = _llm_settings(args)
    dit_settings = _dit_settings(args)

    panels = {
        f"{llm.name} prefill layer": (
            baseline.simulate_llm_prefill_layer(llm, llm_settings),
            candidate.simulate_llm_prefill_layer(llm, llm_settings)),
        f"{llm.name} decode layer": (
            baseline.simulate_llm_decode_layer(llm, llm_settings),
            candidate.simulate_llm_decode_layer(llm, llm_settings)),
        "dit-xl-2 block": (
            baseline.simulate_dit_block(DIT_XL_2, dit_settings),
            candidate.simulate_dit_block(DIT_XL_2, dit_settings)),
    }
    rows = []
    for name, (base, cand) in panels.items():
        headline = overall_comparison(base, cand)
        rows.append([name,
                     f"{headline['baseline_latency_s'] * 1e3:.2f} ms",
                     f"{headline['candidate_latency_s'] * 1e3:.2f} ms",
                     f"{headline['latency_change_percent']:+.1f}%",
                     f"{headline['mxu_energy_reduction_factor']:.1f}x"])
    print(format_table(["workload", "baseline", args.design, "latency change", "MXU energy saving"],
                       rows, title=f"Baseline TPUv4i vs. {args.design}"))
    return 0


def cmd_explore(args: argparse.Namespace) -> int:
    """Run the Table IV / Fig. 7 design-space exploration."""
    llm = _llm(args.llm)
    explorer = ArchitectureExplorer(llm=llm,
                                    llm_settings=_llm_settings(args),
                                    dit_settings=_dit_settings(args),
                                    workers=args.workers)
    rows = explorer.explore()
    table_rows = [[row.design, row.workload, f"{row.peak_tops:.0f}",
                   f"{row.latency_seconds * 1e3:.1f} ms",
                   f"{row.latency_change_percent:+.1f}%",
                   f"{row.energy_saving_vs_baseline:.1f}x"] for row in rows]
    print(format_table(["design", "workload", "peak TOPS", "latency", "vs baseline",
                        "MXU energy saving"],
                       table_rows, title="CIM-MXU design-space exploration"))
    return 0


def cmd_multi_device(args: argparse.Namespace) -> int:
    """Simulate multi-TPU serving throughput (a sweep over the device axis)."""
    config = _design_config(args.design)
    llm = _llm(args.llm)
    settings = _llm_settings(args)
    engine = SweepEngine()
    points = [SweepPoint(design=args.design, config=config, model=llm, settings=settings,
                         devices=devices, parallelism=args.parallelism)
              for devices in args.devices]
    results = engine.sweep(points, workers=args.workers)
    rows = [[result.devices, f"{result.throughput:.1f} tokens/s",
             f"{result.communication_seconds * 1e3:.1f} ms",
             f"{result.energy_per_item * 1e3:.2f} mJ/token"] for result in results]
    print(format_table(["TPUs", "throughput", "ICI time per group", "MXU energy"],
                       rows, title=f"{llm.name} on {args.design} ({args.parallelism} parallel)"))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Sweep the generalized scenario grid and optionally export the rows."""
    request = _request(repro_api.SweepRequest, args)
    grid = request.grid()
    dropped = [model for model in map(get_model, request.models)
               if not grid.scenarios_for(model)]
    # A dropped model the user explicitly asked for is part of the
    # command's answer, not progress narration — it stays on stdout.
    if grid.is_serving:
        if skipped := [m.name for m in dropped if not isinstance(m, LLMConfig)]:
            print("skipping non-LLM models "
                  f"({', '.join(skipped)}); serving is modelled for LLM workloads")
    elif grid.shard_devices > 1:
        if dit := [m.name for m in dropped if isinstance(m, DiTConfig)]:
            print("skipping DiT models under tensor parallelism "
                  f"({', '.join(dit)}); only LLM sharding is modelled")
        if other := [m.name for m in dropped if m.name not in dit]:
            print("skipping models without a tensor-parallel scenario "
                  f"({', '.join(other)})")
    telemetry = _telemetry_from_args(args)
    store = _open_store(args.store, telemetry)
    try:
        response = repro_api.sweep(request, store=store, telemetry=telemetry)
    except repro_api.ApiRequestError as error:
        raise SystemExit(error.error.render()) from None
    results = response.row_objects()

    table_rows = [[result.design, result.workload, result.scenario, result.precision,
                   result.batch, result.devices, result.settings_summary,
                   f"{result.latency_seconds * 1e3:.1f} ms",
                   f"{result.throughput:.2f} {result.item_unit}s/s",
                   f"{result.mxu_energy_joules:.2f} J"] for result in results]
    print(format_table(["design", "model", "scenario", "precision", "batch", "TPUs",
                        "settings", "latency", "throughput", "MXU energy"],
                       table_rows, title="Scenario sweep"))
    stats = response.stats
    print(f"{len(results)} points evaluated with {stats['simulations']} graph simulations "
          f"({stats['graph_hits']} graph-cache hits, {stats['point_hits']} repeated points)")
    _print_accounting(response, store)
    _export_telemetry(telemetry, args, time_domain="wall")
    try:
        if args.json:
            print(f"wrote JSON rows to {write_json(results, args.json)}")
        if args.csv:
            print(f"wrote CSV rows to {write_csv(results, args.csv)}")
    except OSError as error:
        raise SystemExit(f"cannot write results: {error}") from None
    return 0


def _percentile_table(report, title: str) -> str:
    """The TTFT/TPOT/e2e percentile grid shared by serve and cluster runs."""
    def row(name: str, summary) -> list[str]:
        return [name, f"{summary.mean_s * 1e3:.2f} ms", f"{summary.p50_s * 1e3:.2f} ms",
                f"{summary.p95_s * 1e3:.2f} ms", f"{summary.p99_s * 1e3:.2f} ms",
                f"{summary.max_s * 1e3:.2f} ms"]

    return format_table(
        ["metric", "mean", "p50", "p95", "p99", "max"],
        [row("TTFT", report.ttft), row("TPOT", report.tpot), row("e2e", report.e2e)],
        title=title)


def _print_serving_report(report, args: argparse.Namespace, model) -> None:
    """Human-readable output of a single-deployment serving run."""
    print(_percentile_table(
        report,
        title=f"{model.name} on {args.design} x{report.devices} "
              f"({report.scheduler}, {args.trace_file or args.trace} trace, "
              f"seed {args.seed})"))
    print(f"requests: {report.completed}/{report.num_requests} completed, "
          f"{report.rejected} rejected; makespan {report.makespan_s:.1f} s, "
          f"utilisation {report.utilisation * 100:.1f}%")
    print(f"throughput: {report.tokens_per_second:.1f} tokens/s "
          f"({report.requests_per_second:.2f} requests/s); "
          f"energy {report.energy_per_token_joules * 1e3:.3f} mJ/token")
    print(f"SLO ({report.slo.summary()}): {report.slo_attainment * 100:.1f}% attained, "
          f"goodput {report.goodput_tokens_per_second:.1f} tokens/s "
          f"({report.goodput_requests_per_second:.2f} requests/s)")
    print(f"step-cost cache: {report.cost_cache_hit_rate * 100:.2f}% hit rate "
          f"({report.cost_cache_misses} distinct (phase, batch, context-bucket) "
          f"states priced over {report.prefill_steps + report.decode_steps} steps)")


def _print_resilience(report) -> None:
    """Chaos outcome lines of a fleet run under injected faults."""
    resilience = report.resilience
    recovery = ("n/a (no crash)" if resilience.crash_count == 0
                else "never" if resilience.recovery_s == float("inf")
                else f"{resilience.recovery_s:.1f} s")
    print(f"faults: {resilience.fault_count} injected "
          f"({resilience.crash_count} crashes); "
          f"{resilience.disrupted_requests} requests disrupted, "
          f"{resilience.shed_requests} shed")
    print(f"resilience: availability {resilience.availability * 100:.2f}% "
          f"({resilience.downtime_replica_s:.1f} replica-s down), "
          f"recovery to SLO {recovery}, "
          f"SLO debt {resilience.slo_debt_s:.2f} s")
    print(f"goodput under failure: "
          f"{resilience.goodput_under_failure_tokens_per_second:.1f} tokens/s "
          f"({resilience.goodput_under_failure_requests_per_second:.2f} "
          "requests/s, undisrupted SLO-met requests only)")


def _print_cluster_report(report, args: argparse.Namespace, model) -> None:
    """Human-readable output of a fleet run."""
    print(_percentile_table(
        report,
        title=f"{model.name} on {args.design} x{report.fleet_size} replicas "
              f"({report.router} router, {report.autoscaler} autoscaler, "
              f"{args.trace_file or args.trace} trace, seed {args.seed})"))
    replica_rows = [[r.index, r.tpu_name, r.devices, r.requests_routed, r.completed,
                     r.rejected, f"{r.active_s:.1f} s",
                     f"{r.utilisation * 100:.1f}%",
                     f"{r.tokens_per_second:.1f} tokens/s"]
                    for r in report.replicas]
    print(format_table(
        ["replica", "design", "TPUs", "routed", "completed", "rejected",
         "active", "utilisation", "throughput"],
        replica_rows, title="Per-replica breakdown"))
    print(f"requests: {report.completed}/{report.num_requests} completed, "
          f"{report.rejected} rejected; makespan {report.makespan_s:.1f} s, "
          f"fleet utilisation {report.utilisation * 100:.1f}%")
    print(f"replicas: {report.fleet_size} configured, "
          f"peak {report.peak_active_replicas} / mean "
          f"{report.mean_active_replicas:.2f} active "
          f"({len(report.replica_timeline) - 1} scaling events); "
          f"total devices {report.total_devices}")
    print(f"throughput: {report.tokens_per_second:.1f} tokens/s "
          f"({report.requests_per_second:.2f} requests/s); "
          f"energy {report.energy_per_token_joules * 1e3:.3f} mJ/token")
    print(f"SLO ({report.slo.summary()}): {report.slo_attainment * 100:.1f}% attained, "
          f"goodput {report.goodput_tokens_per_second:.1f} tokens/s "
          f"({report.goodput_requests_per_second:.2f} requests/s)")
    print(f"cost: {report.chip_hours:.3f} chip-hours -> "
          f"${report.cost_per_million_tokens_dollars:.3f} per million tokens")
    print(f"step-cost cache: {report.cost_cache_hit_rate * 100:.2f}% hit rate "
          f"across the fleet ({report.cost_cache_misses} distinct states priced)")
    if getattr(args, "faults", None) or report.fault_events:
        _print_resilience(report)


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the discrete-event serving simulator (one deployment or a fleet)."""
    request = _request(repro_api.SimulateRequest, args)
    model, config, settings = request.resolve()
    spec = request.spec()
    if args.trace_file and spec.fidelity == "fluid":
        raise SystemExit("--fidelity fluid prices the scenario's request "
                         "mix; it cannot replay --trace-file (run exact)")
    if args.trace_file and args.store:
        raise SystemExit("--store caches generated-trace runs keyed by their "
                         "spec; --trace-file replays are not stored")
    # Fault injection lives at the routing layer, so a faulted run goes
    # through the cluster simulator even at --replicas 1.
    fleet_run = spec.fleet
    if not fleet_run and (spec.router != "round-robin"
                          or spec.autoscaler != "fixed"
                          or spec.min_replicas != 1):
        logger.warning("--router/--autoscaler/--min-replicas apply only with "
                       "--replicas > 1 (or --faults); running a single "
                       "deployment")
    telemetry = _telemetry_from_args(args)
    store = _open_store(args.store, telemetry)

    def run_direct(tel: Telemetry | None = None):
        """JSONL replay: a local trace file is not part of the API schema."""
        trace = load_trace_jsonl(args.trace_file)
        if spec.overlay is not None:
            trace = apply_overlay(trace, spec.overlay)
        engine_type = ClusterSimulator if fleet_run else ServingSimulator
        engine = engine_type.for_spec(model, config, spec, settings)
        return engine.run(trace, slo=spec.slo, telemetry=tel)

    def run_once(tel: Telemetry | None = None, api_store=None):
        """One full serve pipeline -> (report object, facade response|None)."""
        if args.trace_file:
            return run_direct(tel), None
        resp = repro_api.simulate(request, store=api_store, telemetry=tel)
        return resp.report_object(), resp

    profiler = None
    try:
        if args.profile:
            import cProfile
            profiler = cProfile.Profile()
            profiler.enable()
            try:
                report, response = run_once(telemetry, store)
            finally:
                profiler.disable()
        else:
            report, response = run_once(telemetry, store)
        if args.check_determinism:
            # The repeat run is deliberately untraced and storeless: the
            # check then also proves telemetry never perturbs the simulation
            # (on-vs-off bit-for-bit identity) and, when --store served the
            # first run, that a stored report is bit-for-bit the computed
            # one — not just run-to-run determinism.
            repeat, repeat_response = run_once()
            payload = (report.to_dict() if response is None
                       else dict(response.report))
            repeat_payload = (repeat.to_dict() if repeat_response is None
                              else dict(repeat_response.report))
            if repeat_payload != payload:
                raise SystemExit(
                    "determinism check FAILED: two identical serve invocations "
                    "produced different reports")
    except repro_api.ApiRequestError as error:
        raise SystemExit(error.error.render()) from None
    except (ValueError, OSError) as error:
        # Bad trace files and impossible deployments on the direct replay
        # path; API-path failures arrive structured as ApiRequestError.
        raise SystemExit(str(error)) from None

    if fleet_run:
        _print_cluster_report(report, args, model)
    else:
        _print_serving_report(report, args, model)
    _print_accounting(response, store)
    if args.check_determinism:
        digest = {metric: getattr(report, metric).p99_s
                  for metric in ("ttft", "tpot", "e2e")}
        what = ("traced and untraced runs" if telemetry is not None
                else "two runs")
        print(f"determinism check passed: {what} agree bit-for-bit")
        print(f"stable p99 digest: {json.dumps(digest)}")
    if profiler is not None:
        import pstats
        stats = pstats.Stats(profiler).sort_stats("cumulative")
        print("\nprofile: top functions by cumulative time")
        stats.print_stats(15)
        try:
            stats.dump_stats(args.profile_out)
        except OSError as error:
            raise SystemExit(f"cannot write profile: {error}") from None
        print(f"wrote profile data to {args.profile_out} "
              "(inspect with `python -m pstats`)")
    # Telemetry export sits outside the profiled region, so --profile and
    # --trace-out compose: the profile prices the run only, and the trace
    # is written exactly once however the run was wrapped.
    _export_telemetry(telemetry, args, time_domain="simulated")
    try:
        if args.json:
            path = pathlib.Path(args.json)
            # The API payload convention: fleet reports are row-free (the
            # shared-store shape), so the file matches what /v1/simulate
            # and repro.api.simulate return byte for byte.
            payload = (report.to_dict() if response is None
                       else dict(response.report))
            path.write_text(json.dumps(payload, indent=2) + "\n",
                            encoding="utf-8")
            print(f"wrote serving report to {path}")
        if args.csv:
            if fleet_run:
                path = write_csv(report.replicas, args.csv,
                                 fieldnames=fieldnames_of(ReplicaSummary))
                print(f"wrote per-replica metrics to {path}")
            else:
                path = write_csv(report.requests, args.csv,
                                 fieldnames=fieldnames_of(RequestMetrics))
                print(f"wrote per-request metrics to {path}")
    except OSError as error:
        raise SystemExit(f"cannot write results: {error}") from None
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    """Size a replica fleet for an SLO at a target request rate."""
    store = _open_store(args.store)
    request = _request(repro_api.FleetRequest, args)
    try:
        response = repro_api.fleet(request, store=store)
    except repro_api.ApiRequestError as error:
        raise SystemExit(error.error.render()) from None
    plan = response.plan_object()
    slo = request.spec().slo

    rows = [[evaluation.replicas,
             f"{evaluation.slo_attainment * 100:.1f}%",
             f"{evaluation.p99_ttft_s * 1e3:.0f} ms",
             f"{evaluation.p99_tpot_s * 1e3:.1f} ms",
             f"{evaluation.goodput_requests_per_second:.2f} req/s",
             f"${evaluation.cost_per_million_tokens_dollars:.3f}"]
            for evaluation in plan.evaluations]
    print(format_table(
        ["replicas", "SLO attained", "p99 TTFT", "p99 TPOT", "goodput", "$/Mtok"],
        rows,
        title=f"Fleet sizing: {plan.model_name} on {args.design} at {args.rate:g} req/s "
              f"({slo.summary()}, target {args.attainment * 100:.0f}%)"))
    if plan.met:
        chosen = plan.evaluations[-1]
        print(f"verdict: {plan.replicas} replica(s) meet the SLO target at "
              f"{args.rate:g} req/s "
              f"(attainment {chosen.slo_attainment * 100:.1f}%, "
              f"${chosen.cost_per_million_tokens_dollars:.3f}/Mtok)")
    else:
        print(f"verdict: no fleet up to {args.max_replicas} replicas meets the "
              f"target; best attainment "
              f"{max(e.slo_attainment for e in plan.evaluations) * 100:.1f}%")
    _print_accounting(response, store)
    try:
        if args.json:
            path = pathlib.Path(args.json)
            path.write_text(json.dumps(dict(response.plan), indent=2) + "\n",
                            encoding="utf-8")
            print(f"wrote fleet plan to {path}")
    except OSError as error:
        raise SystemExit(f"cannot write results: {error}") from None
    return 0 if plan.met else 1


def cmd_optimize(args: argparse.Namespace) -> int:
    """Search the co-design space for Pareto-optimal fleet configurations."""
    telemetry = _telemetry_from_args(args)
    store = _open_store(args.store, telemetry)
    request = _request(repro_api.OptimizeRequest, args)
    model = request.resolve_model()
    objectives = request.objective_list()
    try:
        response = repro_api.optimize(request, store=store,
                                      telemetry=telemetry)
    except repro_api.ApiRequestError as error:
        raise SystemExit(error.error.render()) from None
    frontier = response.frontier_object()

    header = ["design", "precision", "replicas", "scheduler", "router",
              "autoscaler"]
    header += [f"{objective.name} [{objective.unit}]" for objective in objectives]
    header += ["SLO attained", "dominates"]
    rows = []
    for point in frontier.points:
        result = point.result
        rows.append([result.design, result.precision, result.replicas,
                     result.scheduler, result.router, result.autoscaler]
                    + [f"{value:.4g}" for value in point.values]
                    + [f"{result.slo_attainment * 100:.1f}%",
                       point.dominated_count])
    title = (f"Pareto frontier: {model.name} at {args.rate:g} req/s "
             f"({frontier.strategy} search, seed {args.seed})")
    print(format_table(header, rows, title=title))
    by_key = {point.result.cache_key: point.result for point in frontier.points}
    for name, cache_key in frontier.extremes:
        best = by_key[cache_key]
        objective = get_objective(name)
        print(f"best {name}: {objective.value(best):.4g} {objective.unit} "
              f"({best.design}/{best.precision} x{best.replicas} "
              f"{best.scheduler}/{best.router}/{best.autoscaler})")
    print(f"searched {frontier.candidates} candidates: "
          f"{len(frontier.points)} on the frontier, "
          f"{frontier.dominated} dominated, "
          f"{frontier.constraint_filtered} constraint-filtered, "
          f"{frontier.strategy_pruned} pruned by the strategy "
          "(short-trace dominated / over budget / unsampled), "
          f"{frontier.infeasible} infeasible "
          f"({frontier.capacity_pruned} below the capacity lower bound)")
    print(f"simulations: {frontier.short_runs} short + {frontier.full_runs} "
          f"full trace; new simulations: {response.new_simulations}; "
          f"served from store: {response.store_hits}")
    if store is not None:
        print(f"persistent store: {store.path} ({len(store)} entries)")
    _export_telemetry(telemetry, args, time_domain="wall")
    try:
        if args.json:
            path = pathlib.Path(args.json)
            path.write_text(json.dumps(dict(response.frontier), indent=2) + "\n",
                            encoding="utf-8")
            print(f"wrote frontier to {path}")
        if args.csv:
            path = write_csv(frontier.rows(), args.csv,
                             fieldnames=frontier_fieldnames())
            print(f"wrote frontier rows to {path}")
    except OSError as error:
        raise SystemExit(f"cannot write results: {error}") from None
    if not frontier.points:
        print("verdict: no feasible candidate satisfies the constraints")
        return 1
    return 0


def cmd_gateway(args: argparse.Namespace) -> int:
    """Serve the simulation API over HTTP (simulation as a service)."""
    from repro.gateway import GatewayServer

    store = _open_store(args.store)
    try:
        server = GatewayServer(store, host=args.host, port=args.port,
                               workers=args.api_workers)
    except OSError as error:
        raise SystemExit(f"cannot bind gateway to {args.host}:{args.port}: "
                         f"{error}") from None
    store_note = (f"; store {store.path} ({len(store)} entries)"
                  if store is not None else "; no --store (runs are not "
                  "shared between submissions)")
    # Stop on SIGINT and SIGTERM whatever their inherited disposition: a
    # shell starts a background job (`cmd &`) with SIGINT ignored, and
    # SIGTERM would otherwise end the process without server.close().
    previous = {signum: signal.signal(signum, signal.default_int_handler)
                for signum in (signal.SIGINT, signal.SIGTERM)}
    try:
        print(f"gateway listening on {server.url}{store_note}", flush=True)
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Render a text dashboard from an exported trace/metrics file."""
    try:
        data = load_trace_file(args.trace_path)
    except OSError as error:
        raise SystemExit(f"cannot read trace: {error}") from None
    except (ValueError, KeyError, TypeError) as error:
        raise SystemExit(f"cannot parse trace '{args.trace_path}': {error}") from None
    print(render_report(data, width=args.width), end="")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the repro-lint contract checker over the tree."""
    from repro import lint as repro_lint

    if args.list_rules:
        rows = [[rule.id, rule.name, rule.description]
                for _, rule in sorted(repro_lint.RULE_REGISTRY.items())]
        rows.insert(0, [repro_lint.META_RULE, "lint",
                        "files parse; every pragma suppresses a finding"])
        print(format_table(["rule", "name", "enforces"], rows,
                           title="repro-lint rules"))
        return 0

    rules = None
    if args.rules:
        try:
            rules = [repro_lint.get_rule(rule_id) for rule_id in args.rules]
        except KeyError as error:
            raise SystemExit(str(error.args[0])) from None

    findings = repro_lint.lint_repository(args.root, paths=args.paths,
                                          rules=rules)
    for finding in findings:
        print(finding.render())
    if args.json:
        payload = {"findings": [encode(finding) for finding in findings],
                   "count": len(findings)}
        pathlib.Path(args.json).write_text(json.dumps(payload, indent=2) + "\n",
                                           encoding="utf-8")
        print(f"wrote findings JSON to {args.json}")
    print(f"repro-lint: {len(findings)} finding(s)")
    return 1 if findings else 0


def cmd_models(args: argparse.Namespace) -> int:
    """List registered models with their footprints and capacity plans."""
    tpu = tpuv4i_baseline()
    rows = []
    for name in sorted(MODEL_REGISTRY):
        model = MODEL_REGISTRY[name]
        if isinstance(model, LLMConfig):
            footprint = llm_footprint(model, batch=args.batch,
                                      context_tokens=args.input_tokens + args.output_tokens)
            kind = "MoE" if isinstance(model, MoEConfig) else "LLM"
        elif isinstance(model, DiTConfig):
            footprint = dit_footprint(model, batch=args.batch, image_resolution=args.resolution)
            kind = "DiT"
        else:  # pragma: no cover - registry only holds the known kinds
            continue
        plan = plan_capacity(footprint, tpu)
        rows.append([name, kind, scenario_for(model).name, f"{footprint.total_gib:.1f} GiB",
                     plan.min_devices, plan.suggested_parallelism])
    print(format_table(["model", "kind", "default scenario", "footprint", "min TPUs",
                        "suggested parallelism"],
                       rows, title="Registered models (batch "
                                   f"{args.batch}, {args.input_tokens}+{args.output_tokens} tokens)"))
    return 0


def cmd_scenarios(args: argparse.Namespace) -> int:
    """List the registered inference scenarios and their capabilities."""
    del args  # no options; present for the uniform subcommand signature
    rows = []
    for name in sorted(SCENARIO_REGISTRY):
        spec = SCENARIO_REGISTRY[name]
        models = ", ".join(sorted(m for m, cfg in MODEL_REGISTRY.items()
                                  if spec.supports(cfg)))
        rows.append([name, spec.model_type.__name__,
                     "yes" if spec.tensor_parallel is not None else "no",
                     models, spec.description])
    print(format_table(["scenario", "model type", "tensor-parallel", "models", "description"],
                       rows, title="Registered scenarios"))
    return 0


# -------------------------------------------------------------------- parser
def _add_telemetry_flags(parser: argparse.ArgumentParser, *,
                         gauge_interval: bool = False) -> None:
    """Attach the shared ``--trace-out`` / ``--metrics-out`` export flags."""
    parser.add_argument(
        "--trace-out", dest="trace_out", metavar="PATH", default=None,
        help="write a Chrome trace-event JSON file of the run "
             "(open in Perfetto or chrome://tracing; also readable by "
             "`repro-sim report`)")
    parser.add_argument(
        "--metrics-out", dest="metrics_out", metavar="PATH", default=None,
        help="write time-series gauges/events/counters as JSONL "
             "(one self-describing record per line)")
    if gauge_interval:
        parser.add_argument(
            "--gauge-interval", dest="gauge_interval", type=float,
            default=1.0, metavar="SECONDS",
            help="simulated-time sampling interval of queue-depth/"
                 "batch-occupancy/KV-utilisation gauges (default 1.0)")


@dataclasses.dataclass(frozen=True)
class _Flag:
    """What a request field's flag says beyond the field itself.

    The field gives the flag its ``dest`` (the field name), ``type`` (the
    scalar annotation), ``nargs="+"`` (a tuple field), default (a tuple
    one as a list, for argparse's ``append``) or ``required=True`` (no
    default).  ``option`` defaults to ``--field-name``.
    """

    help: str | None
    choices: Sequence[str] | None = None
    option: str | None = None
    action: str | None = None
    metavar: str | None = None


def _add_request_flags(parser: argparse.ArgumentParser, cls,
                       flags: dict[str, _Flag], global_fields: set[str]) -> None:
    """One flag per field of request ``cls``, in field order.

    A global field (set by a top-level option) gets a flag only when
    ``flags`` names it, and that flag overrides the global value only when
    given.  A field neither ``flags`` nor a global option covers is a bug:
    the CLI would silently miss it.
    """
    types = field_types(cls)
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    missing = [name for name in types
               if name not in flags and name not in global_fields]
    if missing:
        raise TypeError(f"{cls.__name__} fields without a CLI flag: {missing}")
    for name, (scalar, many, _) in types.items():
        flag = flags.get(name)
        if flag is None:
            continue
        options: dict[str, object] = {"dest": name, "help": flag.help}
        if flag.action is not None:
            options["action"] = flag.action
        if flag.action in (None, "append"):
            options["type"] = scalar
        if many and flag.action is None:
            options["nargs"] = "+"
        if flag.choices is not None:
            options["choices"] = flag.choices
        if flag.metavar is not None:
            options["metavar"] = flag.metavar
        default = defaults[name]
        if name in global_fields:
            options["default"] = argparse.SUPPRESS
        elif default is dataclasses.MISSING:
            options["required"] = True
        else:
            options["default"] = (list(default) if isinstance(default, tuple)
                                  else default)
        parser.add_argument(flag.option or "--" + name.replace("_", "-"),
                            **options)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the CLI."""
    parser = argparse.ArgumentParser(prog="repro-sim",
                                     description="CIM-TPU architecture simulator")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="diagnostic logging on stderr: -v for INFO, "
                             "-vv for DEBUG (results stay on stdout)")
    parser.add_argument("--batch", type=int, default=8, help="batch size (default 8)")
    parser.add_argument("--input-tokens", type=int, default=1024, dest="input_tokens",
                        help="prompt length for LLM workloads")
    parser.add_argument("--output-tokens", type=int, default=512, dest="output_tokens",
                        help="generated tokens for LLM workloads")
    parser.add_argument("--resolution", type=int, default=512, help="DiT image resolution")
    parser.add_argument("--steps", type=int, default=50, help="DiT sampling steps")
    parser.add_argument("--llm", default=GPT3_30B.name, help="LLM model name")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the serving-trace RNG (the only source of "
                             "randomness anywhere): identical flags + identical "
                             "seed give bit-for-bit identical output (default 0)")

    subparsers = parser.add_subparsers(dest="command", required=True)

    compare = subparsers.add_parser("compare", help="baseline vs. CIM design on Fig. 6 workloads")
    compare.add_argument("--design", default="cim-default",
                         help="one of: " + ", ".join(sorted(PREDEFINED_DESIGNS)))
    compare.set_defaults(func=cmd_compare)

    explore = subparsers.add_parser("explore", help="Table IV / Fig. 7 design-space sweep")
    explore.add_argument("--workers", type=int, default=None,
                         help="worker processes for the sweep (default: serial)")
    explore.set_defaults(func=cmd_explore)

    multi = subparsers.add_parser("multi-device", help="Fig. 8 multi-TPU throughput")
    multi.add_argument("--design", default="design-a")
    multi.add_argument("--devices", type=int, nargs="+", default=[1, 2, 4])
    multi.add_argument("--parallelism", choices=("pipeline", "tensor"), default="pipeline")
    multi.add_argument("--workers", type=int, default=None,
                       help="worker processes for the sweep (default: serial)")
    multi.set_defaults(func=cmd_multi_device)

    # Request-backed subcommands: one flag per request field (see
    # _add_request_flags); the tables say only what a field cannot.
    global_fields = {action.dest for action in parser._actions}
    precisions = [p.value for p in Precision]
    llm_scenarios = sorted(name for name, spec in SCENARIO_REGISTRY.items()
                           if issubclass(spec.model_type, LLMConfig))
    serving_flags = {
        "scenario": _Flag("scenario supplying the request mix (default "
                          "chat-serving)", choices=llm_scenarios),
        "trace": _Flag("arrival process (default poisson)",
                       choices=sorted(TRACE_REGISTRY)),
        "slo_ttft": _Flag("SLO: time to first token in seconds (default 1.0)"),
        "slo_tpot": _Flag("SLO: time per output token in seconds "
                          "(default 0.1)"),
        "seed": _Flag("override the global --seed after the subcommand"),
        "faults": _Flag(
            "inject a fault source (repeatable): '<kind>[:field=value,...]' "
            "with kinds " + ", ".join(sorted(FAULT_REGISTRY))
            + "; e.g. 'replica-crash:at_s=5,duration_s=10,replica=0'",
            action="append", metavar="FAULT"),
        "overlay": _Flag(
            "arrival-drift overlay: '<kind>[:field=value,...]' with kinds "
            + ", ".join(sorted(OVERLAY_REGISTRY))
            + "; e.g. 'flash-crowd:start_s=10,duration_s=30,magnitude=3'"),
    }
    deployment_flags = {
        "design": _Flag("one of: " + ", ".join(sorted(PREDEFINED_DESIGNS))),
        "scheduler": _Flag("batching policy (default fcfs)",
                           choices=sorted(SCHEDULER_REGISTRY)),
        "max_batch": _Flag("continuous-batching slot limit (default 32)"),
        "precision": _Flag("numeric precision", choices=precisions),
    }

    sweep = subparsers.add_parser(
        "sweep", help="generalized scenario sweep (designs x models x settings)",
        description="Evaluate a grid of (design x model x precision x batch x devices) "
                    "points with the memoised sweep engine and optionally export the "
                    "structured rows to JSON/CSV.")
    _add_request_flags(sweep, repro_api.SweepRequest, {
        "designs": _Flag("designs to sweep (default: all predefined designs)"),
        "models": _Flag("models to sweep (default: every registered model)"),
        "scenarios": _Flag("scenarios to sweep; incompatible model/scenario "
                           "pairs are skipped (default: each model's default "
                           "scenario)", choices=sorted(SCENARIO_REGISTRY)),
        "precisions": _Flag("numeric precisions (default: all)",
                            choices=precisions),
        "batches": _Flag("batch sizes (default: 1 8)"),
        "device_counts": _Flag("device counts (default: 1)",
                               option="--devices", metavar="DEVICES"),
        "parallelism": _Flag(None, choices=("pipeline", "tensor")),
        "schedulers": _Flag("serving axis: batching policies to sweep (with "
                            "--arrival-rates, turns every point into a "
                            "discrete-event serving run)",
                            choices=sorted(SCHEDULER_REGISTRY)),
        "arrival_rates": _Flag("serving axis: request arrival rates "
                               "(requests/s)"),
        "trace": _Flag("arrival process of serving sweeps (default poisson)",
                       choices=sorted(TRACE_REGISTRY)),
        "trace_requests": _Flag("requests per serving-sweep trace "
                                "(default 200)"),
        "routers": _Flag("fleet axis: routing policies to sweep (serving "
                         "grids only)", choices=sorted(ROUTER_REGISTRY)),
        "replica_counts": _Flag("fleet axis: replica counts to sweep (serving "
                                "grids only)"),
        "autoscaler": _Flag("autoscaling policy of fleet sweep points "
                            "(default fixed)",
                            choices=sorted(AUTOSCALER_REGISTRY)),
        "workers": _Flag("worker processes for the sweep (default: serial)"),
    }, global_fields)
    sweep.add_argument("--store", metavar="PATH", default=None,
                       help="persistent JSONL result store shared with "
                            "serve/optimize and the gateway: repeated points "
                            "are served with zero new simulations")
    sweep.add_argument("--json", metavar="PATH", default=None,
                       help="write the result rows to PATH as JSON")
    sweep.add_argument("--csv", metavar="PATH", default=None,
                       help="write the result rows to PATH as CSV")
    _add_telemetry_flags(sweep)
    sweep.set_defaults(func=cmd_sweep)

    serve = subparsers.add_parser(
        "serve", help="discrete-event serving simulation with SLO analytics",
        description="Replay a seeded request trace through the continuous-batching "
                    "scheduler on one design and report TTFT/TPOT/e2e percentiles, "
                    "SLO goodput, utilisation and energy per token.  Deterministic: "
                    "identical flags (including the global --seed) reproduce the "
                    "run bit for bit.")
    _add_request_flags(serve, repro_api.SimulateRequest, {
        **serving_flags, **deployment_flags,
        "rate": _Flag("mean arrival rate in requests/s (default 8)"),
        "requests": _Flag("trace length in requests (default 200)"),
        "replicas": _Flag("fleet size: >1 routes the trace across a cluster "
                          "of identical replicas (default 1)"),
        "router": _Flag("fleet routing policy (default round-robin)",
                        choices=sorted(ROUTER_REGISTRY)),
        "autoscaler": _Flag("fleet autoscaling policy (default fixed)",
                            choices=sorted(AUTOSCALER_REGISTRY)),
        "min_replicas": _Flag("autoscaler floor of the fleet (default 1)"),
        "bucket": _Flag("context-bucket granularity in tokens for step-cost "
                        "memoisation (default 256)"),
        "devices": _Flag("pipeline-parallel device count (default: smallest "
                         "deployment whose KV budget admits the largest "
                         "request)"),
        "fidelity": _Flag("'exact' replays the discrete-event engine; "
                          "'fluid' prices the run with the closed-form "
                          "estimator — orders of magnitude faster, "
                          "golden-bounded error (default exact)",
                          choices=("exact", "fluid")),
    }, global_fields)
    serve.add_argument("--trace-file", metavar="PATH", default=None,
                       help="replay a JSONL trace instead of generating one")
    serve.add_argument("--check-determinism", dest="check_determinism",
                       action="store_true",
                       help="run the simulation twice, fail unless the reports "
                            "agree bit-for-bit, and print a stable p99 digest")
    serve.add_argument("--store", metavar="PATH", default=None,
                       help="persistent JSONL result store shared with "
                            "sweep/optimize and the gateway: a repeated run "
                            "is served with zero new simulations")
    serve.add_argument("--json", metavar="PATH", default=None,
                       help="write the full serving report to PATH as JSON")
    serve.add_argument("--csv", metavar="PATH", default=None,
                       help="write per-request TTFT/TPOT/e2e rows to PATH as CSV")
    serve.add_argument("--profile", action="store_true",
                       help="run under cProfile, print the top cumulative "
                            "functions and dump a .pstats artifact")
    serve.add_argument("--profile-out", dest="profile_out",
                       metavar="PATH", default="serve_profile.pstats",
                       help="where --profile writes the .pstats artifact "
                            "(default serve_profile.pstats)")
    _add_telemetry_flags(serve, gauge_interval=True)
    serve.set_defaults(func=cmd_serve)

    fleet = subparsers.add_parser(
        "fleet", help="size a replica fleet for an SLO at a target rate",
        description="Replay one seeded trace through fleets of 1..N replicas "
                    "and report the smallest replica count whose SLO "
                    "attainment reaches the target, with per-fleet goodput "
                    "and cost per million tokens.  Exits non-zero when even "
                    "the largest fleet falls short.")
    _add_request_flags(fleet, repro_api.FleetRequest, {
        **serving_flags, **deployment_flags,
        "rate": _Flag("target arrival rate in requests/s"),
        "attainment": _Flag("SLO attainment target in (0, 1] (default 0.95)"),
        "max_replicas": _Flag("largest fleet to try (default 16)"),
        "requests": _Flag("trace length in requests (default 400)"),
        "router": _Flag("fleet routing policy (default "
                        "least-outstanding-requests)",
                        choices=sorted(ROUTER_REGISTRY)),
        "fidelity": _Flag("'exact' replays every candidate fleet through "
                          "the event loop; 'fluid' sizes with the "
                          "closed-form estimator (default exact)",
                          choices=("exact", "fluid")),
    }, global_fields)
    fleet.add_argument("--store", metavar="PATH", default=None,
                       help="persistent JSONL result store shared with "
                            "serve/optimize and the gateway: already-sized "
                            "fleets replay zero new simulations")
    fleet.add_argument("--json", metavar="PATH", default=None,
                       help="write the fleet plan to PATH as JSON")
    fleet.set_defaults(func=cmd_fleet)

    optimize = subparsers.add_parser(
        "optimize", help="Pareto co-design search over hardware x deployment",
        description="Search the joint (TPU design x precision x scheduler x "
                    "router x autoscaler x replica count) space for "
                    "Pareto-optimal fleet configurations under declared "
                    "objectives and constraints.  With --store, results "
                    "persist across runs: a repeated search performs zero "
                    "new simulations and reproduces the frontier bit for "
                    "bit.")
    _add_request_flags(optimize, repro_api.OptimizeRequest, {
        **serving_flags,
        "designs": _Flag("design axis (default: all predefined designs)"),
        "precisions": _Flag("precision axis (default int8)",
                            choices=precisions),
        "schedulers": _Flag("batching-policy axis (default fcfs)",
                            choices=sorted(SCHEDULER_REGISTRY)),
        "routers": _Flag("routing-policy axis (default round-robin)",
                         choices=sorted(ROUTER_REGISTRY)),
        "autoscalers": _Flag("autoscaling-policy axis (default fixed)",
                             choices=sorted(AUTOSCALER_REGISTRY)),
        "replica_counts": _Flag("replica-count axis (default 1 2 4)"),
        "max_batches": _Flag("continuous-batching slot-limit axis "
                             "(default 32)"),
        "objectives": _Flag("objectives to minimise/maximise (default: "
                            "cost-per-million-tokens p99-ttft)",
                            choices=sorted(OBJECTIVE_REGISTRY)),
        "constraints": _Flag("feasibility constraints: 'fit', 'slo>=0.95' or "
                             "'<objective><=value' (default: none)",
                             metavar="CONSTRAINT"),
        "strategy": _Flag("search strategy (default successive-halving)",
                          choices=sorted(SEARCH_REGISTRY)),
        "budget": _Flag("full-fidelity evaluation budget (random sample "
                        "size / survivor cap; default: unlimited)"),
        "rate": _Flag("workload arrival rate in requests/s (default 8)"),
        "requests": _Flag("full-fidelity trace length (default 200)"),
        "capacity_bound": _Flag("do not prune fleets below the capacity "
                                "lower bound when an SLO constraint is "
                                "declared", option="--no-capacity-bound",
                                action="store_false"),
    }, global_fields)
    optimize.add_argument("--store", metavar="PATH", default=None,
                          help="persistent JSONL result store: repeated "
                               "searches against the same store simulate "
                               "nothing new")
    optimize.add_argument("--json", metavar="PATH", default=None,
                          help="write the full frontier report to PATH as JSON")
    optimize.add_argument("--csv", metavar="PATH", default=None,
                          help="write the frontier rows to PATH as CSV")
    _add_telemetry_flags(optimize)
    optimize.set_defaults(func=cmd_optimize)

    gateway = subparsers.add_parser(
        "gateway", help="serve the simulation API over HTTP",
        description="Simulation as a service: POST JSON requests to "
                    "/v1/simulate, /v1/fleet, /v1/sweep, /v1/optimize or "
                    "/v1/autoconfig-preview, poll GET /v1/jobs/<id> and "
                    "fetch GET /v1/jobs/<id>/result.  All jobs run against "
                    "one shared persistent --store, so any request any "
                    "client has run before is served with zero new "
                    "simulations.")
    gateway.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    gateway.add_argument("--port", type=int, default=8080,
                         help="bind port; 0 picks an ephemeral port "
                              "(default 8080)")
    gateway.add_argument("--store", metavar="PATH", default=None,
                         help="shared persistent JSONL result store backing "
                              "every job (the multi-tenant simulation cache)")
    gateway.add_argument("--api-workers", dest="api_workers", type=int,
                         default=2,
                         help="simulation worker threads draining the job "
                              "queue (default 2)")
    gateway.set_defaults(func=cmd_gateway)

    report = subparsers.add_parser(
        "report", help="text dashboard from an exported trace/metrics file",
        description="Render utilisation sparklines, the autoscaler/fault "
                    "action log, per-track span totals and counter totals "
                    "from a --trace-out Chrome trace or --metrics-out JSONL "
                    "file (the format is sniffed from content).")
    report.add_argument("trace_path", metavar="PATH",
                        help="a --trace-out or --metrics-out file")
    report.add_argument("--width", type=int, default=60,
                        help="sparkline width in characters (default 60)")
    report.set_defaults(func=cmd_report)

    lint = subparsers.add_parser(
        "lint", help="machine-check the repo's determinism (RPR001), "
                     "error-contract (RPR005) and telemetry (RPR006) rules",
        description="Run the repro-lint AST contract checker: RPR001 "
                    "determinism, RPR005 closed error contract, RPR006 "
                    "telemetry discipline.  Exits non-zero on any finding; "
                    "suppress a justified one with a "
                    "'# repro-lint: disable=RULE' comment.")
    lint.add_argument("paths", nargs="*", default=["src/repro"],
                      help="files or directories to lint (default: src/repro)")
    lint.add_argument("--root", default=".",
                      help="repository root discovery hint (default: cwd)")
    lint.add_argument("--rules", nargs="+", metavar="RPRnnn",
                      help="run only these rule ids")
    lint.add_argument("--json", metavar="PATH",
                      help="also write the findings as structured JSON")
    lint.add_argument("--list-rules", action="store_true", dest="list_rules",
                      help="list the registered rules and exit")
    lint.set_defaults(func=cmd_lint)

    models = subparsers.add_parser("models", help="list models and capacity plans")
    models.set_defaults(func=cmd_models)

    scenarios = subparsers.add_parser("scenarios",
                                      help="list registered inference scenarios")
    scenarios.set_defaults(func=cmd_scenarios)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(args.verbose)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
