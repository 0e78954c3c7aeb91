"""The facade: one validated call per engine, one response shape each.

This is the single contract the CLI, the HTTP gateway and Python callers
share.  Each function takes a frozen request (see
:mod:`repro.api.requests`), an optional shared
:class:`~repro.sweep.store.ResultStore` and an optional telemetry sink,
runs the engine, and returns the matching response envelope with exact
cost accounting (``new_simulations``, ``store_hits``...).  Determinism is
inherited from the engines: the same request produces a byte-identical
response dict on every surface, and a warm store serves it with zero new
simulations.

Engine-side failures on *valid* requests (a model that does not fit the
deployment, an unwritable path) surface as
:class:`~repro.api.errors.ApiRequestError` with code ``engine-error`` and
the engine's own message, so every caller reports the same words.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.api.errors import ApiError, ApiRequestError
from repro.api.requests import (
    AutoconfigPreviewRequest,
    FleetRequest,
    OptimizeRequest,
    SimulateRequest,
    SweepRequest,
    _parse_faults,
    _parse_overlay,
    _slo,
    request_from_dict,
)
from repro.api.responses import (
    AutoconfigPreviewResponse,
    FleetResponse,
    OptimizeResponse,
    SimulateResponse,
    SweepResponse,
)
from repro.common import Precision
from repro.sweep.fingerprint import fingerprint

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.obs.telemetry import Telemetry
    from repro.sweep.store import ResultStore

#: Fields that tune execution, not content — excluded from the request
#: fingerprint so a parallel submission correlates with a serial one.
_EXECUTION_HINTS = ("workers",)


def request_fingerprint(request) -> str:
    """Content fingerprint of a request (execution hints excluded)."""
    payload = {key: value for key, value in request.to_dict().items()
               if key not in _EXECUTION_HINTS}
    return fingerprint("repro-api/v1", payload)


def _engine_error(error: Exception) -> ApiRequestError:
    return ApiRequestError(ApiError(code="engine-error",
                                    message=str(error).strip('"')))


def _store_counts(store: "ResultStore | None", before: tuple[int, int]):
    if store is None:
        return 0, 0
    return store.stats.hits - before[0], store.stats.misses - before[1]


def _snapshot(store: "ResultStore | None") -> tuple[int, int]:
    return (store.stats.hits, store.stats.misses) if store is not None else (0, 0)


# ------------------------------------------------------------------ simulate
def simulate(request: SimulateRequest, *, store: "ResultStore | None" = None,
             telemetry: "Telemetry | None" = None) -> SimulateResponse:
    """Run one serving spec (single deployment, or a fleet when shaped so).

    Single-deployment reports are stored *with* their per-request rows
    (so ``--csv`` exports stay available warm); fleet reports follow the
    cluster store's row-free convention.  Either way a warm repeat is
    byte-identical to the cold run.
    """
    from repro.serving.cluster import (
        STORE_KIND as CLUSTER_STORE_KIND,
        cluster_run_key,
        simulate_cluster,
    )
    from repro.serving.simulator import (
        SERVING_STORE_KIND,
        serving_run_key,
        simulate_serving,
    )

    model, config, settings = request.resolve()
    spec = request.spec()
    fleet_run = spec.replicas > 1 or bool(spec.faults)
    served = False
    if store is not None:
        # Membership, not stats deltas: exact even when concurrent gateway
        # jobs share this store object.
        if fleet_run:
            key = (CLUSTER_STORE_KIND,
                   cluster_run_key(model, config, spec, settings))
        else:
            key = (SERVING_STORE_KIND,
                   serving_run_key(model, config, spec, settings))
        served = key in store
    try:
        if fleet_run:
            report = simulate_cluster(model, config, spec, settings,
                                      store=store, telemetry=telemetry)
            payload = report.to_dict(include_requests=False)
        else:
            report = simulate_serving(model, config, spec, settings,
                                      store=store, telemetry=telemetry)
            payload = report.to_dict()
    except (ValueError, OSError) as error:
        raise _engine_error(error) from None
    return SimulateResponse(
        fingerprint=request_fingerprint(request), served_from_store=served,
        new_simulations=0 if served else 1,
        store_hits=1 if served else 0,
        store_misses=0 if served or store is None else 1,
        fleet=fleet_run, report=payload)


# --------------------------------------------------------------------- fleet
def fleet(request: FleetRequest, *, store: "ResultStore | None" = None,
          telemetry: "Telemetry | None" = None) -> FleetResponse:
    """Size a replica fleet for the request's SLO at its target rate."""
    from repro.analysis.capacity import plan_fleet
    from repro.serving.trace import request_classes_from_settings

    model, config, settings = request.resolve()
    before = _snapshot(store)
    try:
        plan = plan_fleet(
            model, config, arrival_rate=request.rate,
            slo=_slo(request.slo_ttft, request.slo_tpot),
            request_classes=request_classes_from_settings(settings),
            attainment_target=request.attainment,
            max_replicas=request.max_replicas,
            num_requests=request.requests, seed=request.seed,
            trace_kind=request.trace, scheduler=request.scheduler,
            router=request.router, max_batch=request.max_batch,
            precision=Precision(request.precision),
            faults=_parse_faults(request.faults),
            overlay=_parse_overlay(request.overlay),
            fidelity=request.fidelity, store=store, settings=settings,
            telemetry=telemetry)
    except (ValueError, OSError) as error:
        raise _engine_error(error) from None
    hits, misses = _store_counts(store, before)
    simulated = misses if store is not None else len(plan.evaluations)
    payload = {"model": plan.model_name, "tpu": plan.tpu_name,
               "arrival_rate": plan.arrival_rate,
               "attainment_target": plan.attainment_target,
               "met": plan.met, "replicas": plan.replicas,
               "evaluations": [e.to_dict() for e in plan.evaluations]}
    return FleetResponse(
        fingerprint=request_fingerprint(request),
        served_from_store=simulated == 0 and hits > 0,
        new_simulations=simulated, store_hits=hits, store_misses=misses,
        plan=payload)


# --------------------------------------------------------------------- sweep
def sweep(request: SweepRequest, *, store: "ResultStore | None" = None,
          telemetry: "Telemetry | None" = None) -> SweepResponse:
    """Evaluate the request's scenario grid through the memoised engine."""
    from repro.sweep.engine import SweepEngine

    grid = request.grid()
    engine = SweepEngine(store=store, telemetry=telemetry)
    try:
        rows = engine.sweep(grid, workers=request.workers)
    except (ValueError, OSError) as error:
        raise _engine_error(error) from None
    stats = engine.stats
    return SweepResponse(
        fingerprint=request_fingerprint(request),
        served_from_store=stats.store_hits > 0 and stats.store_misses == 0,
        new_simulations=stats.simulations,
        store_hits=stats.store_hits, store_misses=stats.store_misses,
        rows=tuple(row.to_dict() for row in rows),
        stats={"simulations": stats.simulations,
               "point_hits": stats.point_hits,
               "point_misses": stats.point_misses,
               "graph_hits": stats.graph_hits,
               "graph_misses": stats.graph_misses,
               "store_hits": stats.store_hits,
               "store_misses": stats.store_misses})


# ------------------------------------------------------------------ optimize
def optimize(request: OptimizeRequest, *, store: "ResultStore | None" = None,
             telemetry: "Telemetry | None" = None) -> OptimizeResponse:
    """Run the Pareto co-design search the request describes."""
    from repro.optimize import CodesignOptimizer

    model = request.resolve_model()
    before = _snapshot(store)
    try:
        optimizer = CodesignOptimizer(
            model, request.space(), objectives=request.objective_list(),
            constraints=request.constraint_list(), strategy=request.strategy,
            arrival_rate=request.rate, num_requests=request.requests,
            scenario=request.scenario, input_tokens=request.input_tokens,
            output_tokens=request.output_tokens, trace=request.trace,
            slo=_slo(request.slo_ttft, request.slo_tpot), seed=request.seed,
            budget=request.budget, store=store,
            use_capacity_bound=request.capacity_bound,
            faults=_parse_faults(request.faults),
            overlay=_parse_overlay(request.overlay), telemetry=telemetry)
        frontier = optimizer.run()
    except (KeyError, ValueError, OSError) as error:
        raise _engine_error(error) from None
    _, misses = _store_counts(store, before)
    simulated = frontier.short_runs + frontier.full_runs
    return OptimizeResponse(
        fingerprint=request_fingerprint(request),
        served_from_store=simulated == 0 and frontier.store_served > 0,
        new_simulations=simulated, store_hits=frontier.store_served,
        store_misses=misses, frontier=frontier.to_dict())


# -------------------------------------------------------- autoconfig preview
def autoconfig_preview(request: AutoconfigPreviewRequest, *,
                       store: "ResultStore | None" = None,
                       telemetry: "Telemetry | None" = None,
                       ) -> AutoconfigPreviewResponse:
    """Deterministic deployment sizing from the capacity model alone.

    Never simulates and never touches the store — the accounting header
    is all zeros by construction.
    """
    from repro.analysis.capacity import (
        fleet_lower_bound,
        llm_footprint,
        plan_capacity,
        serving_kv_budget,
    )
    from repro.core.designs import PREDEFINED_DESIGNS
    from repro.workloads.registry import get_model

    del store, telemetry  # uniform signature; analytics have no run to cache
    model = get_model(request.llm)
    config = PREDEFINED_DESIGNS[request.design]
    precision = Precision(request.precision)
    try:
        footprint = llm_footprint(
            model, batch=request.batch,
            context_tokens=request.input_tokens + request.output_tokens,
            precision=precision)
        plan = plan_capacity(footprint, config,
                             memory_utilisation=request.memory_utilisation)
        devices = request.devices if request.devices is not None else plan.min_devices
        kv_budget = serving_kv_budget(
            model, config, devices=devices, max_batch=request.max_batch,
            precision=precision,
            memory_utilisation=request.memory_utilisation)
        lower_bound = fleet_lower_bound(
            model, config, arrival_rate=request.rate,
            scheduler=request.scheduler, max_batch=request.max_batch,
            precision=precision, devices=request.devices,
            memory_utilisation=request.memory_utilisation)
    except ValueError as error:
        raise _engine_error(error) from None
    preview = {
        "model": model.name, "design": request.design,
        "precision": request.precision,
        "footprint": {"weight_bytes": footprint.weight_bytes,
                      "kv_cache_bytes": footprint.kv_cache_bytes,
                      "activation_bytes": footprint.activation_bytes,
                      "total_gib": footprint.total_gib},
        "capacity": {"fits_single_device": plan.fits_single_device,
                     "min_devices": plan.min_devices,
                     "suggested_parallelism": plan.suggested_parallelism},
        "deployment": {"devices": devices, "max_batch": request.max_batch,
                       "kv_budget_bytes": kv_budget,
                       "kv_budget_fits": kv_budget > 0},
        "fleet": {"arrival_rate": request.rate,
                  "lower_bound_replicas": lower_bound},
    }
    return AutoconfigPreviewResponse(
        fingerprint=request_fingerprint(request), served_from_store=False,
        new_simulations=0, store_hits=0, store_misses=0, preview=preview)


#: kind -> facade function, the dispatch table ``run`` and the gateway use.
HANDLERS = {
    "simulate": simulate,
    "fleet": fleet,
    "sweep": sweep,
    "optimize": optimize,
    "autoconfig-preview": autoconfig_preview,
}


def run(request, *, store: "ResultStore | None" = None,
        telemetry: "Telemetry | None" = None):
    """Dispatch any request object (or raw payload dict) to its engine."""
    if isinstance(request, dict):
        request = request_from_dict(request)
    handler = HANDLERS.get(getattr(request, "kind", None))
    if handler is None:
        raise ApiRequestError(ApiError(
            code="invalid-kind",
            message=f"cannot dispatch object of type "
                    f"{type(request).__name__}; expected an API request"))
    return handler(request, store=store, telemetry=telemetry)
