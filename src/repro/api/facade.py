"""The facade: one validated call per engine, one response shape each.

This is the single contract the CLI, the HTTP gateway and Python callers
share.  Each function takes a frozen request (see
:mod:`repro.api.requests`), an optional shared
:class:`~repro.sweep.store.ResultStore` and an optional telemetry sink,
runs the engine, and returns the matching response envelope, whose
accounting one rule (:func:`_answer`) fills from the call's own store
view and result count.  Determinism is inherited from the engines: the
same request produces a byte-identical response dict on every surface,
and a warm store serves it with zero new simulations.

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
    request_from_dict,
)
from repro.api.responses import (
    AutoconfigPreviewResponse,
    FleetResponse,
    OptimizeResponse,
    SimulateResponse,
    SweepResponse,
)
from repro.codec import encode
from repro.common import Precision
from repro.sweep.fingerprint import fingerprint
from repro.sweep.store import StoreView

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


def _view(store: "ResultStore | None") -> StoreView | None:
    """This call's own view of a shared store (exact under concurrency)."""
    return StoreView(store) if store is not None else None


def _store_counts(view: StoreView | None) -> tuple[int, int]:
    """The hits and misses of the call's store ``view`` (none without one)."""
    return (view.stats.hits, view.stats.misses) if view is not None else (0, 0)


def _answer(cls, request, view: StoreView | None, results: int, **payload):
    """Response ``cls`` to ``request``: of the ``results`` the answer needed,
    the call's store ``view`` served its hits and the rest were computed."""
    hits, misses = _store_counts(view)
    return cls(fingerprint=request_fingerprint(request),
               served_from_store=hits > 0 and results == hits,
               new_simulations=results - hits, store_hits=hits,
               store_misses=misses, **payload)


# ------------------------------------------------------------------ simulate
def simulate(request: SimulateRequest, *, store: "ResultStore | None" = None,
             telemetry: "Telemetry | None" = None) -> SimulateResponse:
    """Run one serving spec (single deployment, or a fleet when shaped so).

    Single-deployment reports are stored *with* their per-request rows
    (so ``--csv`` exports stay available warm); fleet reports follow the
    cluster store's row-free convention.  Either way a warm repeat is
    byte-identical to the cold run.
    """
    from repro.serving.cluster import simulate_cluster
    from repro.serving.simulator import simulate_serving

    model, config, settings = request.resolve()
    spec = request.spec()
    view = _view(store)
    try:
        if spec.fleet:
            report = simulate_cluster(model, config, spec, settings,
                                      store=view, telemetry=telemetry)
            payload = report.to_dict(include_requests=False)
        else:
            report = simulate_serving(model, config, spec, settings,
                                      store=view, telemetry=telemetry)
            payload = report.to_dict()
    except (ValueError, OSError) as error:
        raise _engine_error(error) from None
    return _answer(SimulateResponse, request, view, 1, fleet=spec.fleet,
                   report=payload)


# --------------------------------------------------------------------- fleet
def fleet(request: FleetRequest, *, store: "ResultStore | None" = None,
          telemetry: "Telemetry | None" = None) -> FleetResponse:
    """Size a replica fleet for the request's SLO at its target rate."""
    from repro.analysis.capacity import plan_fleet

    model, config, settings = request.resolve()
    view = _view(store)
    try:
        plan = plan_fleet(model, config, request.spec(), settings,
                          attainment_target=request.attainment,
                          max_replicas=request.max_replicas, store=view,
                          telemetry=telemetry)
    except (ValueError, OSError) as error:
        raise _engine_error(error) from None
    return _answer(FleetResponse, request, view, len(plan.evaluations),
                   plan=FleetResponse.plan_payload(plan))


# --------------------------------------------------------------------- sweep
def sweep(request: SweepRequest, *, store: "ResultStore | None" = None,
          telemetry: "Telemetry | None" = None) -> SweepResponse:
    """Evaluate the request's scenario grid through the memoised engine."""
    from repro.sweep.engine import SweepEngine

    grid = request.grid()
    view = _view(store)
    engine = SweepEngine(store=view, telemetry=telemetry)
    try:
        rows = engine.sweep(grid, workers=request.workers)
    except (ValueError, OSError) as error:
        raise _engine_error(error) from None
    stats = engine.stats
    hits, misses = _store_counts(view)
    return _answer(SweepResponse, request, view, stats.point_misses,
                   rows=tuple(encode(row) for row in rows),
                   stats={"simulations": stats.simulations, **encode(stats),
                          "store_hits": hits, "store_misses": misses})


# ------------------------------------------------------------------ optimize
def optimize(request: OptimizeRequest, *, store: "ResultStore | None" = None,
             telemetry: "Telemetry | None" = None) -> OptimizeResponse:
    """Run the Pareto co-design search the request describes."""
    from repro.optimize import CodesignOptimizer

    model = request.resolve_model()
    view = _view(store)
    try:
        optimizer = CodesignOptimizer(
            model, request.space(), request.spec(),
            objectives=request.objective_list(),
            constraints=request.constraint_list(), strategy=request.strategy,
            scenario=request.scenario, input_tokens=request.input_tokens,
            output_tokens=request.output_tokens, budget=request.budget,
            store=view, use_capacity_bound=request.capacity_bound,
            telemetry=telemetry)
        frontier = optimizer.run()
    except (KeyError, ValueError, OSError) as error:
        raise _engine_error(error) from None
    runs = frontier.short_runs + frontier.full_runs + frontier.store_served
    return _answer(OptimizeResponse, request, view, runs,
                   frontier=frontier.to_dict())


# -------------------------------------------------------- autoconfig preview
def autoconfig_preview(request: AutoconfigPreviewRequest, *,
                       store: "ResultStore | None" = None,
                       telemetry: "Telemetry | None" = None,
                       ) -> AutoconfigPreviewResponse:
    """Deterministic deployment sizing from the capacity model alone.

    Never simulates and never touches the store: it needs no result, so
    the accounting header is all zeros.
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
    return _answer(AutoconfigPreviewResponse, request, None, 0, preview=preview)


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
