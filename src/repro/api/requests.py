"""Frozen request schemas of the unified API.

One request dataclass per engine — :class:`SimulateRequest`,
:class:`FleetRequest`, :class:`SweepRequest`, :class:`OptimizeRequest`,
:class:`AutoconfigPreviewRequest` — each a flat record of JSON primitives
(strings, numbers, lists; chaos axes as the CLI's compact ``--faults`` /
``--overlay`` strings) whose defaults mirror the CLI defaults exactly.
The same payload therefore means the same run whether it arrives as CLI
flags, a Python call or an HTTP body, and the response is byte-identical
across the three.

The contract, stated explicitly:

* **Strict decoding.**  ``from_dict`` rejects unknown keys, missing
  required fields, a mismatched ``kind`` and an unsupported
  ``schema_version`` — each with a structured :class:`~repro.api.errors.ApiError`
  naming the field.  Silence never reinterprets a typo as a default.
* **Exact JSON round-trip.**  ``to_dict`` emits only JSON primitives
  (tuples as lists) and ``from_dict(to_dict(r))`` reconstructs ``r``
  exactly; floats survive by JSON's ``repr`` round-trip.
* **Validation at construction.**  ``__post_init__`` validates every
  field against the live registries (schedulers, routers, autoscalers,
  traces, objectives, search strategies, designs, models, scenarios) and
  re-uses the engines' own error wording, so the facade, the CLI and the
  gateway all report the same message for the same mistake.
* **Execution hints stay out of content.**  ``workers`` tunes *how* a
  sweep executes, never *what* it computes (parallel == serial, bit for
  bit), so it rides on the request but is documented as non-semantic;
  store keys never include it.

``SCHEMA_VERSION`` stamps every payload.  Bump it when a field changes
meaning or shape — never for adding optional fields with defaults — and
see CONTRIBUTING.md for the stability policy.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, ClassVar

from repro.api.errors import ApiError, ApiRequestError, invalid_field
from repro.common import Precision
from repro.core.designs import PREDEFINED_DESIGNS
from repro.optimize import DesignSpace, get_objective, parse_constraint
from repro.optimize.search import SEARCH_REGISTRY
from repro.serving.autoscaler import AUTOSCALER_REGISTRY
from repro.serving.faults import parse_fault
from repro.serving.metrics import SLO
from repro.serving.router import ROUTER_REGISTRY
from repro.serving.scheduler import SCHEDULER_REGISTRY
from repro.serving.spec import ServingSpec
from repro.serving.trace import TRACE_REGISTRY, parse_overlay
from repro.sweep.grid import SweepGrid
from repro.workloads.llm import GPT3_30B, LLMConfig
from repro.workloads.registry import MODEL_REGISTRY, get_model, get_scenario
from repro.workloads.scenario import ScenarioKnobs

#: Version of the request/response schemas.  Payloads carrying a different
#: version are rejected with ``unsupported-schema-version`` instead of
#: being silently reinterpreted.
SCHEMA_VERSION = 2

_PRECISIONS = tuple(p.value for p in Precision)


# ------------------------------------------------------------ shared checks
def _check_choice(value: object, names, field_name: str, what: str) -> None:
    if value not in names:
        known = ", ".join(sorted(names))
        raise invalid_field(field_name,
                            f"unknown {what} '{value}'; choose one of: {known}")


def _check_positive(value: object, field_name: str) -> None:
    try:
        bad = not value > 0  # type: ignore[operator]
    except TypeError:
        raise invalid_field(field_name,
                            f"{field_name} must be a positive number") from None
    if bad:
        raise invalid_field(field_name, f"{field_name} must be positive")


def _parse_faults(texts, field_name: str = "faults"):
    specs = []
    for index, text in enumerate(texts):
        try:
            specs.append(parse_fault(text))
        except (KeyError, ValueError) as error:
            raise ApiRequestError(ApiError(
                code="invalid-field", message=str(error).strip('"'),
                field=f"{field_name}[{index}]")) from None
    return tuple(specs)


def _parse_overlay(text, field_name: str = "overlay"):
    if text is None:
        return None
    try:
        return parse_overlay(text)
    except (KeyError, ValueError) as error:
        raise ApiRequestError(ApiError(
            code="invalid-field", message=str(error).strip('"'),
            field=field_name)) from None


def _resolve_workload(llm: str, design: str, scenario: str, *, batch: int,
                      precision: str, input_tokens: int, output_tokens: int):
    """(model, chip config, scenario settings) shared by serve/fleet runs.

    Re-uses the CLI's exact error wording so the same mistake reads the
    same on every surface.
    """
    _check_choice(design, PREDEFINED_DESIGNS, "design", "design")
    try:
        model = get_model(llm)
    except KeyError as error:
        raise invalid_field("llm", str(error.args[0])) from None
    if not isinstance(model, LLMConfig):
        raise invalid_field(
            "llm", f"'{llm}' is not an LLM; serving is modelled "
                   "for LLM workloads")
    try:
        spec = get_scenario(scenario)
    except KeyError as error:
        raise invalid_field("scenario", str(error.args[0])) from None
    if not spec.supports(model):
        raise invalid_field("scenario",
                            f"scenario '{scenario}' does not support "
                            f"model '{model.name}'")
    _check_choice(precision, _PRECISIONS, "precision", "precision")
    try:
        settings = spec.make_settings(ScenarioKnobs(
            batch=batch, precision=Precision(precision),
            input_tokens=input_tokens, output_tokens=output_tokens))
    except (TypeError, ValueError) as error:
        raise ApiRequestError(ApiError(code="invalid-field",
                                       message=str(error))) from None
    return model, PREDEFINED_DESIGNS[design], settings


def _slo(ttft: float, tpot: float) -> SLO:
    try:
        return SLO(ttft_s=ttft, tpot_s=tpot)
    except (TypeError, ValueError) as error:
        raise invalid_field("slo_ttft", str(error)) from None


# ----------------------------------------------------------- strict decoding
def _decode_request(cls, payload: Mapping[str, Any]):
    """Strictly decode a payload into a request dataclass."""
    if not isinstance(payload, Mapping):
        raise ApiRequestError(ApiError(
            code="invalid-json",
            message=f"request body must be a JSON object, "
                    f"got {type(payload).__name__}"))
    data = dict(payload)
    kind = data.pop("kind", cls.kind)
    if kind != cls.kind:
        raise ApiRequestError(ApiError(
            code="invalid-kind",
            message=f"payload kind '{kind}' does not match "
                    f"'{cls.kind}'", field="kind"))
    version = data.pop("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ApiRequestError(ApiError(
            code="unsupported-schema-version",
            message=f"schema_version {version!r} is not supported "
                    f"(this build speaks {SCHEMA_VERSION})",
            field="schema_version"))
    names = {f.name for f in dataclasses.fields(cls)}
    for key in data:
        if key not in names:
            raise ApiRequestError(ApiError(
                code="unknown-field",
                message=f"unknown field '{key}' for kind "
                        f"'{cls.kind}'", field=str(key)))
    for f in dataclasses.fields(cls):
        required = (f.default is dataclasses.MISSING
                    and f.default_factory is dataclasses.MISSING)
        if required and f.name not in data:
            raise ApiRequestError(ApiError(
                code="missing-field",
                message=f"required field '{f.name}' is missing for "
                        f"kind '{cls.kind}'", field=f.name))
    return cls(**data)


class _Request:
    """Shared encode/decode surface of every request kind."""

    kind: ClassVar[str] = ""

    def to_dict(self) -> dict[str, Any]:
        """JSON-primitive payload; ``from_dict`` round-trips it exactly."""
        payload: dict[str, Any] = {"kind": self.kind,
                                   "schema_version": SCHEMA_VERSION}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            payload[f.name] = list(value) if isinstance(value, tuple) else value
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]):
        """Strictly decode ``payload`` (see the module contract)."""
        return _decode_request(cls, payload)

    def _freeze(self, *names: str) -> None:
        """Coerce list-valued fields to tuples (frozen + JSON-friendly)."""
        for name in names:
            value = getattr(self, name)
            if value is not None and not isinstance(value, tuple):
                try:
                    object.__setattr__(self, name, tuple(value))
                except TypeError:
                    raise invalid_field(name,
                                        f"{name} must be a list") from None


# ----------------------------------------------------------------- simulate
@dataclass(frozen=True)
class SimulateRequest(_Request):
    """One serving run: a single deployment, or a fleet when ``replicas > 1``.

    Defaults mirror ``repro-sim serve``.
    """

    kind: ClassVar[str] = "simulate"

    design: str = "design-a"
    llm: str = GPT3_30B.name
    scenario: str = "chat-serving"
    trace: str = "poisson"
    rate: float = 8.0
    requests: int = 200
    scheduler: str = "fcfs"
    replicas: int = 1
    router: str = "round-robin"
    autoscaler: str = "fixed"
    min_replicas: int = 1
    seed: int = 0
    max_batch: int = 32
    bucket: int = 256
    devices: int | None = None
    precision: str = Precision.INT8.value
    batch: int = 8
    input_tokens: int = 1024
    output_tokens: int = 512
    slo_ttft: float = 1.0
    slo_tpot: float = 0.1
    fidelity: str = "exact"
    faults: tuple[str, ...] = ()
    overlay: str | None = None

    def __post_init__(self) -> None:
        self._freeze("faults")
        self.resolve()
        self.spec()

    def resolve(self):
        """(model, chip config, scenario settings) of this run."""
        _check_choice(self.scheduler, SCHEDULER_REGISTRY, "scheduler",
                      "scheduler")
        _check_choice(self.router, ROUTER_REGISTRY, "router", "router")
        _check_choice(self.autoscaler, AUTOSCALER_REGISTRY, "autoscaler",
                      "autoscaler")
        _check_choice(self.trace, TRACE_REGISTRY, "trace", "trace kind")
        return _resolve_workload(self.llm, self.design, self.scenario,
                                 batch=self.batch, precision=self.precision,
                                 input_tokens=self.input_tokens,
                                 output_tokens=self.output_tokens)

    def spec(self) -> ServingSpec:
        """The run's :class:`ServingSpec` (validated; chaos strings parsed)."""
        try:
            return ServingSpec(
                scheduler=self.scheduler, trace=self.trace,
                arrival_rate=self.rate, num_requests=self.requests,
                seed=self.seed, max_batch=self.max_batch,
                bucket_tokens=self.bucket, devices=self.devices,
                slo=_slo(self.slo_ttft, self.slo_tpot),
                replicas=self.replicas, router=self.router,
                autoscaler=self.autoscaler, min_replicas=self.min_replicas,
                faults=_parse_faults(self.faults),
                overlay=_parse_overlay(self.overlay),
                fidelity=self.fidelity)
        except (TypeError, ValueError) as error:
            raise ApiRequestError(ApiError(code="invalid-field",
                                           message=str(error))) from None


# -------------------------------------------------------------------- fleet
@dataclass(frozen=True)
class FleetRequest(_Request):
    """Size a replica fleet for an SLO at a target request rate.

    Defaults mirror ``repro-sim fleet``; ``rate`` is the one required
    field, exactly like the CLI flag.
    """

    kind: ClassVar[str] = "fleet"

    rate: float
    design: str = "design-a"
    llm: str = GPT3_30B.name
    scenario: str = "chat-serving"
    attainment: float = 0.95
    max_replicas: int = 16
    requests: int = 400
    trace: str = "poisson"
    scheduler: str = "fcfs"
    router: str = "least-outstanding-requests"
    max_batch: int = 32
    precision: str = Precision.INT8.value
    batch: int = 8
    input_tokens: int = 1024
    output_tokens: int = 512
    slo_ttft: float = 1.0
    slo_tpot: float = 0.1
    seed: int = 0
    fidelity: str = "exact"
    faults: tuple[str, ...] = ()
    overlay: str | None = None

    def __post_init__(self) -> None:
        self._freeze("faults")
        self.resolve()
        _check_positive(self.rate, "rate")
        _check_positive(self.max_replicas, "max_replicas")
        _check_positive(self.requests, "requests")
        if not isinstance(self.attainment, (int, float)) or \
                not 0 < self.attainment <= 1:
            raise invalid_field("attainment",
                                "attainment_target must be in (0, 1]")
        if self.fidelity not in ("exact", "fluid"):
            raise invalid_field("fidelity",
                                "fidelity must be 'exact' or 'fluid'")
        if self.fidelity == "fluid" and (self.faults or self.overlay):
            raise invalid_field("fidelity",
                                "fluid fidelity cannot replay faults or "
                                "overlays; chaos runs need the exact event "
                                "loop")
        _slo(self.slo_ttft, self.slo_tpot)
        _parse_faults(self.faults)
        _parse_overlay(self.overlay)

    def resolve(self):
        """(model, chip config, scenario settings) of this plan."""
        _check_choice(self.scheduler, SCHEDULER_REGISTRY, "scheduler",
                      "scheduler")
        _check_choice(self.router, ROUTER_REGISTRY, "router", "router")
        _check_choice(self.trace, TRACE_REGISTRY, "trace", "trace kind")
        return _resolve_workload(self.llm, self.design, self.scenario,
                                 batch=self.batch, precision=self.precision,
                                 input_tokens=self.input_tokens,
                                 output_tokens=self.output_tokens)


# -------------------------------------------------------------------- sweep
@dataclass(frozen=True)
class SweepRequest(_Request):
    """A scenario-grid sweep (defaults mirror ``repro-sim sweep``).

    ``workers`` is an execution hint (multiprocessing fan-out; parallel ==
    serial bit for bit) and never enters fingerprints.
    """

    kind: ClassVar[str] = "sweep"

    designs: tuple[str, ...] = tuple(sorted(PREDEFINED_DESIGNS))
    models: tuple[str, ...] = tuple(sorted(MODEL_REGISTRY))
    scenarios: tuple[str, ...] | None = None
    precisions: tuple[str, ...] = _PRECISIONS
    batches: tuple[int, ...] = (1, 8)
    device_counts: tuple[int, ...] = (1,)
    parallelism: str = "pipeline"
    input_tokens: int = 1024
    output_tokens: int = 512
    resolution: int = 512
    steps: int = 50
    schedulers: tuple[str, ...] = ()
    arrival_rates: tuple[float, ...] = ()
    trace: str = "poisson"
    trace_requests: int = 200
    routers: tuple[str, ...] = ()
    replica_counts: tuple[int, ...] = ()
    autoscaler: str = "fixed"
    seed: int = 0
    #: Execution hint, not content: worker processes for the sweep.
    workers: int | None = None

    def __post_init__(self) -> None:
        self._freeze("designs", "models", "scenarios", "precisions",
                     "batches", "device_counts", "schedulers",
                     "arrival_rates", "routers", "replica_counts")
        self.grid()
        if self.workers is not None:
            _check_positive(self.workers, "workers")

    def grid(self) -> SweepGrid:
        """The validated :class:`~repro.sweep.grid.SweepGrid` to evaluate."""
        designs = {}
        for name in self.designs:
            _check_choice(name, PREDEFINED_DESIGNS, "designs", "design")
            designs[name] = PREDEFINED_DESIGNS[name]
        for name in self.models:
            try:
                get_model(name)
            except KeyError as error:
                raise invalid_field("models", str(error.args[0])) from None
        for name in self.precisions:
            _check_choice(name, _PRECISIONS, "precisions", "precision")
        try:
            return SweepGrid(
                designs=designs, models=list(self.models),
                scenarios=(list(self.scenarios)
                           if self.scenarios is not None else None),
                precisions=tuple(Precision(p) for p in self.precisions),
                batches=self.batches, device_counts=self.device_counts,
                parallelism=self.parallelism,
                input_tokens=self.input_tokens,
                output_tokens=self.output_tokens,
                decode_kv_samples=2,
                image_resolution=self.resolution,
                sampling_steps=self.steps,
                schedulers=self.schedulers, arrival_rates=self.arrival_rates,
                serving_trace=self.trace,
                serving_requests=self.trace_requests,
                routers=self.routers, replica_counts=self.replica_counts,
                serving_autoscaler=self.autoscaler,
                seed=self.seed)
        except (KeyError, TypeError, ValueError) as error:
            raise ApiRequestError(ApiError(
                code="invalid-field",
                message=str(error).strip('"'))) from None


# ----------------------------------------------------------------- optimize
@dataclass(frozen=True)
class OptimizeRequest(_Request):
    """A Pareto co-design search (defaults mirror ``repro-sim optimize``)."""

    kind: ClassVar[str] = "optimize"

    llm: str = GPT3_30B.name
    designs: tuple[str, ...] = tuple(sorted(PREDEFINED_DESIGNS))
    precisions: tuple[str, ...] = (Precision.INT8.value,)
    schedulers: tuple[str, ...] = ("fcfs",)
    routers: tuple[str, ...] = ("round-robin",)
    autoscalers: tuple[str, ...] = ("fixed",)
    replica_counts: tuple[int, ...] = (1, 2, 4)
    max_batches: tuple[int, ...] = (32,)
    objectives: tuple[str, ...] = ("cost-per-million-tokens", "p99-ttft")
    constraints: tuple[str, ...] = ()
    strategy: str = "successive-halving"
    budget: int | None = None
    rate: float = 8.0
    requests: int = 200
    trace: str = "poisson"
    scenario: str = "chat-serving"
    input_tokens: int = 1024
    output_tokens: int = 512
    slo_ttft: float = 1.0
    slo_tpot: float = 0.1
    seed: int = 0
    capacity_bound: bool = True
    faults: tuple[str, ...] = ()
    overlay: str | None = None

    def __post_init__(self) -> None:
        self._freeze("designs", "precisions", "schedulers", "routers",
                     "autoscalers", "replica_counts", "max_batches",
                     "objectives", "constraints", "faults")
        self.resolve_model()
        self.objective_list()
        self.constraint_list()
        self.space()
        _check_choice(self.strategy, SEARCH_REGISTRY, "strategy",
                      "search strategy")
        _check_choice(self.trace, TRACE_REGISTRY, "trace", "trace kind")
        _check_positive(self.rate, "rate")
        _check_positive(self.requests, "requests")
        if self.budget is not None:
            _check_positive(self.budget, "budget")
        try:
            scenario = get_scenario(self.scenario)
        except KeyError as error:
            raise invalid_field("scenario", str(error.args[0])) from None
        if not scenario.supports(self.resolve_model()):
            raise invalid_field("scenario",
                                f"scenario '{self.scenario}' does not "
                                f"support model '{self.llm}'")
        _slo(self.slo_ttft, self.slo_tpot)
        _parse_faults(self.faults)
        _parse_overlay(self.overlay)

    def resolve_model(self) -> LLMConfig:
        """The search's LLM (optimisation prices serving fleets)."""
        try:
            model = get_model(self.llm)
        except KeyError as error:
            raise invalid_field("llm", str(error.args[0])) from None
        if not isinstance(model, LLMConfig):
            raise invalid_field(
                "llm", f"'{self.llm}' is not an LLM; co-design optimisation "
                       "prices serving fleets")
        return model

    def objective_list(self):
        try:
            return [get_objective(name) for name in self.objectives]
        except KeyError as error:
            raise invalid_field("objectives",
                                str(error.args[0]).strip('"')) from None

    def constraint_list(self):
        try:
            return [parse_constraint(text) for text in self.constraints]
        except (KeyError, ValueError) as error:
            raise invalid_field("constraints",
                                str(error).strip('"')) from None

    def space(self) -> DesignSpace:
        """The validated :class:`~repro.optimize.space.DesignSpace`."""
        try:
            return DesignSpace(
                designs=self.designs, precisions=self.precisions,
                schedulers=self.schedulers, routers=self.routers,
                autoscalers=self.autoscalers,
                replica_counts=self.replica_counts,
                max_batches=self.max_batches)
        except (KeyError, TypeError, ValueError) as error:
            raise ApiRequestError(ApiError(
                code="invalid-field",
                message=str(error).strip('"'))) from None


# ------------------------------------------------------- autoconfig preview
@dataclass(frozen=True)
class AutoconfigPreviewRequest(_Request):
    """Deterministic deployment-sizing analytics — zero simulations.

    Answers "what would it take to serve this model on this design at
    this rate" from the capacity model alone: footprint, minimum device
    count, KV budget and the fleet's capacity lower bound.
    """

    kind: ClassVar[str] = "autoconfig-preview"

    llm: str = GPT3_30B.name
    design: str = "design-a"
    rate: float = 8.0
    batch: int = 8
    input_tokens: int = 1024
    output_tokens: int = 512
    precision: str = Precision.INT8.value
    max_batch: int = 32
    scheduler: str = "fcfs"
    devices: int | None = None
    memory_utilisation: float = 0.9

    def __post_init__(self) -> None:
        _check_choice(self.design, PREDEFINED_DESIGNS, "design", "design")
        _check_choice(self.precision, _PRECISIONS, "precision", "precision")
        _check_choice(self.scheduler, SCHEDULER_REGISTRY, "scheduler",
                      "scheduler")
        try:
            model = get_model(self.llm)
        except KeyError as error:
            raise invalid_field("llm", str(error.args[0])) from None
        if not isinstance(model, LLMConfig):
            raise invalid_field(
                "llm", f"'{self.llm}' is not an LLM; deployment sizing is "
                       "modelled for LLM workloads")
        _check_positive(self.rate, "rate")
        _check_positive(self.batch, "batch")
        _check_positive(self.input_tokens, "input_tokens")
        _check_positive(self.output_tokens, "output_tokens")
        _check_positive(self.max_batch, "max_batch")
        if self.devices is not None:
            _check_positive(self.devices, "devices")
        if not isinstance(self.memory_utilisation, (int, float)) or \
                not 0 < self.memory_utilisation <= 1:
            raise invalid_field("memory_utilisation",
                                "memory_utilisation must be in (0, 1]")


#: kind -> request class, the gateway's routing table.
REQUEST_TYPES: dict[str, type] = {
    cls.kind: cls for cls in (SimulateRequest, FleetRequest, SweepRequest,
                              OptimizeRequest, AutoconfigPreviewRequest)
}


def request_from_dict(payload: Mapping[str, Any]):
    """Decode any request payload by its ``kind`` field."""
    if not isinstance(payload, Mapping):
        raise ApiRequestError(ApiError(
            code="invalid-json",
            message=f"request body must be a JSON object, "
                    f"got {type(payload).__name__}"))
    kind = payload.get("kind")
    if kind not in REQUEST_TYPES:
        known = ", ".join(sorted(REQUEST_TYPES))
        raise ApiRequestError(ApiError(
            code="invalid-kind",
            message=f"unknown request kind {kind!r}; choose one of: {known}",
            field="kind"))
    return REQUEST_TYPES[kind].from_dict(payload)
