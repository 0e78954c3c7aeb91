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
* **Typed fields.**  First, every field is held to its annotation
  (:func:`field_types`): a list becomes a tuple, an integer in a float
  field that float (JSON spells ``16.0`` as ``16``), any other type is
  ``invalid-field`` naming the field (``faults[0]`` for a list item).  One
  request has one spelling, and one fingerprint, on every surface.
* **Exact JSON round-trip.**  ``to_dict`` emits only JSON primitives
  (tuples as lists) and ``from_dict(to_dict(r))`` reconstructs ``r``
  exactly; floats survive by JSON's ``repr`` round-trip.  Responses share
  both (:func:`envelope_payload`, :func:`decode_envelope`).
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
import functools
import typing
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, ClassVar, NamedTuple

from repro.api.errors import ApiError, ApiRequestError, invalid_field
from repro.common import Precision
from repro.core.designs import PREDEFINED_DESIGNS
from repro.optimize import OBJECTIVE_REGISTRY, DesignSpace, parse_constraint
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
from repro.workloads.registry import MODEL_REGISTRY, SCENARIO_REGISTRY
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


def _registered(registry, name: str, field_name: str):
    """``registry[name]``, or ``invalid-field`` worded as the registry words
    an unknown name."""
    try:
        return registry[name]
    except KeyError as error:
        raise invalid_field(field_name, error.args[0]) from None


def _check_positive(value: float, field_name: str) -> None:
    if not value > 0:
        raise invalid_field(field_name, f"{field_name} must be positive")


def _check_fidelity(fidelity: str, faults, overlay) -> None:
    if fidelity not in ("exact", "fluid"):
        raise invalid_field("fidelity", "fidelity must be 'exact' or 'fluid'")
    if fidelity == "fluid" and (faults or overlay):
        raise invalid_field("fidelity",
                            "fluid fidelity cannot replay faults or "
                            "overlays; chaos runs need the exact event loop")


def _parse_faults(texts):
    specs = []
    for index, text in enumerate(texts):
        try:
            specs.append(parse_fault(text))
        except (KeyError, ValueError) as error:
            raise ApiRequestError(ApiError(
                code="invalid-field", message=str(error).strip('"'),
                field=f"faults[{index}]")) from None
    return tuple(specs)


def _parse_overlay(text):
    if text is None:
        return None
    try:
        return parse_overlay(text)
    except (KeyError, ValueError) as error:
        raise ApiRequestError(ApiError(
            code="invalid-field", message=str(error).strip('"'),
            field="overlay")) from None


def _resolve_workload(llm: str, design: str, scenario: str, *, batch: int,
                      precision: str, input_tokens: int, output_tokens: int):
    """(model, chip config, scenario settings) shared by serve/fleet runs.

    Re-uses the CLI's exact error wording so the same mistake reads the
    same on every surface.
    """
    _check_choice(design, PREDEFINED_DESIGNS, "design", "design")
    model = _registered(MODEL_REGISTRY, llm, "llm")
    if not isinstance(model, LLMConfig):
        raise invalid_field(
            "llm", f"'{llm}' is not an LLM; serving is modelled "
                   "for LLM workloads")
    spec = _registered(SCENARIO_REGISTRY, scenario, "scenario")
    if not spec.supports(model):
        raise invalid_field("scenario",
                            f"scenario '{scenario}' does not support "
                            f"model '{model.name}'")
    _check_choice(precision, _PRECISIONS, "precision", "precision")
    _check_positive(batch, "batch")
    _check_positive(input_tokens, "input_tokens")
    _check_positive(output_tokens, "output_tokens")
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


def _serving_spec(request, **fields) -> ServingSpec:
    """A serving request's :class:`ServingSpec` (validated; chaos strings
    parsed): the workload fields every serving kind has, plus the spec
    ``fields`` one kind adds.
    """
    try:
        return ServingSpec(
            trace=request.trace, arrival_rate=request.rate,
            num_requests=request.requests, seed=request.seed,
            slo=_slo(request.slo_ttft, request.slo_tpot),
            faults=_parse_faults(request.faults),
            overlay=_parse_overlay(request.overlay), **fields)
    except (TypeError, ValueError) as error:
        raise ApiRequestError(ApiError(code="invalid-field",
                                       message=str(error))) from None


# ------------------------------------------------------------ envelope codec
def envelope_payload(envelope) -> dict[str, Any]:
    """A request or response as JSON: kind, schema version, then fields.

    Shallow: a response's report, frontier and rows are codec payloads
    already, so only tuples become lists.
    """
    payload: dict[str, Any] = {"kind": envelope.kind,
                               "schema_version": SCHEMA_VERSION}
    for f in dataclasses.fields(envelope):
        value = getattr(envelope, f.name)
        payload[f.name] = list(value) if isinstance(value, tuple) else value
    return payload


def _check_object(payload: object, family: str) -> None:
    if not isinstance(payload, Mapping):
        raise ApiRequestError(ApiError(
            code="invalid-json",
            message=f"{family} body must be a JSON object, "
                    f"got {type(payload).__name__}"))


def decode_envelope(cls, payload: Mapping[str, Any]):
    """Strictly decode ``payload`` into request or response class ``cls``."""
    _check_object(payload, cls.family)
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


def decode_by_kind(payload: Mapping[str, Any], types: Mapping[str, type],
                   family: str):
    """Strictly decode a request or response payload by its ``kind``."""
    _check_object(payload, family)
    kind = payload.get("kind")
    if kind not in types:
        known = ", ".join(sorted(types))
        raise ApiRequestError(ApiError(
            code="invalid-kind",
            message=f"unknown {family} kind {kind!r}; choose one of: {known}",
            field="kind"))
    return decode_envelope(types[kind], payload)


# ------------------------------------------------------------ field types
#: The scalar types a request field may hold, with the noun an error uses.
_NOUNS = {int: "an integer", float: "a number", str: "a string",
          bool: "a boolean"}


class FieldType(NamedTuple):
    """How a request field is annotated: ``scalar``, ``tuple[scalar, ...]``
    when ``many``, either one ``| None`` when ``optional``."""

    scalar: type
    many: bool
    optional: bool


@functools.cache
def field_types(cls: type) -> dict[str, FieldType]:
    """Field name -> :class:`FieldType` of a request class, in field order.

    The one reader of the request annotations: the construction-time type
    check and the CLI's flags both follow it.  An annotation outside
    int/float/str/bool, their tuples and ``| None`` is a schema bug.
    """
    hints = typing.get_type_hints(cls)
    plan = {}
    for f in dataclasses.fields(cls):
        annotation, args = hints[f.name], typing.get_args(hints[f.name])
        optional = type(None) in args
        if optional:
            (annotation,) = (arg for arg in args if arg is not type(None))
        many = typing.get_origin(annotation) is tuple
        scalar = typing.get_args(annotation)[0] if many else annotation
        if scalar not in _NOUNS:
            raise TypeError(f"{cls.__name__}.{f.name}: unsupported request "
                            f"field annotation {hints[f.name]!r}")
        plan[f.name] = FieldType(scalar, many, optional)
    return plan


def _held(scalar: type, value: object, name: str, index: int | None = None):
    """``value`` as a ``scalar`` field holds it, or ``invalid-field``."""
    if value.__class__ is scalar:
        return value
    if not isinstance(value, bool):
        if isinstance(value, scalar):
            return value
        if scalar is float and isinstance(value, int):
            return float(value)
    path = name if index is None else f"{name}[{index}]"
    raise invalid_field(path, f"{path} must be {_NOUNS[scalar]}, "
                              f"got {type(value).__name__}")


class _Request:
    """Shared encode/decode surface of every request kind."""

    kind: ClassVar[str] = ""
    family: ClassVar[str] = "request"

    to_dict = envelope_payload
    from_dict = classmethod(decode_envelope)

    def _normalise(self) -> None:
        """Hold every field to its annotation (see :func:`field_types`)."""
        values = self.__dict__
        for name, (scalar, many, optional) in field_types(type(self)).items():
            value = values[name]
            if value is None and optional:
                continue
            if not many:
                held = _held(scalar, value, name)
            elif isinstance(value, (list, tuple)):
                held = tuple([_held(scalar, item, name, index)
                              for index, item in enumerate(value)])
            else:
                raise invalid_field(name, f"{name} must be a list, "
                                          f"got {type(value).__name__}")
            if held is not value:
                object.__setattr__(self, name, held)


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
        self._normalise()
        self.resolve()
        _check_positive(self.rate, "rate")
        _check_positive(self.requests, "requests")
        _check_positive(self.replicas, "replicas")
        _check_positive(self.max_batch, "max_batch")
        _check_positive(self.bucket, "bucket")
        if self.devices is not None:
            _check_positive(self.devices, "devices")
        if not 1 <= self.min_replicas <= self.replicas:
            raise invalid_field("min_replicas",
                                "min_replicas must be in [1, replicas]")
        _check_fidelity(self.fidelity, self.faults, self.overlay)
        self.spec()

    def resolve(self):
        """(model, chip config, scenario settings) of this run."""
        _registered(SCHEDULER_REGISTRY, self.scheduler, "scheduler")
        _registered(ROUTER_REGISTRY, self.router, "router")
        _registered(AUTOSCALER_REGISTRY, self.autoscaler, "autoscaler")
        _registered(TRACE_REGISTRY, self.trace, "trace")
        return _resolve_workload(self.llm, self.design, self.scenario,
                                 batch=self.batch, precision=self.precision,
                                 input_tokens=self.input_tokens,
                                 output_tokens=self.output_tokens)

    def spec(self) -> ServingSpec:
        """The run's :class:`ServingSpec`."""
        return _serving_spec(
            self, scheduler=self.scheduler, max_batch=self.max_batch,
            bucket_tokens=self.bucket, devices=self.devices,
            replicas=self.replicas, router=self.router,
            autoscaler=self.autoscaler, min_replicas=self.min_replicas,
            fidelity=self.fidelity)


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
        self._normalise()
        self.resolve()
        _check_positive(self.rate, "rate")
        _check_positive(self.max_replicas, "max_replicas")
        _check_positive(self.requests, "requests")
        _check_positive(self.max_batch, "max_batch")
        if not 0 < self.attainment <= 1:
            raise invalid_field("attainment",
                                "attainment_target must be in (0, 1]")
        _check_fidelity(self.fidelity, self.faults, self.overlay)
        self.spec()

    def resolve(self):
        """(model, chip config, scenario settings) of this plan."""
        _registered(SCHEDULER_REGISTRY, self.scheduler, "scheduler")
        _registered(ROUTER_REGISTRY, self.router, "router")
        _registered(TRACE_REGISTRY, self.trace, "trace")
        return _resolve_workload(self.llm, self.design, self.scenario,
                                 batch=self.batch, precision=self.precision,
                                 input_tokens=self.input_tokens,
                                 output_tokens=self.output_tokens)

    def spec(self) -> ServingSpec:
        """The plan's one-replica :class:`ServingSpec`; the planner grows
        its ``replicas``."""
        return _serving_spec(self, scheduler=self.scheduler,
                             max_batch=self.max_batch, router=self.router,
                             fidelity=self.fidelity)


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
        self._normalise()
        self.grid()
        if self.workers is not None:
            _check_positive(self.workers, "workers")

    def grid(self) -> SweepGrid:
        """The validated :class:`~repro.sweep.grid.SweepGrid` to evaluate."""
        designs = {}
        for name in self.designs:
            _check_choice(name, PREDEFINED_DESIGNS, "designs", "design")
            designs[name] = PREDEFINED_DESIGNS[name]
        models = [_registered(MODEL_REGISTRY, name, "models")
                  for name in self.models]
        for name in self.scenarios or ():
            _registered(SCENARIO_REGISTRY, name, "scenarios")
        for name in self.schedulers:
            _registered(SCHEDULER_REGISTRY, name, "schedulers")
        for name in self.routers:
            _registered(ROUTER_REGISTRY, name, "routers")
        _registered(TRACE_REGISTRY, self.trace, "trace")
        _registered(AUTOSCALER_REGISTRY, self.autoscaler, "autoscaler")
        for name in self.precisions:
            _check_choice(name, _PRECISIONS, "precisions", "precision")
        try:
            grid = SweepGrid(
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
        if not any(grid.scenarios_for(model) for model in models):
            raise invalid_field("models", _no_point(grid, models))
        return grid


def _no_point(grid: SweepGrid, models) -> str:
    """Why ``grid`` runs none of ``models``, worded by the axis at fault."""
    if grid.is_serving and not any(isinstance(m, LLMConfig) for m in models):
        return "serving sweeps are only modelled for LLM workloads"
    if any(grid.with_updates(parallelism="pipeline").scenarios_for(m) for m in models):
        return "tensor parallelism is only modelled for LLM workloads"
    return f"no requested model runs under the scenarios {', '.join(grid.scenarios)}"


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
        self._normalise()
        self.resolve_model()
        self.objective_list()
        self.constraint_list()
        self.space()
        _registered(SEARCH_REGISTRY, self.strategy, "strategy")
        _registered(TRACE_REGISTRY, self.trace, "trace")
        _check_positive(self.rate, "rate")
        _check_positive(self.requests, "requests")
        if self.budget is not None:
            _check_positive(self.budget, "budget")
        scenario = _registered(SCENARIO_REGISTRY, self.scenario, "scenario")
        if not scenario.supports(self.resolve_model()):
            raise invalid_field("scenario",
                                f"scenario '{self.scenario}' does not "
                                f"support model '{self.llm}'")
        self.spec()

    def resolve_model(self) -> LLMConfig:
        """The search's LLM (optimisation prices serving fleets)."""
        model = _registered(MODEL_REGISTRY, self.llm, "llm")
        if not isinstance(model, LLMConfig):
            raise invalid_field(
                "llm", f"'{self.llm}' is not an LLM; co-design optimisation "
                       "prices serving fleets")
        return model

    def spec(self) -> ServingSpec:
        """The search's workload :class:`ServingSpec`; each candidate
        supplies its own deployment and fleet shape."""
        return _serving_spec(self)

    def objective_list(self):
        return [_registered(OBJECTIVE_REGISTRY, name, "objectives")
                for name in self.objectives]

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
        self._normalise()
        _check_choice(self.design, PREDEFINED_DESIGNS, "design", "design")
        _check_choice(self.precision, _PRECISIONS, "precision", "precision")
        _registered(SCHEDULER_REGISTRY, self.scheduler, "scheduler")
        model = _registered(MODEL_REGISTRY, self.llm, "llm")
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
        if not 0 < self.memory_utilisation <= 1:
            raise invalid_field("memory_utilisation",
                                "memory_utilisation must be in (0, 1]")


#: kind -> request class, the gateway's routing table.
REQUEST_TYPES: dict[str, type] = {
    cls.kind: cls for cls in (SimulateRequest, FleetRequest, SweepRequest,
                              OptimizeRequest, AutoconfigPreviewRequest)
}


def request_from_dict(payload: Mapping[str, Any]):
    """Decode any request payload by its ``kind`` field."""
    return decode_by_kind(payload, REQUEST_TYPES, "request")
