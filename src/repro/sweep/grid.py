"""Sweep points and grids: the scenario space the engine evaluates.

A :class:`SweepPoint` is one fully specified evaluation: a TPU design, a
generative model, a registered scenario, the inference settings (batch,
precision, token counts or image resolution), and optionally a multi-device
deployment (device count and parallelism strategy).  A :class:`SweepGrid` is
the cartesian product the paper's evaluation sections are built from —
Table IV / Fig. 7 is (9 CIM designs + baseline) × (GPT-3-30B, DiT-XL/2);
Fig. 8 adds the device axis — widened here to every registered model, both
numeric precisions, multiple batch sizes and every registered scenario, as
the roadmap's scenario-diversity goal demands.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field, replace

from repro.common import Precision
from repro.core.config import TPUConfig
from repro.core.designs import PREDEFINED_DESIGNS
from repro.serving.faults import FaultSpec
from repro.serving.spec import ServingSpec
from repro.serving.trace import OverlaySpec
from repro.workloads.dit import DiTConfig
from repro.workloads.llm import LLMConfig
from repro.workloads.registry import (
    MODEL_REGISTRY,
    get_model,
    get_scenario,
    model_kind,
    scenario_for,
)
from repro.workloads.scenario import ScenarioKnobs, ScenarioSpec


@dataclass(frozen=True)
class SweepPoint:
    """One (design × model × scenario × settings × deployment) evaluation.

    ``scenario`` names an entry of the scenario registry; an empty string
    (the default) resolves to the model's default scenario, so pre-scenario
    call sites keep working unchanged.  An attached ``serving`` spec turns
    the point into a discrete-event serving run (trace + scheduler + SLO)
    instead of an analytical request-group evaluation; the scenario then
    contributes the request mix and precision.
    """

    design: str
    config: TPUConfig
    model: object
    settings: object
    devices: int = 1
    parallelism: str = "pipeline"
    scenario: str = ""
    serving: ServingSpec | None = None

    def __post_init__(self) -> None:
        if not self.design:
            raise ValueError("sweep point needs a design label")
        if self.devices <= 0:
            raise ValueError("devices must be positive")
        if self.parallelism not in ("pipeline", "tensor"):
            raise ValueError(f"unknown parallelism '{self.parallelism}' "
                             "(expected 'pipeline' or 'tensor')")
        spec = (get_scenario(self.scenario) if self.scenario
                else scenario_for(self.model))
        if not self.scenario:
            object.__setattr__(self, "scenario", spec.name)
        spec.check(self.model, self.settings)
        if self.serving is not None:
            if not isinstance(self.model, LLMConfig):
                raise ValueError("serving sweep points are modelled for LLM "
                                 f"workloads, not '{self.workload}'")
            if self.devices != 1:
                raise ValueError("serving sweep points plan their own deployment; "
                                 "set devices on the ServingSpec, not the point")

    @property
    def spec(self):
        """The resolved scenario spec of the point."""
        return get_scenario(self.scenario)

    @property
    def kind(self) -> str:
        """Workload family of the model (see
        :func:`repro.workloads.registry.model_kind`)."""
        return model_kind(self.model)

    @property
    def workload(self) -> str:
        """Model name of the point."""
        return self.model.name

    @property
    def precision(self) -> Precision:
        """Numeric precision of the point."""
        return self.settings.precision

    @property
    def batch(self) -> int:
        """Batch size of the point."""
        return self.settings.batch

    @property
    def settings_summary(self) -> str:
        """Human-readable settings summary used in tables and exports."""
        summary = self.spec.summarize(self.settings)
        if self.serving is not None:
            summary = f"{summary} {self.serving.summary()}"
        return summary


def _shards(spec: ScenarioSpec, model: LLMConfig | DiTConfig, devices: int) -> bool:
    """Whether scenario ``spec`` can shard ``model`` over ``devices`` chips."""
    if spec.tensor_parallel is None:
        return False
    try:
        spec.tensor_parallel.shard(model, devices)
    except ValueError:
        return False
    return True


def make_point(design: str, config: TPUConfig, model: LLMConfig | DiTConfig,
               precision: Precision = Precision.INT8, batch: int = 8, *,
               input_tokens: int = 1024, output_tokens: int = 512,
               decode_kv_samples: int = 4, image_resolution: int = 512,
               sampling_steps: int = 50, devices: int = 1,
               parallelism: str = "pipeline", scenario: str = "",
               serving: ServingSpec | None = None) -> SweepPoint:
    """Build a sweep point whose settings come from the scenario's knob adapter."""
    spec = get_scenario(scenario) if scenario else scenario_for(model)
    knobs = ScenarioKnobs(batch=batch, precision=precision,
                          input_tokens=input_tokens, output_tokens=output_tokens,
                          decode_kv_samples=decode_kv_samples,
                          image_resolution=image_resolution,
                          sampling_steps=sampling_steps)
    return SweepPoint(design=design, config=config, model=model,
                      settings=spec.make_settings(knobs),
                      devices=devices, parallelism=parallelism, scenario=spec.name,
                      serving=serving)


@dataclass
class SweepGrid:
    """A cartesian scenario grid expanded into an ordered list of points.

    The expansion order is deterministic (designs, then models, scenarios,
    precisions, batches, device counts and serving axes), which is what
    makes serial and parallel sweeps comparable row-for-row.  ``scenarios``
    of ``None`` runs each model under its default scenario; an explicit
    tuple runs every listed scenario whose capability covers the model
    (incompatible pairs are skipped, so e.g. ``chat-serving`` quietly passes
    over DiT models), as are, on a tensor-parallel grid, the scenarios that
    cannot shard the model over its widest device count;
    :meth:`scenarios_for` alone picks the pairs.

    Setting ``schedulers`` *and* ``arrival_rates`` turns the grid into a
    **serving grid**: every point carries a
    :class:`~repro.serving.spec.ServingSpec` crossing the two axes, so one
    grid answers "which scheduler at which load on which design".  Serving
    is modelled for LLM workloads; non-LLM models are skipped, the device
    axis must stay at ``(1,)`` because serving runs plan their own
    deployment, and the batch axis collapses to its first entry (request
    concurrency comes from the scheduler, not the settings batch, so extra
    batch values would only duplicate identical simulations).

    A serving grid additionally crosses the **fleet axes**: ``routers`` ×
    ``replica_counts`` (each under the single ``serving_autoscaler``
    policy), so one grid also answers "which routing policy at which fleet
    size".  Both default to the degenerate single-replica fleet and are
    only meaningful on serving grids.

    The **chaos axes** cross in the same way: every entry of ``fault_sets``
    (a tuple of :class:`~repro.serving.faults.FaultSpec` sources, with
    ``()`` meaning fault-free) × every entry of ``overlays`` (an
    :class:`~repro.serving.trace.OverlaySpec` arrival drift, with ``None``
    meaning the unmodified trace).  Chaos axes ride on serving grids only,
    and they travel inside the :class:`ServingSpec`, so the sweep engine's
    content-addressed caching fingerprints them like any other axis.
    """

    designs: Mapping[str, TPUConfig] = field(
        default_factory=lambda: dict(PREDEFINED_DESIGNS))
    models: Sequence[str] = field(default_factory=lambda: sorted(MODEL_REGISTRY))
    scenarios: Sequence[str] | None = None
    precisions: Sequence[Precision] = (Precision.INT8,)
    batches: Sequence[int] = (8,)
    device_counts: Sequence[int] = (1,)
    parallelism: str = "pipeline"
    # LLM scenario knobs.
    input_tokens: int = 1024
    output_tokens: int = 512
    decode_kv_samples: int = 4
    # DiT scenario knobs.
    image_resolution: int = 512
    sampling_steps: int = 50
    # Serving axes (both empty = analytical grid, both set = serving grid).
    schedulers: Sequence[str] = ()
    arrival_rates: Sequence[float] = ()
    serving_trace: str = "poisson"
    serving_requests: int = 200
    # Fleet axes of a serving grid (empty = single-replica, no fleet).
    routers: Sequence[str] = ()
    replica_counts: Sequence[int] = ()
    serving_autoscaler: str = "fixed"
    # Chaos axes of a serving grid: fault sources × arrival overlays.
    fault_sets: Sequence[Sequence[FaultSpec]] = ((),)
    overlays: Sequence[OverlaySpec | None] = (None,)
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.designs:
            raise ValueError("sweep grid needs at least one design")
        if not self.models:
            raise ValueError("sweep grid needs at least one model")
        if self.scenarios is not None and not self.scenarios:
            raise ValueError("scenarios must be None (defaults) or non-empty")
        for attr in ("precisions", "batches", "device_counts"):
            if not getattr(self, attr):
                raise ValueError(f"sweep grid needs at least one entry in '{attr}'")
        if bool(self.schedulers) != bool(self.arrival_rates):
            raise ValueError("serving grids need both schedulers and arrival_rates")
        if self.schedulers and tuple(self.device_counts) != (1,):
            raise ValueError("serving sweep points plan their own deployment; "
                             "keep device_counts at (1,)")
        if (self.routers or self.replica_counts) and not self.schedulers:
            raise ValueError("fleet axes (routers / replica_counts) need a "
                             "serving grid: set schedulers and arrival_rates")
        if any(count <= 0 for count in self.replica_counts):
            raise ValueError("replica_counts must be positive")
        if not self.fault_sets or not self.overlays:
            raise ValueError("fault_sets / overlays must be non-empty "
                             "(use ((),) / (None,) for the healthy axis)")
        chaos = (any(tuple(faults) for faults in self.fault_sets)
                 or any(overlay is not None for overlay in self.overlays))
        if chaos and not self.schedulers:
            raise ValueError("chaos axes (fault_sets / overlays) need a "
                             "serving grid: set schedulers and arrival_rates")

    @property
    def is_serving(self) -> bool:
        """Whether this grid carries the serving axes."""
        return bool(self.schedulers)

    @property
    def shard_devices(self) -> int:
        """The widest device count a tensor grid shards models over, else 1."""
        return max(self.device_counts) if self.parallelism == "tensor" else 1

    def serving_specs(self) -> list[ServingSpec | None]:
        """The serving axes of the grid (``[None]`` for analytical grids).

        A replica count of 1 is physically identical under every router and
        autoscaler (the point runs the plain single-deployment simulator),
        so such specs are normalised to the default policies and
        deduplicated — ``routers=(a, b)`` with ``replica_counts=(1, 2)``
        yields one single-replica spec plus one two-replica spec per router,
        not duplicate rows.
        """
        if not self.is_serving:
            return [None]
        routers = tuple(self.routers) or ("round-robin",)
        replica_counts = tuple(self.replica_counts) or (1,)
        specs: list[ServingSpec] = []
        seen: set[ServingSpec] = set()
        for scheduler in self.schedulers:
            for rate in self.arrival_rates:
                for router in routers:
                    for count in replica_counts:
                        fleet = ({"replicas": count, "router": router,
                                  "autoscaler": self.serving_autoscaler}
                                 if count > 1 else {})
                        for faults in self.fault_sets:
                            for overlay in self.overlays:
                                spec = ServingSpec(
                                    scheduler=scheduler,
                                    trace=self.serving_trace,
                                    arrival_rate=rate,
                                    num_requests=self.serving_requests,
                                    seed=self.seed, faults=tuple(faults),
                                    overlay=overlay, **fleet)
                                if spec not in seen:
                                    seen.add(spec)
                                    specs.append(spec)
        return specs

    def scenarios_for(self, model: LLMConfig | DiTConfig) -> list[str]:
        """The scenario names this grid runs the model under."""
        if self.is_serving and not isinstance(model, LLMConfig):
            return []
        specs = ([scenario_for(model)] if self.scenarios is None
                 else [get_scenario(name) for name in self.scenarios])
        devices = self.shard_devices
        return [spec.name for spec in specs if spec.supports(model)
                and (devices == 1 or _shards(spec, model, devices))]

    def points(self) -> list[SweepPoint]:
        """Expand the grid into its ordered list of sweep points."""
        return list(self)

    def _batch_axis(self) -> Sequence[int]:
        """The effective batch axis (collapsed for serving grids)."""
        return tuple(self.batches)[:1] if self.is_serving else self.batches

    def __iter__(self) -> Iterator[SweepPoint]:
        serving_specs = self.serving_specs()
        for design, config in self.designs.items():
            for model_name in self.models:
                model = get_model(model_name)
                for scenario in self.scenarios_for(model):
                    for precision in self.precisions:
                        for batch in self._batch_axis():
                            for devices in self.device_counts:
                                for serving in serving_specs:
                                    yield make_point(
                                        design, config, model, precision, batch,
                                        input_tokens=self.input_tokens,
                                        output_tokens=self.output_tokens,
                                        decode_kv_samples=self.decode_kv_samples,
                                        image_resolution=self.image_resolution,
                                        sampling_steps=self.sampling_steps,
                                        devices=devices, parallelism=self.parallelism,
                                        scenario=scenario, serving=serving)

    def __len__(self) -> int:
        model_scenarios = sum(len(self.scenarios_for(get_model(name)))
                              for name in self.models)
        return (len(self.designs) * model_scenarios * len(self.precisions)
                * len(self._batch_axis()) * len(self.device_counts)
                * len(self.serving_specs()))

    def with_updates(self, **kwargs: object) -> "SweepGrid":
        """Return a copy of the grid with the given fields replaced."""
        return replace(self, **kwargs)


def default_grid(**overrides: object) -> SweepGrid:
    """The default scenario space: every registered model on every predefined
    design, at INT8 and BF16, across small and serving batch sizes.

    This widens the paper's Table IV grid (GPT-3-30B and DiT-XL/2 only, INT8,
    batch 8) to the full model registry — GPT-3-175B, Llama-2-7B/13B,
    Mixtral-8x7B and DiT-XL/2 included — which is the scenario space the
    ``repro-sim sweep`` subcommand explores.  BF16 is the 16-bit format the
    chip model supports (the CIM macro loads 8-bit mantissas either way).
    """
    grid = SweepGrid(precisions=(Precision.INT8, Precision.BF16), batches=(1, 8))
    return grid.with_updates(**overrides) if overrides else grid
