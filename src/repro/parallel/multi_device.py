"""Multi-TPU inference simulation (Fig. 8 of the paper).

Up to four TPUs are connected in a ring over their ICI links and run the
generative model with pipeline parallelism: each device owns a contiguous
slice of the layer stack and forwards activations to its ring neighbour.  As
in production serving, enough independent request groups are assumed to be in
flight to keep every pipeline stage busy, so steady-state throughput is set by
the bottleneck stage:  the layers it owns plus the ICI hop.  MXU energy is
accumulated over all devices, which is how the paper reports the 24.2× /
6.34× multi-device energy reductions.

The deployment model is scenario-generic: any
:class:`~repro.workloads.scenario.Scenario` carries the pipeline-sliceable
unit count and per-group activation hops the ring model needs, so
:meth:`MultiTPUSystem.simulate_scenario` serves every registered workload —
LLM serving, DiT sampling, MoE, chat mixes — through one code path.  Tensor
parallelism uses the scenario spec's
:class:`~repro.workloads.scenario.TensorParallelSpec` (sharded model +
all-reduce volumes); scenarios without one reject the combination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.common import ceil_div
from repro.core.config import TPUConfig
from repro.core.simulator import DiTInferenceSettings, InferenceSimulator, LLMInferenceSettings
from repro.memory.interconnect import ICILink, RingTopology
from repro.workloads.dit import DiTConfig
from repro.workloads.llm import LLMConfig
from repro.workloads.scenario import Scenario, ScenarioSpec


@dataclass(frozen=True)
class MultiDeviceResult:
    """Steady-state throughput and energy of a multi-TPU deployment."""

    model_name: str
    tpu_name: str
    num_devices: int
    #: Seconds the bottleneck pipeline stage spends on one request group
    #: (prefill plus the full decode phase, or the full DiT sampling loop).
    stage_occupancy_seconds: float
    #: ICI communication seconds per request group at the bottleneck stage.
    communication_seconds: float
    #: Items (generated tokens or images) produced per request group.
    items_per_group: float
    item_unit: str
    #: MXU energy per request group summed over every device.
    mxu_energy_joules: float
    #: Total chip energy per request group summed over every device.
    total_energy_joules: float

    @property
    def throughput(self) -> float:
        """Items per second at steady state."""
        total = self.stage_occupancy_seconds + self.communication_seconds
        return self.items_per_group / total if total > 0 else 0.0

    @property
    def energy_per_item(self) -> float:
        """MXU energy per generated item."""
        return self.mxu_energy_joules / self.items_per_group if self.items_per_group else 0.0


@dataclass
class MultiTPUSystem:
    """A ring of identical TPUs running one generative model.

    ``parallelism`` selects how the model is spread over the ring:

    * ``"pipeline"`` (default, the paper's Fig. 8 configuration) — contiguous
      slices of the scenario's pipeline units per device, activations hop
      between neighbours.
    * ``"tensor"`` — every device holds a Megatron-style shard of every layer
      (heads and FFN inner dimension divided), with two all-reduces of the
      activations per layer.  Only supported for scenarios whose spec
      declares a :class:`~repro.workloads.scenario.TensorParallelSpec`.
    """

    tpu_config: TPUConfig
    num_devices: int
    link: ICILink = field(default_factory=ICILink)
    parallelism: str = "pipeline"
    #: Optional externally owned simulator (e.g. the sweep engine's caching
    #: simulator, so per-layer graphs are shared across device counts).  Must
    #: be configured with the same ``tpu_config`` as the system.
    simulator: InferenceSimulator | None = None

    def __post_init__(self) -> None:
        if self.num_devices <= 0:
            raise ValueError("num_devices must be positive")
        if self.parallelism not in ("pipeline", "tensor"):
            raise ValueError(f"unknown parallelism '{self.parallelism}' "
                             "(expected 'pipeline' or 'tensor')")
        if self.simulator is not None and self.simulator.tpu_config != self.tpu_config:
            raise ValueError("injected simulator is configured for "
                             f"'{self.simulator.tpu_config.name}', not "
                             f"'{self.tpu_config.name}'")
        self.topology = RingTopology(num_devices=self.num_devices, link=self.link)
        self._simulator = (self.simulator if self.simulator is not None
                           else InferenceSimulator(self.tpu_config))

    # -------------------------------------------------------------- scenarios
    def simulate_scenario(self, spec: ScenarioSpec, model: Any,
                          settings: Any) -> MultiDeviceResult:
        """Steady-state throughput of any registered scenario on the ring."""
        spec.check(model, settings)
        if self.parallelism == "tensor" and self.num_devices > 1:
            return self._simulate_tensor_parallel(spec, model, settings)
        return self._simulate_pipeline(spec.build(model, settings))

    def _simulate_pipeline(self, scenario: Scenario) -> MultiDeviceResult:
        """Pipeline parallelism: each device owns ``ceil(units / devices)``
        of the scenario's sliceable units; one activation hop per boundary."""
        units_per_device = ceil_div(scenario.pipeline_units, self.num_devices)

        stage_seconds = 0.0
        mxu_energy = 0.0
        total_energy = 0.0
        for stage in scenario.stages:
            graph = self._simulator.run_graph(stage.graph)
            stage_seconds += stage.repeats_per_unit * units_per_device * graph.total_seconds
            full_repeat = stage.repeats_per_unit * scenario.pipeline_units
            mxu_energy += full_repeat * graph.mxu_energy
            total_energy += full_repeat * graph.total_energy.total

        hops = 0.0
        if self.num_devices > 1:
            hops = sum(hop.count * self._hop_seconds(hop.bytes) for hop in scenario.hops)

        return MultiDeviceResult(
            model_name=scenario.model_name,
            tpu_name=self.tpu_config.name,
            num_devices=self.num_devices,
            stage_occupancy_seconds=stage_seconds,
            communication_seconds=hops,
            items_per_group=scenario.items,
            item_unit=scenario.item_unit,
            mxu_energy_joules=mxu_energy,
            total_energy_joules=total_energy,
        )

    def _simulate_tensor_parallel(self, spec: ScenarioSpec, model: Any,
                                  settings: Any) -> MultiDeviceResult:
        """Tensor parallelism: every device runs a shard of every unit."""
        if spec.tensor_parallel is None:
            raise ValueError(
                f"tensor parallelism is not modelled for scenario '{spec.name}'; "
                "use parallelism='pipeline'")
        degree = self.num_devices
        shard = spec.tensor_parallel.shard(model, degree)
        scenario = spec.build(shard, settings)

        occupancy = 0.0
        mxu_energy = 0.0
        total_energy = 0.0
        for stage in scenario.stages:
            graph = self._simulator.run_graph(stage.graph)
            full_repeat = stage.repeats_per_unit * scenario.pipeline_units
            occupancy += full_repeat * graph.total_seconds
            mxu_energy += degree * full_repeat * graph.mxu_energy
            total_energy += degree * full_repeat * graph.total_energy.total

        communication = sum(
            hop.count * self._all_reduce_seconds(hop.bytes)
            for hop in spec.tensor_parallel.all_reduce_hops(model, settings))

        return MultiDeviceResult(
            model_name=getattr(model, "name", scenario.model_name),
            tpu_name=self.tpu_config.name,
            num_devices=self.num_devices,
            stage_occupancy_seconds=occupancy,
            communication_seconds=communication,
            items_per_group=scenario.items,
            item_unit=scenario.item_unit,
            mxu_energy_joules=mxu_energy,
            total_energy_joules=total_energy,
        )

    # ------------------------------------------------------------------ named
    def simulate_llm(self, llm: LLMConfig,
                     settings: LLMInferenceSettings | None = None) -> MultiDeviceResult:
        """Steady-state LLM serving throughput on the ring.

        Resolves the model's default scenario, so an MoE configuration runs
        its expert layers here without any further wiring.
        """
        from repro.workloads.registry import scenario_for

        settings = settings if settings is not None else LLMInferenceSettings()
        return self.simulate_scenario(scenario_for(llm), llm, settings)

    def simulate_dit(self, dit: DiTConfig,
                     settings: DiTInferenceSettings | None = None) -> MultiDeviceResult:
        """Steady-state DiT sampling throughput on the ring."""
        from repro.workloads.registry import scenario_for

        settings = settings if settings is not None else DiTInferenceSettings()
        if self.parallelism == "tensor" and self.num_devices > 1:
            raise ValueError("tensor parallelism is only modelled for LLM workloads; "
                             "use parallelism='pipeline' for DiT")
        return self.simulate_scenario(scenario_for(dit), dit, settings)

    # ------------------------------------------------------------ internals
    def _hop_seconds(self, num_bytes: float) -> float:
        cycles = self.topology.point_to_point_cycles(num_bytes)
        return cycles / (self.link.frequency_ghz * 1e9)

    def _all_reduce_seconds(self, num_bytes: float) -> float:
        cycles = self.topology.all_reduce_cycles(num_bytes)
        return cycles / (self.link.frequency_ghz * 1e9)
