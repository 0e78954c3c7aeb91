"""Pipeline parallelism across TPUs connected in a ring.

Layers are divided into contiguous stages, one stage per device; activations
flow between neighbouring devices over an ICI hop.  Micro-batching (GPipe
style) keeps all stages busy: with ``m`` micro-batches and ``s`` stages the
pipeline completes in ``(m + s − 1)`` stage-times instead of ``m·s``, the
familiar "bubble" formula the model uses for prefill and for DiT steps.  For
autoregressive decoding the sequential token dependency means a single
micro-batch traverses the whole pipeline per token, but independent
micro-batches of the batch overlap, which is what sustains throughput.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common import ceil_div
from repro.memory.interconnect import RingTopology


@dataclass(frozen=True)
class PipelineParallelPlan:
    """Static description of a pipeline-parallel execution."""

    num_stages: int
    num_layers: int
    micro_batches: int
    topology: RingTopology

    def __post_init__(self) -> None:
        if self.num_stages <= 0 or self.num_layers <= 0 or self.micro_batches <= 0:
            raise ValueError("stages, layers and micro_batches must be positive")
        if self.num_stages > self.topology.num_devices:
            raise ValueError("cannot have more pipeline stages than devices")
        if self.num_stages > self.num_layers:
            raise ValueError("cannot have more pipeline stages than layers")

    @property
    def layers_per_stage(self) -> int:
        """Layers assigned to the most loaded stage."""
        return ceil_div(self.num_layers, self.num_stages)

    @property
    def bubble_fraction(self) -> float:
        """Fraction of pipeline time lost to fill/drain bubbles."""
        return (self.num_stages - 1) / (self.micro_batches + self.num_stages - 1)


@dataclass(frozen=True)
class PipelineSchedule:
    """Evaluated pipeline timings for one phase (prefill, decode or DiT step)."""

    plan: PipelineParallelPlan
    stage_seconds: float
    hop_seconds: float

    def __post_init__(self) -> None:
        if self.stage_seconds < 0 or self.hop_seconds < 0:
            raise ValueError("stage and hop times must be non-negative")

    @property
    def stage_with_hop_seconds(self) -> float:
        """Per-stage time including the ICI hop to the next stage."""
        return self.stage_seconds + self.hop_seconds

    def batch_latency(self) -> float:
        """Latency for all micro-batches to flow through the pipeline once."""
        plan = self.plan
        return (plan.micro_batches + plan.num_stages - 1) * self.stage_with_hop_seconds

    def sequential_traversal_latency(self) -> float:
        """Latency of one micro-batch traversing every stage (decode step)."""
        return self.plan.num_stages * self.stage_with_hop_seconds

    def decode_step_interval(self) -> float:
        """Average time per decode step for the whole batch.

        A decode step for one micro-batch must traverse all stages, but up to
        ``min(micro_batches, num_stages)`` micro-batches are in flight at
        once, so the batch-level step interval is the traversal latency
        divided by that overlap factor.
        """
        plan = self.plan
        overlap = min(plan.micro_batches, plan.num_stages)
        return self.sequential_traversal_latency() / overlap


def build_pipeline_plan(num_devices: int, num_layers: int, batch: int,
                        topology: RingTopology) -> PipelineParallelPlan:
    """Construct a pipeline plan with one micro-batch per batch item."""
    if num_devices <= 0 or batch <= 0:
        raise ValueError("num_devices and batch must be positive")
    return PipelineParallelPlan(num_stages=min(num_devices, num_layers),
                                num_layers=num_layers, micro_batches=batch,
                                topology=topology)
