"""Memory-capacity planning for generative-model deployment on TPUs.

The paper's single-layer evaluation sidesteps an important deployment
constraint that its multi-device section then addresses: a GPT-3-30B class
model does not fit into one TPUv4i's 8 GB of HBM once weights and the KV cache
are accounted for, which is one of the reasons the paper scales to multi-TPU
rings.  This module computes model footprints (weights, KV cache, peak
activations), checks them against a chip configuration, and derives the
minimum device count and a suggested parallelism strategy — the capacity side
of the paper's "tensor parallelism and pipeline parallelism" statement.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.common import Precision, ceil_div
from repro.core.config import TPUConfig
from repro.workloads.dit import DiTConfig
from repro.workloads.llm import LLMConfig
from repro.workloads.moe import MoEConfig

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.serving.spec import ServingSpec


@dataclass(frozen=True)
class ModelFootprint:
    """Memory footprint of one model under a given inference setting."""

    model_name: str
    weight_bytes: int
    kv_cache_bytes: int
    activation_bytes: int

    def __post_init__(self) -> None:
        if self.weight_bytes < 0 or self.kv_cache_bytes < 0 or self.activation_bytes < 0:
            raise ValueError("footprint components must be non-negative")

    @property
    def total_bytes(self) -> int:
        """Total main-memory footprint."""
        return self.weight_bytes + self.kv_cache_bytes + self.activation_bytes

    @property
    def total_gib(self) -> float:
        """Total footprint in GiB."""
        return self.total_bytes / 2**30


def llm_weight_bytes(model: LLMConfig, precision: Precision = Precision.INT8) -> int:
    """Resident weight bytes of an LLM: every layer plus embeddings/LM head.

    For MoE models every expert's weights count even though only ``top_k``
    are active per token — the capacity pressure that makes MoE serving a
    multi-device problem.
    """
    layer = model.layer_config()
    if isinstance(model, MoEConfig):
        attn = (layer.d_model * layer.qkv_output_dim
                + layer.num_heads * layer.resolved_head_dim * layer.d_model)
        per_layer = attn + model.expert_weight_bytes_per_layer
    else:
        per_layer = layer.weight_bytes_per_layer
    return (model.num_layers * per_layer
            + 2 * model.vocab_size * model.d_model) * precision.bytes


def llm_footprint(model: LLMConfig, batch: int, context_tokens: int,
                  precision: Precision = Precision.INT8) -> ModelFootprint:
    """Footprint of an LLM serving ``batch`` sequences of ``context_tokens``.

    Weights cover every Transformer layer plus the embedding/LM-head matrices;
    the KV cache covers the full context; activations are the double-buffered
    working set of one layer (inputs, attention scores for one head group and
    FFN intermediates), which is what must co-reside with weights in HBM.
    """
    if batch <= 0 or context_tokens <= 0:
        raise ValueError("batch and context_tokens must be positive")
    weight_bytes = llm_weight_bytes(model, precision)
    kv_bytes = model.kv_cache_bytes(batch, context_tokens, precision)
    tokens = batch * context_tokens
    activation_bytes = 2 * tokens * (model.d_model + model.d_ff) * precision.bytes
    return ModelFootprint(model_name=model.name, weight_bytes=weight_bytes,
                          kv_cache_bytes=kv_bytes, activation_bytes=activation_bytes)


def dit_footprint(model: DiTConfig, batch: int, image_resolution: int = 512,
                  precision: Precision = Precision.INT8) -> ModelFootprint:
    """Footprint of DiT sampling at the given batch and resolution."""
    if batch <= 0 or image_resolution <= 0:
        raise ValueError("batch and image_resolution must be positive")
    layer = model.layer_config()
    cond_mlp = model.d_model * 6 * model.d_model
    weight_bytes = model.depth * (layer.weight_bytes_per_layer + cond_mlp) * precision.bytes
    tokens = batch * model.tokens_for_resolution(image_resolution)
    activation_bytes = 2 * tokens * (model.d_model + model.d_ff) * precision.bytes
    # Attention scores of one block (per head, token × token) also live on chip
    # transiently; DiT has no KV cache.
    score_bytes = batch * model.num_heads * model.tokens_for_resolution(image_resolution) ** 2
    return ModelFootprint(model_name=model.name, weight_bytes=weight_bytes,
                          kv_cache_bytes=0, activation_bytes=activation_bytes + score_bytes)


@dataclass(frozen=True)
class CapacityPlan:
    """Result of fitting a model footprint onto a TPU configuration."""

    footprint: ModelFootprint
    device_memory_bytes: int
    fits_single_device: bool
    min_devices: int
    suggested_parallelism: str

    @property
    def memory_per_device_bytes(self) -> float:
        """Footprint share per device at the minimum device count."""
        return self.footprint.total_bytes / self.min_devices


def plan_capacity(footprint: ModelFootprint, tpu: TPUConfig,
                  memory_utilisation: float = 0.9) -> CapacityPlan:
    """Derive the minimum device count and a parallelism suggestion.

    ``memory_utilisation`` reserves headroom for fragmentation, the runtime
    and double-buffered staging (10 % by default).  The suggestion follows the
    paper's practice: weights dominating the footprint favours pipeline
    parallelism (weights are partitioned by layer, with only activations on
    the ICI); a KV-cache-dominated footprint favours tensor parallelism so the
    cache is sharded with the heads.
    """
    if not 0 < memory_utilisation <= 1:
        raise ValueError("memory_utilisation must be in (0, 1]")
    usable = int(tpu.main_memory_bytes * memory_utilisation)
    min_devices = max(1, ceil_div(footprint.total_bytes, usable))
    fits = min_devices == 1
    if fits:
        suggestion = "single-device"
    elif footprint.kv_cache_bytes > footprint.weight_bytes:
        suggestion = "tensor"
    else:
        suggestion = "pipeline"
    return CapacityPlan(footprint=footprint, device_memory_bytes=tpu.main_memory_bytes,
                        fits_single_device=fits, min_devices=min_devices,
                        suggested_parallelism=suggestion)


@dataclass(frozen=True)
class FleetEvaluation:
    """Outcome of trying one replica count against the SLO target."""

    replicas: int
    slo_attainment: float
    p99_ttft_s: float
    p99_tpot_s: float
    goodput_requests_per_second: float
    goodput_tokens_per_second: float
    mean_active_replicas: float
    cost_per_million_tokens_dollars: float


@dataclass(frozen=True)
class FleetPlan:
    """Result of sizing a replica fleet for an SLO at a target request rate."""

    model_name: str
    tpu_name: str
    arrival_rate: float
    attainment_target: float
    #: Whether any tried fleet met the target, and the smallest replica
    #: count that did (``None`` when even ``max_replicas`` fell short).
    met: bool
    replicas: int | None
    evaluations: tuple[FleetEvaluation, ...]


def fleet_lower_bound(model: LLMConfig, tpu: TPUConfig, *, arrival_rate: float,
                      request_classes=None, scheduler: str = "fcfs",
                      max_batch: int = 32,
                      precision: Precision = Precision.INT8,
                      devices: int | None = None,
                      memory_utilisation: float = 0.9) -> int:
    """Capacity lower bound on the replica count sustaining ``arrival_rate``.

    The same estimate the cluster's routing front-end acts on: one replica
    serialises prefill (one prompt at a time at the mix's mean prefill
    cost) while decode shares ``max_batch`` slots at the full-batch decode
    step cost — whichever binds caps the per-replica request rate, and the
    bound is ``ceil(arrival_rate / per-replica rate)``.  Fleets below it
    cannot even sustain the offered throughput, so :func:`plan_fleet`
    starts its search here and the co-design optimizer prunes such
    candidates before simulating them.

    Raises
    ------
    ValueError
        On a non-positive ``arrival_rate``.
    """
    # Imported lazily: repro.serving layers on top of repro.analysis, so a
    # top-level import here would be circular.
    from repro.serving.simulator import ServingSimulator
    from repro.workloads.chat import DEFAULT_REQUEST_MIX, mix_fractions

    if arrival_rate <= 0:
        raise ValueError("arrival_rate must be positive")
    classes = tuple(request_classes) if request_classes else DEFAULT_REQUEST_MIX
    probe = ServingSimulator(model, tpu, scheduler=scheduler, precision=precision,
                             max_batch=max_batch, devices=devices,
                             memory_utilisation=memory_utilisation)
    step = probe.costs.decode_cost(max_batch, probe.costs.bucket_tokens)
    fractions = mix_fractions(classes)
    mean_output = sum(fraction * cls.output_tokens
                      for fraction, cls in zip(fractions, classes))
    mean_prefill_s = sum(
        fraction * probe.costs.prefill_cost(1, cls.input_tokens).seconds
        for fraction, cls in zip(fractions, classes))
    per_replica_rate = min(1.0 / mean_prefill_s,
                           max_batch / (mean_output * step.seconds))
    return max(1, int(math.ceil(arrival_rate / per_replica_rate)))


def plan_fleet(model: LLMConfig, tpu: TPUConfig, spec: "ServingSpec",
               settings: object, *,
               attainment_target: float = 0.95, max_replicas: int = 16,
               store=None, telemetry=None) -> FleetPlan:
    """Smallest replica count that meets an SLO at a target request rate.

    Replays the seeded trace of the :class:`~repro.serving.spec.ServingSpec`
    ``spec`` (its arrivals over the request mix of the scenario
    ``settings``) through fleets of identical replicas, growing
    ``spec.replicas`` until the SLO attainment reaches
    ``attainment_target``, and returns the first count that met it
    together with every evaluation tried — the fleet analogue of
    :func:`plan_capacity`.  Fleets that cannot even sustain the offered
    token throughput are skipped up front: the search starts at the
    capacity lower bound ``ceil(arrival_rate × mean output tokens /
    estimated per-replica decode throughput)``, the same estimate the
    cluster's router acts on.  All fleets share step prices through the
    process-wide step-price table, so the incremental cost of each extra
    evaluation is the event loop, not re-pricing.

    A fluid ``spec`` sizes the fleet with the closed-form estimator
    instead of event-loop replays — each candidate fleet costs
    milliseconds regardless of trace length, at the estimator's
    golden-bounded error.  A chaos-aware spec sizes the fleet against the
    degraded trace and fleet: the overlay warps the arrivals, the faults
    replay in every evaluation.

    Every candidate fleet is one
    :func:`~repro.serving.cluster.simulate_cluster` call.  With a persistent
    ``store`` each is keyed by
    :func:`~repro.serving.cluster.cluster_run_key`, so a repeated plan
    replays nothing; the plan itself is bit-for-bit the storeless one.

    Raises
    ------
    ValueError
        On a non-positive fleet ceiling or a target outside (0, 1].
    """
    # Imported lazily: repro.serving layers on top of repro.analysis, so a
    # top-level import here would be circular.
    from repro.serving.cluster import simulate_cluster
    from repro.serving.trace import request_classes_from_settings

    if max_replicas <= 0:
        raise ValueError("max_replicas must be positive")
    if not 0 < attainment_target <= 1:
        raise ValueError("attainment_target must be in (0, 1]")
    lower_bound = fleet_lower_bound(
        model, tpu, arrival_rate=spec.arrival_rate,
        request_classes=request_classes_from_settings(settings),
        scheduler=spec.scheduler, max_batch=spec.max_batch,
        precision=settings.precision, devices=spec.devices,
        memory_utilisation=spec.memory_utilisation)

    evaluations: list[FleetEvaluation] = []
    met_at: int | None = None
    for count in range(min(lower_bound, max_replicas), max_replicas + 1):
        report = simulate_cluster(model, tpu,
                                  dataclasses.replace(spec, replicas=count),
                                  settings, store=store, telemetry=telemetry)
        evaluations.append(FleetEvaluation(
            replicas=count, slo_attainment=report.slo_attainment,
            p99_ttft_s=report.ttft.p99_s, p99_tpot_s=report.tpot.p99_s,
            goodput_requests_per_second=report.goodput_requests_per_second,
            goodput_tokens_per_second=report.goodput_tokens_per_second,
            mean_active_replicas=report.mean_active_replicas,
            cost_per_million_tokens_dollars=report.cost_per_million_tokens_dollars))
        if report.slo_attainment >= attainment_target:
            met_at = count
            break
    return FleetPlan(model_name=model.name, tpu_name=tpu.name,
                     arrival_rate=spec.arrival_rate,
                     attainment_target=attainment_target,
                     met=met_at is not None, replicas=met_at,
                     evaluations=tuple(evaluations))


def serving_kv_budget(model: LLMConfig, tpu: TPUConfig, *, devices: int = 1,
                      max_batch: int = 32,
                      precision: Precision = Precision.INT8,
                      memory_utilisation: float = 0.9) -> int:
    """HBM bytes a serving deployment can commit to the KV cache.

    ``devices`` pipeline-parallel chips hold the weights once (layers are
    partitioned, not replicated), so the budget is the deployment's usable
    memory minus the resident weights and the decode-step working set of a
    full batch (one token per running sequence).  Prefill activations are
    assumed chunked/paged, as production serving stacks do, so they do not
    reserve budget.  The result may be non-positive — the caller's signal
    that the model does not fit the deployment at all.
    """
    if devices <= 0 or max_batch <= 0:
        raise ValueError("devices and max_batch must be positive")
    if not 0 < memory_utilisation <= 1:
        raise ValueError("memory_utilisation must be in (0, 1]")
    usable = devices * int(tpu.main_memory_bytes * memory_utilisation)
    decode_working_set = 2 * max_batch * (model.d_model + model.d_ff) * precision.bytes
    return usable - llm_weight_bytes(model, precision) - decode_working_set
