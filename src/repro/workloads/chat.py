"""Chat / long-context LLM serving with a mix of request shapes.

Production chat serving is not one prompt length: short follow-ups, document
questions and long-context sessions arrive interleaved.  This scenario models
a request *mix* — a weighted set of :class:`RequestClass` (prompt length,
output length, traffic share) — and prices one batch-sized request group under
that mix: every class contributes its traffic share of prefill and decode
work, with the decode phase KV-sampled per class exactly like the paper's
serving scenario.  The result is the expected per-group cost (and tokens/s)
of the traffic distribution, not of a single canonical request.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.common import Precision
from repro.workloads.llm import (
    LLMConfig,
    llm_all_reduce_hops,
    tensor_shard_llm,
)
from repro.workloads.scenario import (
    LLMInferenceSettings,
    PipelineHop,
    Scenario,
    ScenarioKnobs,
    ScenarioSpec,
    ScenarioStage,
    TensorParallelSpec,
)


@dataclass(frozen=True)
class RequestClass:
    """One shape of request in the serving mix."""

    input_tokens: int
    output_tokens: int
    #: Relative traffic share of this class (normalised over the mix).
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.input_tokens <= 0 or self.output_tokens <= 0:
            raise ValueError("input_tokens and output_tokens must be positive")
        if self.weight <= 0:
            raise ValueError("weight must be positive")

    @property
    def total_tokens(self) -> int:
        """Full context length of a finished request (prompt + output)."""
        return self.input_tokens + self.output_tokens


#: Default mix: mostly interactive chat, some document work, a long-context tail.
DEFAULT_REQUEST_MIX: tuple[RequestClass, ...] = (
    RequestClass(input_tokens=256, output_tokens=256, weight=0.45),
    RequestClass(input_tokens=1024, output_tokens=512, weight=0.35),
    RequestClass(input_tokens=8192, output_tokens=1024, weight=0.20),
)


def mix_fractions(request_classes: Sequence[RequestClass]) -> tuple[float, ...]:
    """Traffic share of each request class, normalised to sum to one.

    Shared by the analytical chat-serving scenario (expected per-group cost)
    and the serving trace generators (sampling weights), so both views of a
    mix agree on its distribution.
    """
    if not request_classes:
        raise ValueError("a request mix needs at least one class")
    total = sum(request.weight for request in request_classes)
    return tuple(request.weight / total for request in request_classes)


@dataclass(frozen=True)
class ChatServingSettings:
    """Evaluation settings for the chat-serving scenario."""

    batch: int = 8
    precision: Precision = Precision.INT8
    request_classes: tuple[RequestClass, ...] = DEFAULT_REQUEST_MIX
    #: KV-cache samples per request class's decode phase.
    decode_kv_samples: int = 2

    def __post_init__(self) -> None:
        if self.batch <= 0:
            raise ValueError("batch must be positive")
        if not self.request_classes:
            raise ValueError("chat serving needs at least one request class")
        if self.decode_kv_samples <= 0:
            raise ValueError("decode_kv_samples must be positive")

    def fractions(self) -> tuple[float, ...]:
        """Traffic share of each request class, normalised to sum to one."""
        return mix_fractions(self.request_classes)

    def expected_output_tokens(self) -> float:
        """Mean generated tokens per request under the mix."""
        return sum(fraction * request.output_tokens
                   for fraction, request in zip(self.fractions(), self.request_classes))

    def summary(self) -> str:
        """Human-readable settings summary used in tables and exports."""
        classes = " ".join(f"{r.input_tokens}+{r.output_tokens}"
                           for r in self.request_classes)
        return f"mix[{classes}]"

    def per_class_settings(self) -> tuple[LLMInferenceSettings, ...]:
        """The plain serving settings of each class (for KV sampling)."""
        return tuple(LLMInferenceSettings(
            batch=self.batch, input_tokens=request.input_tokens,
            output_tokens=request.output_tokens, precision=self.precision,
            decode_kv_samples=self.decode_kv_samples)
            for request in self.request_classes)


def build_chat_serving_scenario(config: LLMConfig,
                                settings: ChatServingSettings) -> Scenario:
    """Expected per-group cost of serving the configured request mix.

    The layer graph comes from the model's ``build_layer`` hook, so a plain
    :class:`LLMConfig` serves dense Transformer layers while an
    :class:`~repro.workloads.moe.MoEConfig` serves expert layers —
    long-context chat on Mixtral prices the experts, not a dense stand-in.
    """
    build_layer = config.build_layer
    stages: list[ScenarioStage] = []
    hops: list[PipelineHop] = []
    element_bytes = settings.precision.bytes
    fractions = settings.fractions()
    for fraction, request, class_settings in zip(fractions, settings.request_classes,
                                                 settings.per_class_settings()):
        label = f"in={request.input_tokens}"
        stages.append(ScenarioStage(
            name=f"prefill[{label}]",
            graph=build_layer("prefill", settings.batch, request.input_tokens,
                              precision=settings.precision),
            repeats_per_unit=fraction))
        kv_lengths = class_settings.decode_kv_lengths()
        tokens_per_sample = request.output_tokens / len(kv_lengths)
        for kv_len in kv_lengths:
            stages.append(ScenarioStage(
                name=f"decode[{label},kv={kv_len}]",
                graph=build_layer("decode", settings.batch, request.input_tokens,
                                  kv_len=kv_len, precision=settings.precision),
                repeats_per_unit=fraction * tokens_per_sample))
        hops.append(PipelineHop(
            bytes=settings.batch * request.input_tokens * config.d_model * element_bytes,
            count=fraction))
        hops.append(PipelineHop(
            bytes=settings.batch * config.d_model * element_bytes,
            count=fraction * request.output_tokens))
    return Scenario(
        name="chat-serving",
        model_name=config.name,
        stages=tuple(stages),
        items=settings.batch * settings.expected_output_tokens(),
        item_unit="token",
        pipeline_units=config.num_layers,
        hops=tuple(hops))


def chat_settings_from_knobs(knobs: ScenarioKnobs) -> ChatServingSettings:
    """Derive a request mix from the flat grid knobs.

    The ``input_tokens`` / ``output_tokens`` knobs parameterise the mix's
    middle class; the interactive class is a quarter / half of it and the
    long-context tail is 8× / 2× of it, so one pair of CLI flags scales the
    whole distribution.
    """
    return ChatServingSettings(
        batch=knobs.batch, precision=knobs.precision,
        decode_kv_samples=knobs.decode_kv_samples,
        request_classes=(
            RequestClass(input_tokens=max(1, knobs.input_tokens // 4),
                         output_tokens=max(1, knobs.output_tokens // 2), weight=0.45),
            RequestClass(input_tokens=knobs.input_tokens,
                         output_tokens=knobs.output_tokens, weight=0.35),
            RequestClass(input_tokens=8 * knobs.input_tokens,
                         output_tokens=2 * knobs.output_tokens, weight=0.20),
        ))


def _chat_all_reduce_hops(llm: LLMConfig,
                          settings: ChatServingSettings) -> tuple[PipelineHop, ...]:
    """Tensor-parallel all-reduce volumes, weighted over the request mix."""
    hops: list[PipelineHop] = []
    for fraction, request in zip(settings.fractions(), settings.request_classes):
        per_class = llm_all_reduce_hops(llm, LLMInferenceSettings(
            batch=settings.batch, input_tokens=request.input_tokens,
            output_tokens=request.output_tokens, precision=settings.precision,
            decode_kv_samples=settings.decode_kv_samples))
        hops.extend(PipelineHop(bytes=hop.bytes, count=fraction * hop.count)
                    for hop in per_class)
    return tuple(hops)


#: Spec of the chat-serving scenario (registered in ``workloads.registry``).
CHAT_SERVING_SCENARIO = ScenarioSpec(
    name="chat-serving",
    description="weighted mix of short-chat, document and long-context requests",
    model_type=LLMConfig,
    settings_type=ChatServingSettings,
    build=build_chat_serving_scenario,
    make_settings=chat_settings_from_knobs,
    tensor_parallel=TensorParallelSpec(shard=tensor_shard_llm,
                                       all_reduce_hops=_chat_all_reduce_hops))
