"""Registries of the models and scenarios known to the simulator.

Two open registries (each a :class:`~repro.registry.Registry`) make the
workload space extensible without touching the simulation core:

* the **model registry** maps names to architecture configurations
  (:class:`~repro.workloads.llm.LLMConfig`,
  :class:`~repro.workloads.dit.DiTConfig`,
  :class:`~repro.workloads.moe.MoEConfig`, ...);
* the **scenario registry** maps names to
  :class:`~repro.workloads.scenario.ScenarioSpec` entries — declarative
  end-to-end inference shapes the generic
  :meth:`~repro.core.simulator.InferenceSimulator.run_scenario` pipeline
  executes.  Each model type declares a *default* scenario, which is what
  sweep grids and the CLI fall back to when none is named.
"""

from __future__ import annotations

from typing import Any

from repro.registry import Registry
from repro.workloads.chat import CHAT_SERVING_SCENARIO
from repro.workloads.dit import DIT_SAMPLING_SCENARIO, DIT_XL_2, DiTConfig
from repro.workloads.llm import (
    GPT3_30B,
    GPT3_175B,
    LLAMA2_7B,
    LLAMA2_13B,
    LLM_SERVING_SCENARIO,
    LLMConfig,
)
from repro.workloads.moe import MIXTRAL_8X7B, MOE_SERVING_SCENARIO, MoEConfig
from repro.workloads.scenario import ScenarioSpec

#: All model configurations addressable by name.
MODEL_REGISTRY: Registry[LLMConfig | DiTConfig] = Registry("model", "models")

#: Look up a model configuration by name (``KeyError`` lists the registered ones).
get_model = MODEL_REGISTRY.__getitem__


def register_model(config: LLMConfig | DiTConfig, overwrite: bool = False) -> None:
    """Add a model configuration under its name (see :meth:`Registry.add`)."""
    MODEL_REGISTRY.add(config.name, config, overwrite)


# ------------------------------------------------------------------ scenarios
#: All scenario specs addressable by name.
SCENARIO_REGISTRY: Registry[ScenarioSpec] = Registry("scenario", "scenarios")

#: Look up a scenario spec by name (``KeyError`` lists the registered ones).
get_scenario = SCENARIO_REGISTRY.__getitem__

#: Model type -> name of its default scenario (most specific type wins).
_DEFAULT_SCENARIOS: dict[type, str] = {}


def register_scenario(spec: ScenarioSpec, default_for: tuple[type, ...] = (),
                      overwrite: bool = False) -> None:
    """Add a scenario spec; optionally make it the default for model types.

    Raises
    ------
    ValueError
        If another scenario is the default for one of the given types, or
        a scenario of the same name exists, and ``overwrite`` is not set.
    """
    for model_type in default_for:
        existing = _DEFAULT_SCENARIOS.get(model_type)
        if existing is not None and existing != spec.name and not overwrite:
            raise ValueError(
                f"model type '{model_type.__name__}' already defaults to "
                f"scenario '{existing}'")
    SCENARIO_REGISTRY.add(spec.name, spec, overwrite)
    for model_type in default_for:
        _DEFAULT_SCENARIOS[model_type] = spec.name


def scenario_for(model: Any) -> ScenarioSpec:
    """The default scenario spec of a model, by its most specific type.

    Walks the model's MRO so e.g. an :class:`~repro.workloads.moe.MoEConfig`
    resolves to ``moe-serving`` even though it is also an ``LLMConfig``.

    Raises
    ------
    KeyError
        If no registered default covers the model's type.
    """
    for base in type(model).__mro__:
        name = _DEFAULT_SCENARIOS.get(base)
        if name is not None:
            return SCENARIO_REGISTRY[name]
    known = ", ".join(sorted(t.__name__ for t in _DEFAULT_SCENARIOS))
    raise KeyError(
        f"no default scenario for model type '{type(model).__name__}' "
        f"(types with defaults: {known})")


def scenarios_supporting(model: Any) -> tuple[ScenarioSpec, ...]:
    """Every registered scenario whose capability covers the model."""
    return tuple(spec for spec in SCENARIO_REGISTRY.values() if spec.supports(model))


#: Model type -> workload-family tag, most specific type first.  Sweep rows
#: carry the tag in their ``kind`` column; tests assert the two stay in sync.
MODEL_KINDS: tuple[tuple[type, str], ...] = (
    (MoEConfig, "moe"),
    (LLMConfig, "llm"),
    (DiTConfig, "dit"),
)


def model_kind(model: Any) -> str:
    """Workload-family tag of a model configuration (``"llm"``, ``"moe"``,
    ``"dit"``), resolved by its most specific registered type.

    Raises
    ------
    TypeError
        If no registered family covers the model's type.
    """
    for model_type, kind in MODEL_KINDS:
        if isinstance(model, model_type):
            return kind
    known = ", ".join(kind for _, kind in MODEL_KINDS)
    raise TypeError(f"no workload family for model type "
                    f"'{type(model).__name__}' (families: {known})")


register_model(GPT3_30B)
register_model(GPT3_175B)
register_model(LLAMA2_7B)
register_model(LLAMA2_13B)
register_model(DIT_XL_2)
register_model(MIXTRAL_8X7B)

register_scenario(LLM_SERVING_SCENARIO, default_for=(LLMConfig,))
register_scenario(DIT_SAMPLING_SCENARIO, default_for=(DiTConfig,))
register_scenario(MOE_SERVING_SCENARIO, default_for=(MoEConfig,))
register_scenario(CHAT_SERVING_SCENARIO)
