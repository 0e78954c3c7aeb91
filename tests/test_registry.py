"""One contract for every name registry: duplicates, overwrites, unknown names.

Each case is one open registry with its ``register_*`` function, its lookup
and one built-in entry.  The nouns are spelled out here so a registry's
error wording cannot drift from the others unnoticed.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.lint import RULE_REGISTRY, get_rule, register_rule
from repro.optimize.objectives import OBJECTIVE_REGISTRY, get_objective, register_objective
from repro.optimize.search import SEARCH_REGISTRY, get_search, register_search
from repro.registry import Registry
from repro.serving.autoscaler import AUTOSCALER_REGISTRY, get_autoscaler, register_autoscaler
from repro.serving.faults import FAULT_REGISTRY, get_fault, register_fault
from repro.serving.router import ROUTER_REGISTRY, get_router, register_router
from repro.serving.scheduler import SCHEDULER_REGISTRY, get_scheduler, register_scheduler
from repro.serving.trace import (
    OVERLAY_REGISTRY,
    TRACE_REGISTRY,
    generate_trace,
    get_overlay,
    register_overlay,
    register_trace,
)
from repro.workloads.chat import DEFAULT_REQUEST_MIX
from repro.workloads.registry import (
    MODEL_REGISTRY,
    SCENARIO_REGISTRY,
    get_model,
    get_scenario,
    register_model,
    register_scenario,
)


def _trace_lookup(kind):
    """Arrival processes have no ``get_*``: ``generate_trace`` looks them up."""
    return generate_trace(kind, DEFAULT_REQUEST_MIX, rate=1.0, num_requests=1, seed=0)


def _named(register):
    """``register(entry, overwrite=...)`` for registries keyed by an explicit name."""
    def add(name, entry, overwrite=False):
        register(name, entry, overwrite=overwrite)
    return add


def _by_attribute(register):
    """``register(entry, overwrite=...)`` for entries that carry their own name."""
    def add(name, entry, overwrite=False):
        register(entry, overwrite=overwrite)
    return add


CASES = [
    pytest.param(ROUTER_REGISTRY, _by_attribute(register_router), get_router,
                 "round-robin", "router", "routers", id="router"),
    pytest.param(SCHEDULER_REGISTRY, _by_attribute(register_scheduler), get_scheduler,
                 "fcfs", "scheduler", "schedulers", id="scheduler"),
    pytest.param(AUTOSCALER_REGISTRY, _by_attribute(register_autoscaler), get_autoscaler,
                 "queue-depth", "autoscaler", "autoscalers", id="autoscaler"),
    pytest.param(FAULT_REGISTRY, _by_attribute(register_fault), get_fault,
                 "replica-crash", "fault model", "models", id="fault"),
    pytest.param(TRACE_REGISTRY, _named(register_trace), _trace_lookup,
                 "poisson", "trace kind", "kinds", id="trace"),
    pytest.param(OVERLAY_REGISTRY, _named(register_overlay), get_overlay,
                 "flash-crowd", "overlay", "overlays", id="overlay"),
    pytest.param(OBJECTIVE_REGISTRY, _by_attribute(register_objective), get_objective,
                 "p99-ttft", "objective", "objectives", id="objective"),
    pytest.param(SEARCH_REGISTRY, _by_attribute(register_search), get_search,
                 "exhaustive", "search strategy", "strategies", id="search"),
    pytest.param(MODEL_REGISTRY, _by_attribute(register_model), get_model,
                 "llama2-7b", "model", "models", id="model"),
    pytest.param(SCENARIO_REGISTRY, _by_attribute(register_scenario), get_scenario,
                 "chat-serving", "scenario", "scenarios", id="scenario"),
    pytest.param(RULE_REGISTRY, _by_attribute(register_rule), get_rule,
                 "RPR004", "lint rule", "rules", id="lint-rule"),
]

ARGS = "registry, register, lookup, name, noun, plural"


def _copy(entry):
    """An equal entry that is not the same object."""
    if dataclasses.is_dataclass(entry):
        return dataclasses.replace(entry)
    return lambda *args: entry(*args)


@pytest.mark.parametrize(ARGS, CASES)
def test_duplicate_name_is_rejected(registry, register, lookup, name, noun, plural):
    with pytest.raises(ValueError) as error:
        register(name, registry[name])
    assert error.value.args[0] == f"{noun} '{name}' is already registered"


@pytest.mark.parametrize(ARGS, CASES)
def test_overwrite_replaces_the_entry(registry, register, lookup, name, noun, plural):
    original = registry[name]
    replacement = _copy(original)
    try:
        register(name, replacement, overwrite=True)
        assert registry[name] is replacement
    finally:
        register(name, original, overwrite=True)
    assert registry[name] is original


@pytest.mark.parametrize(ARGS, CASES)
def test_unknown_name_lists_the_registered_ones(registry, register, lookup, name,
                                                noun, plural):
    with pytest.raises(KeyError) as error:
        lookup("x")
    known = ", ".join(sorted(registry))
    assert error.value.args[0] == f"unknown {noun} 'x'; registered {plural}: {known}"


@pytest.mark.parametrize(ARGS, CASES)
def test_registry_behaves_as_a_dict(registry, register, lookup, name, noun, plural):
    assert isinstance(registry, Registry)
    assert sorted(registry) == sorted(dict(registry))
    assert name in registry and "x" not in registry
    assert dict(registry.items())[name] is registry[name]
    assert registry.get("x") is None
    if lookup is not _trace_lookup:
        assert lookup(name) is registry[name]
