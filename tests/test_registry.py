"""One contract for every name registry: duplicates, overwrites, unknown names.

Each case is one open registry with its ``register_*`` function, its lookup,
one built-in entry and the CLI surface that shows its names.  The nouns are
spelled out here so a registry's error wording cannot drift from the others
unnoticed.  The checks read the live program: every ``Registry`` a
``repro`` module holds must be a case, its CLI surface must show every
registered name, and some test must quote each name.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import io
import pkgutil
import re
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
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


def _option(command, option):
    """The ``argparse`` action of ``repro-sim <command> <option>``."""
    (commands,) = [action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    (action,) = [action for action in commands.choices[command]._actions
                 if option in action.option_strings]
    return action


def _assert_names_every_entry(text, registry):
    """Each registered name occurs in ``text`` as a whole (hyphenated) word."""
    missing = [name for name in registry
               if not re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])", text)]
    assert missing == []


def _choices(command, option):
    """The option's ``choices`` are exactly the registered names."""
    def check(registry):
        assert list(_option(command, option).choices) == sorted(registry)
    return check


def _help(command, option):
    """The option's help names every registered entry."""
    def check(registry):
        _assert_names_every_entry(_option(command, option).help, registry)
    return check


def _listing(*argv):
    """``repro-sim <argv>`` prints every registered name."""
    def check(registry):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(list(argv)) == 0
        _assert_names_every_entry(out.getvalue(), registry)
    return check


CASES = [
    pytest.param(ROUTER_REGISTRY, _by_attribute(register_router), get_router,
                 "round-robin", "router", "routers",
                 _choices("serve", "--router"), id="router"),
    pytest.param(SCHEDULER_REGISTRY, _by_attribute(register_scheduler), get_scheduler,
                 "fcfs", "scheduler", "schedulers",
                 _choices("serve", "--scheduler"), id="scheduler"),
    pytest.param(AUTOSCALER_REGISTRY, _by_attribute(register_autoscaler), get_autoscaler,
                 "queue-depth", "autoscaler", "autoscalers",
                 _choices("serve", "--autoscaler"), id="autoscaler"),
    pytest.param(FAULT_REGISTRY, _by_attribute(register_fault), get_fault,
                 "replica-crash", "fault model", "models",
                 _help("serve", "--faults"), id="fault"),
    pytest.param(TRACE_REGISTRY, _named(register_trace), _trace_lookup,
                 "poisson", "trace kind", "kinds",
                 _choices("serve", "--trace"), id="trace"),
    pytest.param(OVERLAY_REGISTRY, _named(register_overlay), get_overlay,
                 "flash-crowd", "overlay", "overlays",
                 _help("serve", "--overlay"), id="overlay"),
    pytest.param(OBJECTIVE_REGISTRY, _by_attribute(register_objective), get_objective,
                 "p99-ttft", "objective", "objectives",
                 _choices("optimize", "--objectives"), id="objective"),
    pytest.param(SEARCH_REGISTRY, _by_attribute(register_search), get_search,
                 "exhaustive", "search strategy", "strategies",
                 _choices("optimize", "--strategy"), id="search"),
    pytest.param(MODEL_REGISTRY, _by_attribute(register_model), get_model,
                 "llama2-7b", "model", "models",
                 _listing("models"), id="model"),
    pytest.param(SCENARIO_REGISTRY, _by_attribute(register_scenario), get_scenario,
                 "chat-serving", "scenario", "scenarios",
                 _listing("scenarios"), id="scenario"),
    pytest.param(RULE_REGISTRY, _by_attribute(register_rule), get_rule,
                 "RPR001", "lint rule", "rules",
                 _listing("lint", "--list-rules"), id="lint-rule"),
]

ARGS = "registry, register, lookup, name, noun, plural, surface"

#: The text of every test module: each registered name is quoted in one.
TEST_TEXT = "\n".join(path.read_text(encoding="utf-8")
                      for path in Path(__file__).parent.rglob("*.py"))


def _copy(entry):
    """An equal entry that is not the same object."""
    if dataclasses.is_dataclass(entry):
        return dataclasses.replace(entry)
    return lambda *args: entry(*args)


@pytest.mark.parametrize(ARGS, CASES)
def test_duplicate_name_is_rejected(registry, register, lookup, name, noun, plural,
                                    surface):
    with pytest.raises(ValueError) as error:
        register(name, registry[name])
    assert error.value.args[0] == f"{noun} '{name}' is already registered"


@pytest.mark.parametrize(ARGS, CASES)
def test_overwrite_replaces_the_entry(registry, register, lookup, name, noun, plural,
                                      surface):
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
                                                noun, plural, surface):
    with pytest.raises(KeyError) as error:
        lookup("x")
    known = ", ".join(sorted(registry))
    assert error.value.args[0] == f"unknown {noun} 'x'; registered {plural}: {known}"


@pytest.mark.parametrize(ARGS, CASES)
def test_registry_behaves_as_a_dict(registry, register, lookup, name, noun, plural,
                                    surface):
    assert isinstance(registry, Registry)
    assert sorted(registry) == sorted(dict(registry))
    assert name in registry and "x" not in registry
    assert dict(registry.items())[name] is registry[name]
    assert registry.get("x") is None
    if lookup is not _trace_lookup:
        assert lookup(name) is registry[name]


def test_every_live_registry_is_a_case():
    """A ``Registry`` held by any ``repro`` module is held to these contracts."""
    cases = [case.values[0] for case in CASES]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for attr, value in vars(module).items():
            if isinstance(value, Registry):
                assert any(value is case for case in cases), \
                    f"{info.name}.{attr} is not a case of tests/test_registry.py"


@pytest.mark.parametrize(ARGS, CASES)
def test_the_cli_shows_every_name(registry, register, lookup, name, noun, plural,
                                  surface):
    surface(registry)


@pytest.mark.parametrize(ARGS, CASES)
def test_every_name_is_quoted_in_a_test(registry, register, lookup, name, noun,
                                        plural, surface):
    unquoted = [entry for entry in registry
                if f'"{entry}"' not in TEST_TEXT and f"'{entry}'" not in TEST_TEXT]
    assert unquoted == []
