"""RPR006 — telemetry discipline: defer in the hot loop, guard the sink.

The telemetry core's two contracts (CONTRIBUTING: "observability is part
of a subsystem") have teeth here:

* **Record construction stays off the serving hot path.**  Inside
  ``serving/``, constructing ``Span``/``Event``/``Gauge`` records directly
  is only allowed inside a translator function registered through
  ``Telemetry.defer`` — bulk producers capture raw tuples and materialise
  records at read time, outside the <5 % enabled-overhead budget.
* **``telemetry=None`` paths are branch-free no-ops.**  Any emission call
  (``.span``/``.event``/``.gauge``/``.count``/``.wall_span``/
  ``.wall_event``) on a receiver following the nullable ``telemetry``
  naming convention must be guarded — an enclosing ``if`` that tests the
  receiver, or an early ``if telemetry is None ...: return`` in the same
  function — so the disabled path never even reaches the sink.

Receivers with other names (the ``tel`` locals the engines bind once
and test with ``is not None``) are trusted: the convention is test once,
emit freely.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.lint.engine import Finding, Project, Rule, SourceFile, register_rule

RULE_ID = "RPR006"

_RECORD_TYPES = frozenset({"Span", "Event", "Gauge"})
_EMIT_METHODS = frozenset({"span", "event", "gauge", "count",
                           "wall_span", "wall_event"})
_HOT_PREFIX = "src/repro/serving/"

_DEFER_HINT = ("capture raw tuples in the loop and register a "
               "Telemetry.defer translator; records materialise at read time")
_GUARD_HINT = ("guard the call site (`if telemetry is not None:`) or "
               "return early on `telemetry is None`")


def _receiver_source(node: ast.AST) -> str | None:
    """The dotted receiver if it follows the nullable-telemetry convention."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    dotted = ".".join(reversed(parts))
    if dotted == "telemetry" or dotted.endswith(".telemetry"):
        return dotted
    return None


def _defer_translators(source: SourceFile) -> set[str]:
    """Names of functions registered via ``<sink>.defer(fn)`` in this file."""
    names: set[str] = set()
    for node in ast.walk(source.tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "defer"):
            for argument in node.args:
                if isinstance(argument, ast.Name):
                    names.add(argument.id)
                elif isinstance(argument, (ast.FunctionDef, ast.Lambda)):
                    pass  # lambdas carry no name; the visitor walks them anyway
    return names


def _mentions(test: ast.AST, receiver: str) -> bool:
    """Does a guard expression test the receiver (or its truthiness)?"""
    for node in ast.walk(test):
        if _receiver_source(node) == receiver:
            return True
    return False


def _terminates(statement: ast.stmt) -> bool:
    body = getattr(statement, "body", None)
    last = body[-1] if body else statement
    return isinstance(last, (ast.Return, ast.Raise, ast.Continue, ast.Break))


def _is_guarded(source: SourceFile, call: ast.Call, receiver: str) -> bool:
    enclosing_function: ast.AST | None = None
    for ancestor in source.ancestors(call):
        if isinstance(ancestor, (ast.If, ast.IfExp, ast.While)):
            if _mentions(ancestor.test, receiver):
                return True
        elif isinstance(ancestor, ast.BoolOp) and _mentions(ancestor, receiver):
            return True
        elif (enclosing_function is None
              and isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef,
                                        ast.Lambda))):
            enclosing_function = ancestor
    if enclosing_function is None or isinstance(enclosing_function, ast.Lambda):
        return False
    # Early-out guard: an `if <receiver>...: return/raise/continue` that runs
    # before the call inside the same function body.
    for statement in ast.walk(enclosing_function):
        if (isinstance(statement, ast.If) and statement.lineno < call.lineno
                and _mentions(statement.test, receiver)
                and _terminates(statement)):
            return True
    return False


def check_file(source: SourceFile, project: Project) -> Iterable[Finding]:
    findings: list[Finding] = []
    if not source.rel.startswith("src/repro/"):
        return findings
    in_obs = source.rel.startswith("src/repro/obs/")

    translators = _defer_translators(source) if source.rel.startswith(
        _HOT_PREFIX) else set()

    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Call):
            continue

        if (source.rel.startswith(_HOT_PREFIX)
                and isinstance(node.func, ast.Name)
                and node.func.id in _RECORD_TYPES):
            inside_translator = any(
                isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef))
                and ancestor.name in translators
                for ancestor in source.ancestors(node))
            if not inside_translator:
                findings.append(Finding(
                    RULE_ID, source.rel, node.lineno, node.col_offset,
                    f"telemetry record {node.func.id}(...) constructed on "
                    "the serving path outside a defer translator",
                    hint=_DEFER_HINT))

        if in_obs:
            continue  # the telemetry core itself owns its internals
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in _EMIT_METHODS):
            receiver = _receiver_source(node.func.value)
            if receiver is not None and not _is_guarded(source, node, receiver):
                findings.append(Finding(
                    RULE_ID, source.rel, node.lineno, node.col_offset,
                    f"unguarded telemetry emission {receiver}."
                    f"{node.func.attr}(...) — the telemetry=None path must "
                    "be a branch-free no-op", hint=_GUARD_HINT))
    return findings


register_rule(Rule(
    id=RULE_ID,
    name="telemetry-discipline",
    description="defer-translated records on the hot path; guarded emission",
    check_file=check_file,
))
