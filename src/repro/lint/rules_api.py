"""RPR005 — closed error contract: ApiError codes come from ERROR_CODES.

``repro.api.errors.ERROR_CODES`` is a wire contract — clients branch on
the codes and the gateway maps them to HTTP statuses — so a typo'd or
ad-hoc code is an API change that slipped past review.  This rule reads
the contract table straight from the AST of ``api/errors.py`` and checks
every ``ApiError(...)`` construction site whose code is a string literal
against it; it also checks that the gateway's code→status map only maps
codes the contract declares.

Constructions with a non-literal code (``decode(ApiError, payload)``
re-hydrating a wire payload) are left to the runtime ``__post_init__``
check, which enforces the same table.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Sequence

from repro.lint.engine import Finding, Project, Rule, SourceFile, register_rule

RULE_ID = "RPR005"

_ERRORS_PATH = "src/repro/api/errors.py"
_SERVER_PATH = "src/repro/gateway/server.py"
_HINT = ("use a code from ERROR_CODES, or extend the contract table in "
         "api/errors.py + the gateway status map + CONTRIBUTING.md together")


def _error_codes(project: Project) -> frozenset[str] | None:
    """The contract table, read statically from ``api/errors.py``."""
    source = project.source(_ERRORS_PATH)
    if source is None:
        return None
    for node in source.tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "ERROR_CODES"
                and isinstance(node.value, (ast.Tuple, ast.List))):
            codes = [element.value for element in node.value.elts
                     if isinstance(element, ast.Constant)
                     and isinstance(element.value, str)]
            return frozenset(codes)
    return None


def _code_argument(call: ast.Call) -> ast.AST | None:
    for keyword in call.keywords:
        if keyword.arg == "code":
            return keyword.value
    if call.args:
        return call.args[0]
    return None


def check_project(project: Project,
                  files: Sequence[SourceFile]) -> Iterable[Finding]:
    codes = _error_codes(project)
    if codes is None:
        return []

    findings: list[Finding] = []
    for source in files:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            func_name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None)
            if func_name != "ApiError":
                continue
            argument = _code_argument(node)
            if (isinstance(argument, ast.Constant)
                    and isinstance(argument.value, str)
                    and argument.value not in codes):
                findings.append(Finding(
                    RULE_ID, source.rel, node.lineno, node.col_offset,
                    f"ApiError code '{argument.value}' is not in the "
                    "ERROR_CODES contract", hint=_HINT))

    server = project.source(_SERVER_PATH)
    if server is not None and server.rel in {f.rel for f in files}:
        for node in ast.walk(server.tree):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and node.targets[0].id == "_ERROR_STATUS"
                    and isinstance(node.value, ast.Dict)):
                for key in node.value.keys:
                    if (isinstance(key, ast.Constant)
                            and isinstance(key.value, str)
                            and key.value not in codes):
                        findings.append(Finding(
                            RULE_ID, server.rel, key.lineno, key.col_offset,
                            f"gateway status map entry '{key.value}' is not "
                            "in the ERROR_CODES contract", hint=_HINT))
    return findings


register_rule(Rule(
    id=RULE_ID,
    name="closed-error-contract",
    description="every literal ApiError code is declared in ERROR_CODES",
    check_project=check_project,
))
