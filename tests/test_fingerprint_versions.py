"""Every store key and stored payload shape, pinned with its version.

``tests/golden/fingerprint_versions.json`` holds each version with the
definitions that feed it: a dataclass as its fields' source text, ``name:
annotation = default``, inherited ones first; a function as its AST
without the docstring, in a form every supported interpreter writes
alike.  A definition changed under an unchanged version fails ("bump
it"), save defaulted fields appended to a payload contract; any other
difference asks for ``regenerate.py fingerprint-versions``, which refuses
an unbumped change.  No pytest import: that script reuses the module.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import json
import pathlib
import re
import textwrap
import typing

from repro.api import facade, requests, responses
from repro.serving.cluster import ClusterReport, cluster_run_key
from repro.serving.metrics import ServingReport
from repro.serving.simulator import serving_run_key
from repro.serving.spec import ServingSpec
from repro.sweep.engine import SweepResult, point_key
from repro.sweep.grid import SweepPoint
from repro.sweep.store import STORE_VERSION

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "fingerprint_versions.json"

#: Contracts whose payloads still decode with defaulted fields appended.
APPENDABLE = ("api-schema", "store-version")

#: AST fields that vary across interpreters (or carry nothing a key reads).
_UNPINNED = {"type_params", "type_comment", "kind", "ctx"}


def _tree(obj) -> ast.stmt:
    return ast.parse(textwrap.dedent(inspect.getsource(obj))).body[0]


def _form(node) -> str:
    """``ast.dump``'s shape, minus :data:`_UNPINNED` and line numbers."""
    if isinstance(node, list):
        return f"[{', '.join(map(_form, node))}]"
    if not isinstance(node, ast.AST):
        return repr(node)
    fields = (f"{name}={_form(getattr(node, name, None))}"
              for name in node._fields if name not in _UNPINNED)
    return f"{type(node).__name__}({', '.join(fields)})"


def pin(obj) -> list[str] | str:
    """A dataclass's field texts, or a function's normal form."""
    if not isinstance(obj, type):
        function = _tree(obj)
        if ast.get_docstring(function, clean=False) is not None:
            function.body = function.body[1:]
        return _form(function)
    return [f"{node.target.id}: {ast.unparse(node.annotation)}"
            + ("" if node.value is None else f" = {ast.unparse(node.value)}")
            for klass in reversed(obj.__mro__)
            if "__dataclass_fields__" in vars(klass)
            for node in _tree(klass).body if isinstance(node, ast.AnnAssign)
            and "ClassVar" not in ast.unparse(node.annotation)]


def key_version(function) -> str:
    """The ``<name>/vN`` literal a key function fingerprints."""
    return next(node.value for node in ast.walk(_tree(function))
                if isinstance(node, ast.Constant)
                and re.fullmatch(r"[\w-]+/v\d+", str(node.value)))


def _stored_classes(*hints) -> list[type]:
    """Every dataclass reachable through the annotations of ``hints``."""
    found, pending = {}, list(hints)
    while pending:
        hint = pending.pop(0)
        if dataclasses.is_dataclass(hint) and hint not in found:
            found[hint] = None
            pending.extend(typing.get_type_hints(hint).values())
        pending.extend(typing.get_args(hint))
    return list(found)


def snapshot() -> dict[str, dict]:
    """Contract name -> its live version and pinned definitions."""
    contracts = {
        "sweep-point": (key_version(point_key),
                        [SweepPoint, ServingSpec, point_key]),
        "cluster-report": (key_version(cluster_run_key),
                           [ServingSpec, cluster_run_key]),
        "serving-report": (key_version(serving_run_key),
                           [ServingSpec, serving_run_key]),
        "api-schema": (f"SCHEMA_VERSION = {requests.SCHEMA_VERSION}",
                       [*requests.REQUEST_TYPES.values(),
                        *responses.RESPONSE_TYPES.values(),
                        facade.request_fingerprint]),
        "store-version": (f"STORE_VERSION = {STORE_VERSION}", _stored_classes(
            SweepResult, ServingReport, ClusterReport)),
    }
    return {name: {"version": version, "definitions": {
                f"{obj.__module__}.{obj.__qualname__}": pin(obj)
                for obj in definitions}}
            for name, (version, definitions) in contracts.items()}


def unbumped(recorded: dict[str, dict], live: dict[str, dict]) -> list[str]:
    """A line per recorded definition that changed under its old version."""
    problems = []
    for name, contract in recorded.items():
        version, now = contract["version"], live.get(name, {})
        if now.get("version") != version:
            continue
        for symbol, before in contract["definitions"].items():
            after = now["definitions"].get(symbol)
            appended = (name in APPENDABLE and isinstance(after, list)
                        and after[:len(before)] == before
                        and all(" = " in field for field in after[len(before):]))
            if after != before and not appended:
                problems.append(f"{symbol} changed but {name} is still '{version}': "
                                "bump it (CONTRIBUTING.md: the invalidation rule)")
    return problems


def test_fingerprint_versions_match_the_golden():
    recorded = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["contracts"]
    live = snapshot()
    problems = unbumped(recorded, live)
    assert not problems, "\n".join(problems)
    assert live == recorded, (
        "fingerprint contracts moved; regenerate the golden: PYTHONPATH=src "
        "python tests/golden/regenerate.py fingerprint-versions")
