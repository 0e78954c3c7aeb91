"""repro-lint: AST-based enforcement of the repo's correctness contracts.

The conventions that keep this codebase's caches honest — explicit seeded
randomness, the closed error table, telemetry discipline — used to live in
CONTRIBUTING.md and reviewers' heads.  This package turns each into a
machine-checked gate behind ``repro-sim lint``:

========  ====================  ==================================================
rule      name                  enforces
========  ====================  ==================================================
RPR000    lint                  files parse; every pragma suppresses something
RPR001    determinism           no wall clocks outside obs/; no ambient RNG
RPR005    closed-error-contract literal ApiError codes come from ERROR_CODES
RPR006    telemetry-discipline  defer on the hot path; guarded emission
========  ====================  ==================================================

Frozen payload dataclasses, registry coverage and fingerprint version
bumps are not lint rules: tier-1 tests check them on the live program
(``tests/test_codec.py``, ``tests/test_registry.py``,
``tests/test_fingerprint_versions.py``).

Suppress a finding with ``# repro-lint: disable=RPR001`` on its line (or
``disable-file=`` near the top) and a comment saying why; unused pragmas
are themselves findings.  New rules register through
:func:`register_rule` into :data:`RULE_REGISTRY`, a
:class:`~repro.registry.Registry` like every other policy surface (see
CONTRIBUTING.md: "machine-checked invariants").
"""

from __future__ import annotations

from collections.abc import Sequence
from pathlib import Path

from repro.lint.engine import (
    META_RULE,
    RULE_REGISTRY,
    Finding,
    Project,
    Rule,
    SourceFile,
    get_rule,
    register_rule,
    run_lint,
)

# Importing the rule modules populates RULE_REGISTRY.
from repro.lint import rules_determinism  # noqa: F401
from repro.lint import rules_api  # noqa: F401
from repro.lint import rules_telemetry  # noqa: F401

__all__ = [
    "META_RULE",
    "RULE_REGISTRY",
    "Finding",
    "Project",
    "Rule",
    "SourceFile",
    "discover_root",
    "get_rule",
    "lint_repository",
    "register_rule",
    "run_lint",
]

_ROOT_MARKERS = ("setup.py", "pyproject.toml", ".git")


def discover_root(start: Path | str = ".") -> Path:
    """The repository root: the nearest ancestor carrying a root marker."""
    start = Path(start).resolve()
    for candidate in (start, *start.parents):
        if any((candidate / marker).exists() for marker in _ROOT_MARKERS):
            return candidate
    return start


def collect_targets(root: Path, paths: Sequence[str]) -> list[str]:
    """Expand CLI path arguments into sorted repo-relative ``.py`` files."""
    targets: set[str] = set()
    for raw in paths:
        path = Path(raw)
        if not path.is_absolute():
            path = root / path
        if path.is_dir():
            targets.update(p.relative_to(root).as_posix()
                           for p in path.rglob("*.py"))
        elif path.suffix == ".py" and path.exists():
            targets.add(path.relative_to(root).as_posix())
    return sorted(targets)


def lint_repository(root: Path | str | None = None,
                    paths: Sequence[str] = ("src/repro",),
                    rules: Sequence[Rule] | None = None) -> list[Finding]:
    """Lint the repository the way ``repro-sim lint`` does."""
    root = discover_root(root if root is not None else ".")
    return run_lint(Project(root), collect_targets(root, paths), rules=rules)
