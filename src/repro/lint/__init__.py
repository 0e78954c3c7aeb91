"""repro-lint: AST-based enforcement of the repo's correctness contracts.

The conventions that keep this codebase's caches honest — explicit seeded
randomness, version-bumped fingerprints, the closed error table, telemetry
discipline — used to live in CONTRIBUTING.md and reviewers' heads.  This
package turns each into a machine-checked gate behind ``repro-sim lint``:

========  ====================  ==================================================
rule      name                  enforces
========  ====================  ==================================================
RPR000    lint                  files parse; every pragma suppresses something
RPR001    determinism           no wall clocks outside obs/; no ambient RNG
RPR002    fingerprint-bump      changed key inputs ⇒ bumped version string
RPR005    closed-error-contract literal ApiError codes come from ERROR_CODES
RPR006    telemetry-discipline  defer on the hot path; guarded emission
========  ====================  ==================================================

Frozen payload dataclasses and registry coverage are not lint rules: tier-1
tests check them on the live program (``tests/test_codec.py``,
``tests/test_registry.py``).

Suppress a finding with ``# repro-lint: disable=RPR001`` on its line (or
``disable-file=`` near the top) and a comment saying why; unused pragmas
are themselves findings.  New rules register through
:func:`register_rule` into :data:`RULE_REGISTRY`, a
:class:`~repro.registry.Registry` like every other policy surface (see
CONTRIBUTING.md: "machine-checked invariants").
"""

from __future__ import annotations

import subprocess
from collections.abc import Callable, Sequence
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
from repro.lint import rules_fingerprint  # noqa: F401
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
    "git_base_reader",
    "lint_repository",
    "register_rule",
    "resolve_diff_base",
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


def resolve_diff_base(root: Path, ref: str) -> str | None:
    """``ref``'s merge base with HEAD (falling back to ``ref`` itself).

    Returns ``None`` when the ref does not resolve — the caller should
    warn and skip the diff-aware rules rather than fail the run.
    """
    merge_base = subprocess.run(
        ["git", "merge-base", ref, "HEAD"],
        cwd=root, capture_output=True, text=True)
    if merge_base.returncode == 0:
        return merge_base.stdout.strip()
    verify = subprocess.run(
        ["git", "rev-parse", "--verify", f"{ref}^{{commit}}"],
        cwd=root, capture_output=True, text=True)
    if verify.returncode == 0:
        return verify.stdout.strip()
    return None


def git_base_reader(root: Path, base: str) -> Callable[[str], str | None]:
    """A ``Project.base_reader`` serving blobs from ``git show base:path``."""
    def read(rel: str) -> str | None:
        result = subprocess.run(
            ["git", "show", f"{base}:{rel}"],
            cwd=root, capture_output=True)
        if result.returncode != 0:
            return None
        return result.stdout.decode("utf-8", errors="replace")
    return read


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
                    diff_base: str | None = None,
                    rules: Sequence[Rule] | None = None,
                    ) -> tuple[list[Finding], str | None]:
    """Lint the repository the way ``repro-sim lint`` does.

    Returns ``(findings, warning)`` — the warning is set when a requested
    ``diff_base`` could not be resolved and the diff-aware rules were
    skipped.
    """
    root = discover_root(root if root is not None else ".")
    warning: str | None = None
    resolved = None
    base_reader = None
    if diff_base is not None:
        resolved = resolve_diff_base(root, diff_base)
        if resolved is None:
            warning = (f"diff base '{diff_base}' does not resolve here; "
                       "skipping the diff-aware rules (RPR002)")
        else:
            base_reader = git_base_reader(root, resolved)
    project = Project(root, diff_base=resolved, base_reader=base_reader)
    targets = collect_targets(root, paths)
    return run_lint(project, targets, rules=rules), warning
