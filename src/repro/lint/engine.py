"""The repro-lint rule engine: shared ASTs, pragmas, structured findings.

The engine parses every linted file exactly once into a :class:`SourceFile`
(source text, line table, AST, pragma table) and hands the shared trees to
every registered :class:`Rule`.  Rules come in two shapes — per-file
visitors (``check_file``) and whole-project passes (``check_project``, for
contracts that span files, such as the closed error table) — and emit
:class:`Finding` records with an exact ``file:line:col`` location, the rule
id, a message and a fix hint.

Suppression is explicit and auditable: a ``# repro-lint: disable=RPR001``
comment suppresses that rule's findings on its own line, and
``# repro-lint: disable-file=RPR001`` suppresses it for the whole file.
Every pragma must pay its way — one that suppresses nothing is itself a
finding (rule ``RPR000``), so stale escapes cannot accumulate.

Rules register through :func:`register_rule` into :data:`RULE_REGISTRY`,
a :class:`~repro.registry.Registry` like every other policy surface in the
repo.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.registry import Registry

#: The engine's own rule id: unparsable files and pragmas that suppress
#: nothing.  RPR000 findings cannot themselves be suppressed.
META_RULE = "RPR000"

_PRAGMA_RE = re.compile(
    r"#\s*repro-lint:\s*(?P<kind>disable|disable-file)=(?P<rules>[A-Z0-9_]+(?:\s*,\s*[A-Z0-9_]+)*)")


@dataclass(frozen=True)
class Finding:
    """One lint violation: where, which rule, what, and how to fix it."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    hint: str = ""

    def render(self) -> str:
        """The CLI's one-line rendering (``path:line:col: RULE message``)."""
        text = f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
        if self.hint:
            text += f" [hint: {self.hint}]"
        return text


@dataclass(frozen=True)
class Rule:
    """One registered lint rule.

    ``check_file`` runs once per linted file over the shared AST;
    ``check_project`` runs once per lint invocation and receives the whole
    :class:`Project` plus the linted files — use it for cross-file
    contracts.  A rule may define either or both.
    """

    id: str
    name: str
    description: str
    check_file: "Callable[[SourceFile, Project], Iterable[Finding]] | None" = None
    check_project: "Callable[[Project, Sequence[SourceFile]], Iterable[Finding]] | None" = None

    def __post_init__(self) -> None:
        if not re.fullmatch(r"[A-Z][A-Z0-9_]*\d", self.id):
            raise ValueError(f"rule id '{self.id}' must look like 'RPR001'")
        if self.check_file is None and self.check_project is None:
            raise ValueError(f"rule '{self.id}' defines no check at all")


#: Registered lint rules, addressable by id.
RULE_REGISTRY: Registry[Rule] = Registry("lint rule", "rules")

#: Look up a rule by id (``KeyError`` lists the registered ids).
get_rule = RULE_REGISTRY.__getitem__


def register_rule(rule: Rule, overwrite: bool = False) -> None:
    """Add a rule under its id (see :meth:`Registry.add`)."""
    RULE_REGISTRY.add(rule.id, rule, overwrite)


def _comments(text: str) -> Iterable[tuple[int, str]]:
    """(line, comment text) for every comment token in ``text``."""
    try:
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.string
    except (tokenize.TokenizeError, IndentationError, SyntaxError):
        return


class SourceFile:
    """One parsed source file shared by every rule: text, AST, pragmas."""

    def __init__(self, rel: str, text: str) -> None:
        self.rel = rel
        self.text = text
        self.lines = text.splitlines()
        self.tree = ast.parse(text)
        #: line number -> rule ids disabled on that line.
        self.line_pragmas: dict[int, set[str]] = {}
        #: rule id -> line number of the file-wide pragma.
        self.file_pragmas: dict[str, int] = {}
        # Pragmas live in real comment tokens only — a docstring *describing*
        # the pragma syntax is not a pragma.
        for number, comment in _comments(text):
            match = _PRAGMA_RE.search(comment)
            if match is None:
                continue
            rules = {r.strip() for r in match.group("rules").split(",")}
            if match.group("kind") == "disable":
                self.line_pragmas.setdefault(number, set()).update(rules)
            else:
                for rule_id in rules:
                    self.file_pragmas.setdefault(rule_id, number)
        self._parents: dict[ast.AST, ast.AST] | None = None

    def parents(self) -> dict[ast.AST, ast.AST]:
        """Child -> parent map over the AST (built once, on first use)."""
        if self._parents is None:
            self._parents = {child: node for node in ast.walk(self.tree)
                             for child in ast.iter_child_nodes(node)}
        return self._parents

    def ancestors(self, node: ast.AST) -> Iterable[ast.AST]:
        """The node's enclosing chain, innermost first."""
        parents = self.parents()
        while node in parents:
            node = parents[node]
            yield node


class Project:
    """Everything a lint run can see: linted files plus lazy project context.

    Rules may pull in files outside the linted set (``api/errors.py`` for
    the error-contract check) through :meth:`source` / :meth:`read_text`;
    those loads are cached and parsed once.  ``overlay`` maps relative
    paths to in-memory text and takes precedence over the filesystem — the
    fixture tests build whole synthetic projects from it.
    """

    def __init__(self, root: Path | str | None = None, *,
                 overlay: Mapping[str, str] | None = None) -> None:
        self.root = Path(root) if root is not None else None
        self.overlay = {_normalize(rel): text for rel, text in (overlay or {}).items()}
        self._sources: dict[str, SourceFile | None] = {}
        #: rel path -> (line, message) for files that failed to parse.
        self.parse_errors: dict[str, tuple[int, str]] = {}

    def read_text(self, rel: str) -> str | None:
        """The working-tree text of ``rel``, or ``None`` if it does not exist."""
        rel = _normalize(rel)
        if rel in self.overlay:
            return self.overlay[rel]
        if self.root is not None:
            path = self.root / rel
            if path.is_file():
                return path.read_text(encoding="utf-8")
        return None

    def source(self, rel: str) -> SourceFile | None:
        """The parsed :class:`SourceFile`, or ``None`` (missing/unparsable)."""
        rel = _normalize(rel)
        if rel not in self._sources:
            text = self.read_text(rel)
            if text is None:
                self._sources[rel] = None
            else:
                try:
                    self._sources[rel] = SourceFile(rel, text)
                except SyntaxError as exc:
                    self.parse_errors[rel] = (exc.lineno or 1, exc.msg or "syntax error")
                    self._sources[rel] = None
        return self._sources[rel]


def _normalize(rel: str) -> str:
    return rel.replace("\\", "/").lstrip("./")


def run_lint(project: Project, rel_paths: Sequence[str],
             rules: Sequence[Rule] | None = None) -> list[Finding]:
    """Lint ``rel_paths`` with ``rules`` (default: every registered rule).

    Returns the surviving findings sorted by location — pragma-suppressed
    findings are dropped, and pragmas that suppressed nothing come back as
    :data:`META_RULE` findings of their own.  A pragma naming a registered
    rule that did not run is not judged: it had nothing to suppress.
    """
    if rules is None:
        rules = [RULE_REGISTRY[rule_id] for rule_id in sorted(RULE_REGISTRY)]
    idle = set(RULE_REGISTRY) - {rule.id for rule in rules}

    files: list[SourceFile] = []
    findings: list[Finding] = []
    for rel in rel_paths:
        rel = _normalize(rel)
        parsed = project.source(rel)
        if parsed is None:
            line, message = project.parse_errors.get(rel, (1, "file not found"))
            findings.append(Finding(META_RULE, rel, line, 0,
                                    f"could not parse file: {message}"))
            continue
        files.append(parsed)

    for rule in rules:
        if rule.check_file is not None:
            for parsed in files:
                findings.extend(rule.check_file(parsed, project))
        if rule.check_project is not None:
            findings.extend(rule.check_project(project, files))

    linted = {parsed.rel: parsed for parsed in files}
    used_line: set[tuple[str, int, str]] = set()
    used_file: set[tuple[str, str]] = set()
    kept: list[Finding] = []
    for finding in findings:
        parsed = linted.get(finding.path)
        if parsed is not None and finding.rule != META_RULE:
            if finding.rule in parsed.file_pragmas:
                used_file.add((finding.path, finding.rule))
                continue
            if finding.rule in parsed.line_pragmas.get(finding.line, ()):
                used_line.add((finding.path, finding.line, finding.rule))
                continue
        kept.append(finding)

    for parsed in files:
        for line, rule_ids in parsed.line_pragmas.items():
            for rule_id in rule_ids - idle:
                if (parsed.rel, line, rule_id) not in used_line:
                    kept.append(Finding(
                        META_RULE, parsed.rel, line, 0,
                        f"pragma 'disable={rule_id}' suppresses nothing",
                        hint="remove the stale pragma (or fix the rule id)"))
        for rule_id, line in parsed.file_pragmas.items():
            if rule_id not in idle and (parsed.rel, rule_id) not in used_file:
                kept.append(Finding(
                    META_RULE, parsed.rel, line, 0,
                    f"pragma 'disable-file={rule_id}' suppresses nothing",
                    hint="remove the stale pragma (or fix the rule id)"))

    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return kept


# ----------------------------------------------------------------------
# Shared AST helpers for the rules
# ----------------------------------------------------------------------

def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, ``None`` for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None

