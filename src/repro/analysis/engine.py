"""The lint engine: rule registry, file walker and finding collection.

Rules are small AST passes registered with :func:`register_rule`; the
engine parses each Python file once, runs every rule whose
:meth:`LintRule.applies_to` accepts the path, and filters the resulting
findings through the ``# repro: noqa`` table (:mod:`repro.analysis.noqa`).
Everything is stdlib-only (``ast`` + ``pathlib``) so the linter runs in
environments without the library's numeric dependencies.
"""

from __future__ import annotations

import abc
import ast
from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path, PurePath
from typing import ClassVar

from repro.analysis.findings import Finding, Severity
from repro.analysis.noqa import is_suppressed, line_suppressions

#: rule code reserved for files the engine cannot parse
PARSE_ERROR_RULE = "RA001"

_SKIP_DIRS = {"__pycache__", ".git", ".hg", ".venv", "venv", "node_modules",
              ".mypy_cache", ".pytest_cache", "build", "dist"}


class LintRule(abc.ABC):
    """One lint pass: a code, a path scope and an AST check."""

    code: ClassVar[str] = "RA000"
    title: ClassVar[str] = ""
    severity: ClassVar[Severity] = Severity.ERROR
    #: rules that read annotation comments (not present in the AST) set
    #: this; the engine then passes ``source=`` to :meth:`check`
    wants_source: ClassVar[bool] = False

    def applies_to(self, path: PurePath) -> bool:
        """Path predicate; rules scoped to subtrees override this."""
        return True

    @abc.abstractmethod
    def check(self, tree: ast.AST, path: str) -> Iterable[Finding]:
        """Yield findings for one parsed file."""

    # ------------------------------------------------------------------
    def finding(self, path: str, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at ``node``'s source position."""
        return Finding(
            path=path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            rule=self.code,
            severity=self.severity,
            message=message,
        )


_RULES: dict[str, LintRule] = {}


def register_rule(cls: type[LintRule]) -> type[LintRule]:
    """Class decorator adding one rule instance to the global registry."""
    instance = cls()
    if instance.code in _RULES:
        raise ValueError(f"lint rule {instance.code} registered twice")
    # import-time registration: decorators run while the module loads,
    # under the import lock; the registry is read-only afterwards
    _RULES[instance.code] = instance  # repro: noqa[RA701]
    return cls


def all_rules() -> list[LintRule]:
    """Every registered rule, sorted by code."""
    return [_RULES[code] for code in sorted(_RULES)]


def select_rules(codes: "Sequence[str] | None") -> list[LintRule]:
    """Registered rules filtered to ``codes`` (all rules when ``None``)."""
    if codes is None:
        return all_rules()
    wanted = {code.upper() for code in codes}
    unknown = wanted - set(_RULES)
    # contract (RA2xx) codes are valid filters but are produced by the
    # contract checker, not the lint registry
    unknown = {c for c in unknown if not c.startswith("RA2")}
    if unknown:
        raise ValueError(
            f"unknown lint rules {sorted(unknown)}; known: {sorted(_RULES)}"
        )
    return [rule for code, rule in sorted(_RULES.items()) if code in wanted]


# ----------------------------------------------------------------------
# Driving the rules over sources and trees
# ----------------------------------------------------------------------
def analyze_source(source: str, path: "str | PurePath",
                   rules: "Sequence[LintRule] | None" = None) -> list[Finding]:
    """Lint one in-memory source buffer as if it lived at ``path``."""
    pure = PurePath(path)
    name = str(path)
    try:
        tree = ast.parse(source, filename=name)
    except SyntaxError as exc:
        return [Finding(
            path=name,
            line=exc.lineno or 1,
            column=(exc.offset or 1),
            rule=PARSE_ERROR_RULE,
            severity=Severity.ERROR,
            message=f"file does not parse: {exc.msg}",
        )]
    suppressions = line_suppressions(source)
    findings: list[Finding] = []
    for rule in (rules if rules is not None else all_rules()):
        if not rule.applies_to(pure):
            continue
        if rule.wants_source:
            produced = rule.check(tree, name, source=source)
        else:
            produced = rule.check(tree, name)
        for found in produced:
            if not is_suppressed(suppressions, found.line, found.rule):
                findings.append(found)
    findings.sort()
    return findings


def analyze_file(path: "str | Path",
                 rules: "Sequence[LintRule] | None" = None) -> list[Finding]:
    """Lint one file from disk."""
    file_path = Path(path)
    try:
        source = file_path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return [Finding(
            path=str(path), line=1, column=1, rule=PARSE_ERROR_RULE,
            severity=Severity.ERROR, message=f"cannot read file: {exc}",
        )]
    return analyze_source(source, file_path, rules=rules)


def iter_python_files(paths: Iterable["str | Path"]) -> Iterator[Path]:
    """All ``.py`` files under ``paths`` (files pass through, dirs recurse)."""
    seen: set[Path] = set()
    for entry in paths:
        root = Path(entry)
        if root.is_file():
            candidates: Iterable[Path] = [root]
        else:
            candidates = sorted(root.rglob("*.py"))
        for candidate in candidates:
            if candidate.suffix != ".py":
                continue
            if any(part in _SKIP_DIRS for part in candidate.parts):
                continue
            resolved = candidate.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            yield candidate


def analyze_paths(paths: Iterable["str | Path"],
                  rules: "Sequence[LintRule] | None" = None) -> list[Finding]:
    """Lint every Python file under ``paths``; findings sorted by location."""
    findings: list[Finding] = []
    for file_path in iter_python_files(paths):
        findings.extend(analyze_file(file_path, rules=rules))
    findings.sort()
    return findings
