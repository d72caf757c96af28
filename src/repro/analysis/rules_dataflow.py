"""Dataflow-backed lint rules (RA401–RA404, RA501–RA504, RA601).

These rules plug the CFG/fixpoint machinery of
:mod:`repro.analysis.dataflow` into the ordinary lint registry, so the
CLI, the noqa table, the baseline and the reporters treat them exactly
like the syntactic RA1xx family:

* **RA401** — cursor/iterator protocol misuse (use before ``open``,
  advance/read after exhaustion) from the typestate pass.
* **RA402** — seek/depth discipline (``up``/``ascend`` above the root).
* **RA403** — prefix methods on a value flowing from a
  ``SUPPORTS_PREFIX=False`` index construction.
* **RA404** — ``insert``/``build`` after the index was handed to an
  adapter/executor (mutation-after-build).
* **RA501** — container allocation inside a hot region (innermost loop
  or directly-recursive join driver).
* **RA502** — known-O(n) work inside a hot region.
* **RA503** — dead stores (assigned, never read on any path).
* **RA504** — definite use-before-def (guaranteed ``NameError``).
* **RA601** — observability calls (metrics/tracer/observer methods) in
  an innermost loop not routed through the null-object ``.enabled``
  guard, so instrumentation can never regress the hot path silently.

Definite violations are errors; may-violations (only on *some* path) are
warnings — the per-finding severity comes from the analysis itself, not
the rule class, so one rule can emit both.

The typestate and reaching-defs passes each run **once per file** and
are shared across their rule family through a single-slot cache keyed on
the tree object identity (the engine parses each file once and runs all
rules against that same tree, so one slot suffices).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from pathlib import PurePath
from typing import ClassVar

from repro.analysis.astutil import collect_import_aliases
from repro.analysis.dataflow.cfg import build_cfg, function_cfgs
from repro.analysis.dataflow.hotloop import scan_hot_regions, scan_unguarded_obs
from repro.analysis.dataflow.reaching import dead_stores, use_before_def
from repro.analysis.dataflow.solver import report_fixed_point, solve_forward
from repro.analysis.dataflow.typestate import TypestateAnalysis
from repro.analysis.engine import LintRule, register_rule
from repro.analysis.findings import Finding, Severity

# ----------------------------------------------------------------------
# shared per-file analysis caches (single slot: the engine parses each
# file once and feeds the same tree object to every rule)
# ----------------------------------------------------------------------
_TS_CACHE: "tuple[ast.AST, list] | None" = None
_RD_CACHE: "tuple[ast.AST, list] | None" = None


def _typestate_results(tree: ast.AST) -> "list[tuple[ast.AST, str, str, str]]":
    """(node, code, severity, message) tuples from the typestate pass."""
    global _TS_CACHE
    if _TS_CACHE is not None and _TS_CACHE[0] is tree:
        return _TS_CACHE[1]
    aliases = collect_import_aliases(tree)
    results: list[tuple[ast.AST, str, str, str]] = []
    seen: set[tuple[int, int, str, str]] = set()

    def report(node: ast.AST, code: str, severity: str, message: str) -> None:
        key = (getattr(node, "lineno", 0), getattr(node, "col_offset", 0),
               code, message)
        if key not in seen:
            seen.add(key)
            results.append((node, code, severity, message))

    for cfg in function_cfgs(tree):
        analysis = TypestateAnalysis(aliases)
        in_states = solve_forward(cfg, analysis)
        report_fixed_point(cfg, analysis, in_states, report)
    _TS_CACHE = (tree, results)
    return results


def _reaching_results(tree: ast.AST) -> "list[tuple[ast.AST, str, str]]":
    """(name_node, code, message) tuples from the reaching-defs pass."""
    global _RD_CACHE
    if _RD_CACHE is not None and _RD_CACHE[0] is tree:
        return _RD_CACHE[1]
    results: list[tuple[ast.AST, str, str]] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        cfg = build_cfg(node)
        for name, message in use_before_def(cfg):
            results.append((name, "RA504", message))
        for name, message in dead_stores(cfg):
            results.append((name, "RA503", message))
    _RD_CACHE = (tree, results)
    return results


class _DataflowRule(LintRule):
    """Base for rules served from the shared typestate results."""

    def _emit(self, path: str, node: ast.AST, severity: str,
              message: str) -> Finding:
        return Finding(
            path=path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            rule=self.code,
            severity=Severity[severity.upper()],
            message=message,
        )

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        for node, code, severity, message in _typestate_results(tree):
            if code == self.code:
                yield self._emit(path, node, severity, message)


# ----------------------------------------------------------------------
# RA4xx — typestate
# ----------------------------------------------------------------------
@register_rule
class CursorProtocolRule(_DataflowRule):
    """TrieIterator used before open() or after exhaustion."""

    code = "RA401"
    title = "cursor/iterator protocol misuse (use before open / after end)"
    severity = Severity.ERROR


@register_rule
class DepthDisciplineRule(_DataflowRule):
    """up()/ascend() popping above the root (unbalanced depth)."""

    code = "RA402"
    title = "seek/depth discipline violation (pop above root)"
    severity = Severity.ERROR


@register_rule
class PrefixCapabilityRule(_DataflowRule):
    """Prefix methods on a SUPPORTS_PREFIX=False index value."""

    code = "RA403"
    title = "prefix method on a point-lookup-only index"
    severity = Severity.ERROR


@register_rule
class MutationAfterBuildRule(_DataflowRule):
    """insert()/build() after the index was handed to the executor."""

    code = "RA404"
    title = "index mutated after build (stale cursors)"
    severity = Severity.ERROR


# ----------------------------------------------------------------------
# RA5xx — hot-loop hygiene and reaching definitions
# ----------------------------------------------------------------------
_HOT_DIRS = frozenset({"joins", "indexes"})


class _HotLoopRule(LintRule):
    """Base for the hot-region scanners (scoped to the probe-path code)."""

    severity = Severity.WARNING
    _code: ClassVar[str] = ""

    def applies_to(self, path: PurePath) -> bool:
        return any(part in _HOT_DIRS for part in path.parts)

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        for node, code, message in scan_hot_regions(tree):
            if code == self.code:
                yield self.finding(path, node, message)


@register_rule
class HotLoopAllocRule(_HotLoopRule):
    """Fresh container allocation inside a hot region."""

    code = "RA501"
    title = "allocation inside a hot region (per-binding cost)"


@register_rule
class HotLoopLinearRule(_HotLoopRule):
    """Known-O(n) operation inside a hot region."""

    code = "RA502"
    title = "O(n) operation inside a hot region"


#: RA601 additionally covers the multiprocess fan-out layer: its
#: dispatch/collect loops carry flight-recorder and metrics-exposition
#: call sites that must obey the same ``.enabled`` discipline
_OBS_HOT_DIRS = _HOT_DIRS | {"parallel"}


@register_rule
class UnguardedObsRule(_HotLoopRule):
    """Obs call in an innermost loop outside the ``.enabled`` pattern.

    The ``repro.obs`` contract (see its module docs): hot loops in ``joins/``,
    ``indexes/`` and ``parallel/`` may only call metrics/tracer/observer/
    flight-recorder methods behind an ``if …enabled:`` branch — either an
    ``.enabled`` attribute test or a hoisted flag whose name ends in
    ``enabled``.  Plain ``+=`` counter accumulation (flushed after the
    loop) is the sanctioned alternative and is not flagged.
    """

    code = "RA601"
    title = "unguarded observability call in a hot loop"

    def applies_to(self, path: PurePath) -> bool:
        return any(part in _OBS_HOT_DIRS for part in path.parts)

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        for node, method in scan_unguarded_obs(tree):
            yield self.finding(
                path, node,
                f"obs call .{method}() inside an innermost loop without an "
                "`.enabled` guard; branch on `<metrics/tracer/obs>.enabled` "
                "(or a hoisted `*_enabled` flag), or accumulate locally and "
                "flush outside the loop",
            )


@register_rule
class DeadStoreRule(LintRule):
    """Assignments whose value is never read on any path."""

    code = "RA503"
    title = "dead store (value never read)"
    severity = Severity.WARNING

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        for node, code, message in _reaching_results(tree):
            if code == self.code:
                yield self.finding(path, node, message)


@register_rule
class UseBeforeDefRule(LintRule):
    """Loads of locals unbound on every path (guaranteed NameError)."""

    code = "RA504"
    title = "local used before any assignment (guaranteed NameError)"
    severity = Severity.ERROR

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        for node, code, message in _reaching_results(tree):
            if code == self.code:
                yield self.finding(path, node, message)
