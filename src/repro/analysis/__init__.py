"""Static-analysis subsystem: lint engine, contract checker, plan validator.

Three engines, one diagnostic currency (:class:`~repro.analysis.findings.Finding`):

1. **Lint engine** (:mod:`~repro.analysis.engine`) — the AST rules
   RA101–RA103 (:mod:`~repro.analysis.rules`: deterministic hashing,
   seeded RNGs, iteration safety) and the lock-contract rules RA701,
   RA703 and RA707 (:mod:`~repro.analysis.rules_concurrency` over the
   :mod:`~repro.analysis.concurrency` module model).  Findings are
   suppressible per line with ``# repro: noqa[RULE]``.
2. **Contract checker** (:mod:`~repro.analysis.contracts`) — RA201–RA205,
   introspecting :mod:`repro.indexes.registry` for the paper's §4.1
   ``TupleIndex``/``PrefixCursor`` plug-in contract.
3. **Plan validator** (:mod:`~repro.analysis.plancheck`) — RA301–RA307,
   static checks on :class:`~repro.planner.query.JoinQuery` plans and
   compiled ``JoinPlan`` objects (attribute cover, γ permutation,
   AGM cover feasibility, schema consistency), run by the executor in
   debug mode.

The CLI gate is ``python -m repro.analysis [paths] [--json] [--rule …]``.

This package root stays import-light (stdlib only); the contract checker,
which needs the index registry and therefore numpy, is loaded lazily.
"""

from __future__ import annotations

from repro.analysis.engine import (
    LintRule,
    all_rules,
    analyze_file,
    analyze_paths,
    analyze_source,
    register_rule,
    select_rules,
)
from repro.analysis.findings import Finding, Severity
from repro.analysis.plancheck import (
    PlanIssue,
    check_join_plan,
    check_plan,
    validate_join_plan,
    validate_plan,
)
from repro.analysis.reporters import render_json, render_text, summarize

import repro.analysis.rules  # noqa: F401  (importing registers RA101–RA103)
import repro.analysis.rules_concurrency  # noqa: F401  (registers RA701/703/707)

__all__ = [
    "Finding",
    "LintRule",
    "PlanIssue",
    "Severity",
    "all_rules",
    "analyze_file",
    "analyze_paths",
    "analyze_source",
    "check_join_plan",
    "check_plan",
    "check_registry",
    "register_rule",
    "render_json",
    "render_text",
    "select_rules",
    "summarize",
    "validate_join_plan",
    "validate_plan",
]


def __getattr__(name: str):
    # `check_registry` imports repro.indexes (numpy & friends); keep the
    # lint path importable without the numeric stack.
    if name == "check_registry":
        from repro.analysis.contracts import check_registry

        return check_registry
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
