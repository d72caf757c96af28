"""``python -m repro.analysis`` — the CI gate.

Lints the given paths with the full rule registry (RA1xx and RA7xx),
contract-checks the index registry (RA2xx), and exits non-zero when any
finding survives ``# repro: noqa`` suppression — which is exactly what
``.github/workflows/ci.yml`` runs.  Also reachable as
``python -m repro analysis …``.

Examples::

    python -m repro.analysis                      # lint src + benchmarks
    python -m repro.analysis src --json           # machine-readable report
    python -m repro.analysis --rule RA703 src     # a single rule
    python -m repro.analysis --list-rules
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.analysis.engine import analyze_paths, select_rules
from repro.analysis.findings import Finding, Severity
from repro.analysis.reporters import render_json, render_text

DEFAULT_PATHS = ("src", "benchmarks")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static analysis for the SonicJoin reproduction: "
                    "lint rules, lock-contract checks and index-contract "
                    "checks.",
    )
    parser.add_argument(
        "paths", nargs="*", default=list(DEFAULT_PATHS),
        help=f"files or directories to lint (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--rule", action="append", dest="rules", metavar="CODE",
        help="restrict to specific rule codes (repeatable, e.g. --rule RA703)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit a JSON report instead of compiler-style text",
    )
    parser.add_argument(
        "--no-contracts", action="store_true",
        help="skip the index registry contract check (lint only)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _contract_findings(selected: "Sequence[str] | None") -> list[Finding]:
    """Registry contract findings, honoring a --rule filter.

    Importing the registry pulls in the numeric stack; when that is
    unavailable (a lint-only environment) the check degrades to a
    warning instead of crashing the linter.
    """
    if selected is not None and not any(
            code.upper().startswith("RA2") for code in selected):
        return []
    try:
        from repro.analysis.contracts import check_registry
        findings = check_registry()
    except ImportError as exc:
        return [Finding(
            path="<registry>", line=1, column=1, rule="RA200",
            severity=Severity.WARNING,
            message=f"contract check skipped: registry import failed ({exc})",
        )]
    if selected is not None:
        wanted = {code.upper() for code in selected}
        findings = [f for f in findings if f.rule in wanted]
    return findings


def main(argv: "Sequence[str] | None" = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)

    if options.list_rules:
        from repro.analysis.rules import rule_catalog

        for entry in rule_catalog():
            print(f"{entry['code']}  [{entry['severity']}]  {entry['title']}")
        print("RA2xx [error]  index contract checks (repro.analysis.contracts)")
        return 0

    try:
        rules = select_rules(options.rules)
    except ValueError as exc:
        parser.error(str(exc))

    # a typo'd path must not silently report "clean" and green-light CI
    missing = [p for p in options.paths if not Path(p).exists()]
    if missing:
        parser.error(f"no such path(s): {', '.join(missing)}")

    findings = analyze_paths(options.paths, rules=rules)
    if not options.no_contracts:
        findings.extend(_contract_findings(options.rules))
    findings.sort()

    print(render_json(findings) if options.json else render_text(findings))
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
