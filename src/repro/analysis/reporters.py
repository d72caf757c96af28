"""Rendering findings: text for humans, JSON for CI."""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Sequence

from repro.analysis.findings import Finding


def summarize(findings: Sequence[Finding]) -> dict:
    """Counts by severity and by rule, plus the overall gate verdict."""
    by_severity = Counter(str(f.severity) for f in findings)
    by_rule = Counter(f.rule for f in findings)
    return {
        "total": len(findings),
        "errors": by_severity.get("error", 0),
        "warnings": by_severity.get("warning", 0),
        "by_rule": dict(sorted(by_rule.items())),
        "ok": not findings,
    }


def render_text(findings: Sequence[Finding]) -> str:
    """One diagnostic per line plus a one-line summary (compiler style)."""
    lines = [finding.render() for finding in findings]
    summary = summarize(findings)
    if summary["total"] == 0:
        lines.append("analysis clean: no findings")
    else:
        lines.append(
            f"{summary['total']} finding(s): {summary['errors']} error(s), "
            f"{summary['warnings']} warning(s)"
        )
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    """Stable machine-readable report for CI artifact consumers."""
    payload = {
        "findings": [finding.to_dict() for finding in findings],
        "summary": summarize(findings),
    }
    return json.dumps(payload, indent=2, sort_keys=True)
