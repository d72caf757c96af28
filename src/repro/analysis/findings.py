"""Findings: the one currency every analysis engine trades in.

The lint engine, the index-contract checker and the plan validator all
report :class:`Finding` records — a rule code, a severity, a location and
a message — so the CLI, the reporters and the tests can treat the three
engines uniformly (mirroring how a C++ build surfaces template errors,
static_asserts and warnings through one diagnostic stream).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.IntEnum):
    """How sure the rule is; either severity fails the CLI gate."""

    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:  # "error", not "Severity.ERROR"
        return self.name.lower()


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic, sortable by location for stable reports."""

    path: str
    line: int
    column: int
    rule: str
    severity: Severity = field(compare=False)
    message: str = field(compare=False)

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.column}"

    def render(self) -> str:
        return (f"{self.location}: {self.rule} "
                f"[{self.severity}] {self.message}")

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "rule": self.rule,
            "severity": str(self.severity),
            "message": self.message,
        }

