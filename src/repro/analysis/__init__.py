"""Static-analysis subsystem: lint engine and contract checker.

Two engines, one diagnostic currency (:class:`~repro.analysis.findings.Finding`):

1. **Lint engine** (:mod:`~repro.analysis.engine`) — the AST rules
   RA101–RA103 (:mod:`~repro.analysis.rules`: deterministic hashing,
   seeded RNGs, iteration safety) and the lock-contract rules RA701,
   RA703 and RA707 (:mod:`~repro.analysis.rules_concurrency` over the
   :mod:`~repro.analysis.concurrency` module model).  Findings are
   suppressible per line with ``# repro: noqa[RULE]``.
2. **Contract checker** (:mod:`~repro.analysis.contracts`) — RA201–RA205,
   introspecting :mod:`repro.indexes.registry` for the paper's §4.1
   ``TupleIndex``/``PrefixCursor`` plug-in contract.

The CLI gate is ``python -m repro.analysis [paths] [--json] [--rule …]``,
and it is the package's only interface, so the package exports nothing.

This package root stays import-light (stdlib only); the contract checker,
which needs the index registry and therefore numpy, is loaded by the CLI
when it runs.
"""

from __future__ import annotations

import repro.analysis.rules  # noqa: F401  (importing registers RA101–RA103)
import repro.analysis.rules_concurrency  # noqa: F401  (registers RA701/703/707)

__all__: list[str] = []
