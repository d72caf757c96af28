"""Numeric-kernel lint rules (RA801–RA808).

The fourth dataflow family, served from the cached per-file
:func:`~repro.analysis.numeric.model.numeric_model` (dtype/copy abstract
interpretation over the shared CFGs plus the columnar-contract scans).
Registering through the ordinary lint registry means ``noqa``, the
baseline, SARIF, ``--changed-only`` and the CI gates apply unchanged —
exactly like the RA4xx/RA5xx/RA7xx families.

* **RA801** — ``object``-dtype array reaching a kernel call
  (``searchsorted``/``lexsort``/``np.intersect1d``/batch-cursor entry
  points).  Error: the kernels' cost model assumes machine integers.
* **RA802** — implicit dtype-mixing comparisons/arithmetic between
  arrays of different definite dtype classes.
* **RA803** — allocation-producing numpy op (fancy index, ``astype``
  without ``copy=False``, ``np.concatenate``/``np.append``) inside an
  innermost loop; scoped to ``joins/``/``indexes/``/``core/``.
* **RA804** — ``.tolist()``/per-element iteration over an array in hot
  scope (innermost loops and recursive join drivers).
* **RA805** — a provably unsorted or non-contiguous array flowing into
  a ``searchsorted``-family call.
* **RA806** — per-tuple ``index.insert()`` loops where a ``build_bulk``
  path exists (SonicIndex/SortedTrie/make_index constructions).
* **RA807** — the int64-or-object columnar contract:
  ``column_array``-style helpers must attempt int64 and fall back to
  object in a try/except; ``Relation.columns()``/``column_array``
  callers feeding kernels must branch on the dtype split.  (That the
  batch engine's structure takes int64 columns unconverted is no longer
  a class flag to lint: ``ColumnarTrie`` refuses anything else when it
  is built, and the plan stage routes object columns to the tuple
  engine.)  Error severity throughout.
* **RA808** — dead array materialisation: an array is built but only
  its length/shape is ever read (reaching-defs-scope-powered).

Per-finding severities come from the model, like the other dataflow
families: definite contract breaks are errors, judgement calls are
warnings a human adopts into the baseline or fixes.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from pathlib import PurePath
from typing import ClassVar

from repro.analysis.engine import LintRule, register_rule
from repro.analysis.findings import Finding, Severity
from repro.analysis.numeric.model import HOT_DIRS, numeric_model


class _NumericRule(LintRule):
    """Base for rules served from the shared numeric model."""

    severity = Severity.WARNING

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        for node, code, severity, message in numeric_model(tree).findings:
            if code == self.code:
                yield Finding(
                    path=path,
                    line=getattr(node, "lineno", 1),
                    column=getattr(node, "col_offset", 0) + 1,
                    rule=self.code,
                    severity=Severity[severity.upper()],
                    message=message,
                )


@register_rule
class ObjectDtypeKernelRule(_NumericRule):
    """object-dtype array entering a vectorised kernel call."""

    code = "RA801"
    title = "object-dtype array reaches a kernel call"
    severity = Severity.ERROR


@register_rule
class DtypeMixRule(_NumericRule):
    """Arithmetic/comparison across definite, different dtype classes."""

    code = "RA802"
    title = "implicit dtype-mixing array arithmetic/comparison"


@register_rule
class HotLoopNumpyAllocRule(_NumericRule):
    """Allocation-producing numpy op inside an innermost hot loop.

    Scoped to the kernel directories (``joins/``, ``indexes/``,
    ``core/``) like the RA501 family — a fancy-index copy in test or
    benchmark setup code is not a per-binding cost.
    """

    code = "RA803"
    title = "numpy allocation inside an innermost hot loop"
    _dirs: ClassVar[frozenset] = HOT_DIRS

    def applies_to(self, path: PurePath) -> bool:
        return any(part in self._dirs for part in path.parts)


@register_rule
class ArrayScalarisationRule(_NumericRule):
    """.tolist()/per-element iteration over an array in hot scope."""

    code = "RA804"
    title = "array scalarised (.tolist()/per-element loop) in hot scope"


@register_rule
class UnsortedSearchsortedRule(_NumericRule):
    """Unsorted/non-contiguous array into a searchsorted-family call."""

    code = "RA805"
    title = "unsorted or strided array into searchsorted"


@register_rule
class ScalarBuildLoopRule(_NumericRule):
    """Per-tuple insert() loop where a build_bulk path exists."""

    code = "RA806"
    title = "per-tuple index.insert() loop (build_bulk available)"


@register_rule
class ColumnarContractRule(_NumericRule):
    """The int64-or-object columnar contract over storage + adapters."""

    code = "RA807"
    title = "int64-canonical columnar contract violation"
    severity = Severity.ERROR


@register_rule
class DeadMaterializationRule(_NumericRule):
    """Array built, then only len()'d — the build is wasted work."""

    code = "RA808"
    title = "dead array materialisation (only its size is read)"
