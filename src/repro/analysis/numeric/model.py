"""Per-file numeric model: events + contract scans → RA801–RA808 findings.

One pass per file, shared by all eight rules and the ``--numeric-report``
summary through a single-slot cache keyed on the tree object identity
(the engine parses each file once and feeds the same tree to every
rule, exactly like the typestate cache in ``rules_dataflow``).

The model combines three layers:

* the abstract interpreter's events
  (:class:`~repro.analysis.numeric.absint.NumericAnalysis`) solved to a
  fixpoint per function CFG — RA801/RA802/RA805 directly, RA803/RA804
  after intersecting with the hot regions of
  :mod:`~repro.analysis.dataflow.hotloop`;
* a flow-insensitive scan for per-tuple ``insert()`` build loops on
  values constructed from the known index constructors — RA806;
* the columnar-contract checks over ``column_array``-style helpers
  and ``Relation.columns()`` callers — RA807 — plus the
  reaching-defs-powered dead-materialisation check (RA808), which reuses
  :func:`repro.analysis.dataflow.reaching.function_scope` to restrict
  itself to true locals.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.astutil import collect_import_aliases, resolve_call
from repro.analysis.dataflow.cfg import function_cfgs
from repro.analysis.dataflow.hotloop import _walk_region, hot_regions
from repro.analysis.dataflow.reaching import function_scope
from repro.analysis.dataflow.solver import report_fixed_point, solve_forward
from repro.analysis.numeric.absint import (
    BULK_CAPABLE_CONSTRUCTORS,
    BULK_CAPABLE_REGISTRY_NAMES,
    INDEX_CONSTRUCTORS,
    NUMPY_KERNELS,
    SORTED_INPUT_KERNELS,
    NumericAnalysis,
    dtype_class_of,
)
from repro.analysis.numeric.lattice import DT_OBJECT, ORD_UNSORTED

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_LOOPS = (ast.For, ast.While, ast.AsyncFor)

#: directories whose innermost loops are RA803's hot scope (the rule's
#: ``applies_to`` enforces this; kept here for the docs/report)
HOT_DIRS = frozenset({"joins", "indexes", "core"})

#: RHS calls that materialise a fresh array (RA808 candidates)
_MATERIALIZERS = frozenset({
    "array", "asarray", "ascontiguousarray", "fromiter", "concatenate",
    "append", "sort", "unique", "empty", "zeros", "ones", "full", "arange",
})
#: attribute reads that only need the array's *shape*, not its contents
_SIZE_ONLY_ATTRS = frozenset({"size", "shape", "nbytes"})


@dataclass
class NumericModel:
    """Findings plus the raw material for the kernel-hygiene report."""

    findings: list  # (ast node, code, severity, message)
    kernel_entries: list = field(default_factory=list)  # {line, kernel, dtype}
    copy_sites: list = field(default_factory=list)      # {line, op}
    bulk_sites: list = field(default_factory=list)      # lines calling build_bulk
    scalar_sites: list = field(default_factory=list)    # lines of insert loops


_MODEL_CACHE: "tuple[ast.AST, NumericModel] | None" = None


def numeric_model(tree: ast.AST) -> NumericModel:
    """The (cached) numeric model of one parsed file."""
    global _MODEL_CACHE
    if _MODEL_CACHE is not None and _MODEL_CACHE[0] is tree:
        return _MODEL_CACHE[1]
    model = _build_model(tree)
    _MODEL_CACHE = (tree, model)
    return model


def _noop_report(node, code, severity, message):  # pragma: no cover
    return None


def _build_model(tree: ast.AST) -> NumericModel:
    aliases = collect_import_aliases(tree)
    findings: list = []
    seen: set[tuple[int, int, str, str]] = set()

    def add(node: ast.AST, code: str, severity: str, message: str) -> None:
        key = (getattr(node, "lineno", 0), getattr(node, "col_offset", 0),
               code, message)
        if key not in seen:
            seen.add(key)
            findings.append((node, code, severity, message))

    model = NumericModel(findings)

    # ---- abstract interpretation over every function CFG --------------
    events = []
    for cfg in function_cfgs(tree):
        analysis = NumericAnalysis(aliases)
        states = solve_forward(cfg, analysis)
        report_fixed_point(cfg, analysis, states, _noop_report)
        events.extend(analysis.events)

    hot_ids = _hot_node_ids(tree)
    innermost_ids = _innermost_loop_ids(tree)

    for event in events:
        line = getattr(event.node, "lineno", 0)
        if event.kind == "kernel":
            value = event.value
            model.kernel_entries.append(
                {"line": line, "kernel": event.detail,
                 "dtype_class": value.dtype})
            if value.dtype == DT_OBJECT:
                add(event.node, "RA801", "error",
                    f"object-dtype array reaches kernel call "
                    f"{event.detail.split(':')[0]}(); the int64-canonical "
                    "column contract requires a numeric array here "
                    "(object columns must take the per-value fallback path)")
            if event.detail in SORTED_INPUT_KERNELS:
                if value.order == ORD_UNSORTED:
                    add(event.node, "RA805", "warning",
                        f"array flowing into {event.detail}() is unsorted "
                        "on at least one path (built by concatenation/"
                        "fancy indexing with no sort in between); "
                        "searchsorted silently returns garbage on "
                        "unsorted input")
                elif value.contiguous is False:
                    add(event.node, "RA805", "warning",
                        f"non-contiguous (strided) array flowing into "
                        f"{event.detail}(); copy to a contiguous buffer "
                        "outside the hot path first")
        elif event.kind == "mix":
            add(event.node, "RA802", "warning",
                f"implicit dtype mix ({event.detail}) in array "
                "arithmetic/comparison forces a silent upcast per "
                "element; normalise both sides to one dtype class first")
        elif event.kind == "alloc":
            model.copy_sites.append({"line": line, "op": event.detail})
            if id(event.node) in innermost_ids:
                add(event.node, "RA803", "warning",
                    f"allocation-producing numpy op ({event.detail}) "
                    "inside an innermost loop; hoist it or restructure "
                    "to one vectorised call over the whole batch")
        elif event.kind == "tolist":
            if id(event.node) in hot_ids:
                add(event.node, "RA804", "warning",
                    ".tolist() scalarises an array inside a hot region; "
                    "keep the data vectorised or convert once outside "
                    "the per-binding path")
        elif event.kind == "foriter":
            node = event.node
            if id(node) in hot_ids or _is_innermost_loop(node):
                add(node, "RA804", "warning",
                    "per-element iteration over an array in hot scope; "
                    "each step boxes a numpy scalar — use vectorised "
                    "ops or .tolist() once outside the loop")

    # ---- syntactic / scope-based families ------------------------------
    _scan_insert_loops(tree, model, add)
    _scan_columnar_contract(tree, aliases, add)
    _scan_dead_materialization(tree, aliases, add)
    _scan_bulk_sites(tree, model)
    return model


# ----------------------------------------------------------------------
# hot-region indexing
# ----------------------------------------------------------------------
def _hot_node_ids(tree: ast.AST) -> set[int]:
    """ids of every AST node inside any hot region (loop or recursive fn)."""
    ids: set[int] = set()
    for region in hot_regions(tree):
        for node in _walk_region(region.body):
            ids.add(id(node))
    return ids


def _innermost_loop_ids(tree: ast.AST) -> set[int]:
    """ids of nodes inside innermost loops only (RA803's hot scope)."""
    ids: set[int] = set()
    for region in hot_regions(tree):
        if region.reason == "innermost loop":
            for node in _walk_region(region.body):
                ids.add(id(node))
    return ids


def _is_innermost_loop(node: ast.AST) -> bool:
    if not isinstance(node, _LOOPS):
        return False
    body = list(node.body) + list(getattr(node, "orelse", []))
    return not any(isinstance(sub, _LOOPS)
                   for stmt in body for sub in ast.walk(stmt))


# ----------------------------------------------------------------------
# RA806 — per-tuple insert loops where build_bulk exists
# ----------------------------------------------------------------------
def _constructs_bulk_capable(call: ast.Call, last: str) -> bool:
    """Does this constructor call yield a vectorized-``build_bulk`` index?

    Direct ``SonicIndex``/``SortedTrie`` constructions qualify;
    ``make_index`` only with a literal registry name known to be
    bulk-capable (an unknown or dynamic name could be a hash set, whose
    per-tuple build loop has nothing to vectorize — precision wins).
    """
    if last in BULK_CAPABLE_CONSTRUCTORS:
        return True
    if last != "make_index" or not call.args:
        return False
    name = call.args[0]
    return (isinstance(name, ast.Constant)
            and name.value in BULK_CAPABLE_REGISTRY_NAMES)


def _scan_insert_loops(tree: ast.AST, model: NumericModel, add) -> None:
    constructed: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            callee = node.value.func
            last = callee.attr if isinstance(callee, ast.Attribute) else (
                callee.id if isinstance(callee, ast.Name) else None)
            if (last in INDEX_CONSTRUCTORS
                    and _constructs_bulk_capable(node.value, last)):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        constructed.add(target.id)
    if not constructed:
        return
    for loop in ast.walk(tree):
        if not isinstance(loop, _LOOPS):
            continue
        for stmt in loop.body:
            for sub in ast.walk(stmt):
                if (isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr == "insert"
                        and isinstance(sub.func.value, ast.Name)
                        and sub.func.value.id in constructed):
                    model.scalar_sites.append(getattr(sub, "lineno", 0))
                    add(sub, "RA806", "warning",
                        f"per-tuple {sub.func.value.id}.insert() loop; "
                        "these indexes expose build_bulk(columns) — one "
                        "vectorised build from column arrays replaces "
                        "the per-row hash-and-probe work")


# ----------------------------------------------------------------------
# RA807 — the int64-or-object columnar contract
# ----------------------------------------------------------------------
def _scan_columnar_contract(tree: ast.AST, aliases: dict, add) -> None:
    # (a) column_array-style helpers must attempt int64 and fall back
    for node in ast.walk(tree):
        if isinstance(node, _FUNCS) and node.name in (
                "column_array", "_column_array"):
            if _is_pure_delegator(node):
                continue  # e.g. Relation.column_array → self._array(...)
            has_int64 = False
            has_fallback = False
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call):
                    last = sub.func.attr \
                        if isinstance(sub.func, ast.Attribute) else (
                            sub.func.id if isinstance(sub.func, ast.Name)
                            else None)
                    kwargs = {kw.arg: kw.value for kw in sub.keywords
                              if kw.arg}
                    dtype = dtype_class_of(kwargs.get("dtype"), aliases)
                    if last == "asarray" and dtype == "int64":
                        has_int64 = True
                    if dtype == "object":
                        has_fallback = True
            has_try = any(isinstance(sub, ast.Try) for sub in ast.walk(node))
            if not (has_int64 and has_fallback and has_try):
                add(node, "RA807", "error",
                    f"columnar contract: {node.name}() must attempt "
                    "np.asarray(values, dtype=np.int64) and fall back to "
                    "an object array in a try/except (the documented "
                    "int64-or-object split)")

    # (b) columns()/column_array callers mixing in kernel calls must
    # branch on the dtype split somewhere in the same function
    for func in ast.walk(tree):
        if not isinstance(func, _FUNCS):
            continue
        calls_columns = False
        calls_kernel = False
        handles_dtype = False
        for sub in ast.walk(func):
            if isinstance(sub, ast.Call) \
                    and isinstance(sub.func, ast.Attribute):
                if sub.func.attr in ("columns", "column_array"):
                    calls_columns = True
                if sub.func.attr in ("column_dtype_class", "dtype_classes"):
                    handles_dtype = True
            if isinstance(sub, ast.Call):
                resolved = resolve_call(sub.func, aliases)
                name = resolved.split(".")[-1] if resolved else (
                    sub.func.attr if isinstance(sub.func, ast.Attribute)
                    else None)
                if name in NUMPY_KERNELS or name == "lexsort":
                    calls_kernel = True
            if isinstance(sub, ast.Attribute) and sub.attr == "dtype":
                handles_dtype = True
        if calls_columns and calls_kernel and not handles_dtype:
            add(func, "RA807", "error",
                f"{func.name}() feeds Relation columns into numpy "
                "kernels without handling the int64-or-object split; "
                "branch on the column dtype class (object columns take "
                "the per-value path)")


def _is_pure_delegator(func: ast.AST) -> bool:
    """A helper whose whole body is ``return other_call(...)`` keeps its
    contract in the delegate, not locally."""
    body = [stmt for stmt in func.body
            if not (isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant)
                    and isinstance(stmt.value.value, str))]
    return (len(body) == 1 and isinstance(body[0], ast.Return)
            and isinstance(body[0].value, ast.Call))


# ----------------------------------------------------------------------
# RA808 — dead array materialisation (built, then only len()'d)
# ----------------------------------------------------------------------
def _scan_dead_materialization(tree: ast.AST, aliases: dict, add) -> None:
    for func in ast.walk(tree):
        if not isinstance(func, _FUNCS):
            continue
        scope = function_scope(func)
        tracked = scope.tracked() - scope.params
        parents: dict[int, ast.AST] = {}
        for node in ast.walk(func):
            for child in ast.iter_child_nodes(node):
                parents[id(child)] = node
        # single-assignment locals whose RHS materialises an array
        candidates: dict[str, ast.Assign] = {}
        assignment_counts: dict[str, int] = {}
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        assignment_counts[target.id] = \
                            assignment_counts.get(target.id, 0) + 1
                if (len(node.targets) == 1
                        and isinstance(node.targets[0], ast.Name)
                        and _materialises_array(node.value, aliases)):
                    candidates[node.targets[0].id] = node
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                for sub in ast.walk(node.target):
                    if isinstance(sub, ast.Name):
                        assignment_counts[sub.id] = \
                            assignment_counts.get(sub.id, 0) + 1
        for name, assign in candidates.items():
            if name not in tracked or assignment_counts.get(name, 0) != 1:
                continue
            loads = [node for node in ast.walk(func)
                     if isinstance(node, ast.Name) and node.id == name
                     and isinstance(node.ctx, ast.Load)]
            if not loads:
                continue  # RA503 (dead store) already covers zero uses
            if all(_size_only_use(load, parents) for load in loads):
                add(assign, "RA808", "warning",
                    f"array {name!r} is materialised but only its "
                    "length/shape is ever read; compute the size without "
                    "building the array (dead materialisation)")


def _materialises_array(expr: ast.AST, aliases: dict) -> bool:
    if not isinstance(expr, ast.Call):
        return False
    resolved = resolve_call(expr.func, aliases)
    if resolved is not None and resolved.startswith("numpy") \
            and resolved.split(".")[-1] in _MATERIALIZERS:
        return True
    return (isinstance(expr.func, ast.Attribute)
            and expr.func.attr in ("astype", "copy")
            and resolved is None)


def _size_only_use(load: ast.Name, parents: dict[int, ast.AST]) -> bool:
    parent = parents.get(id(load))
    if (isinstance(parent, ast.Call) and isinstance(parent.func, ast.Name)
            and parent.func.id == "len" and parent.args
            and parent.args[0] is load):
        return True
    return (isinstance(parent, ast.Attribute)
            and parent.attr in _SIZE_ONLY_ATTRS
            and isinstance(parent.ctx, ast.Load))


# ----------------------------------------------------------------------
# report-only scan: bulk build call sites
# ----------------------------------------------------------------------
def _scan_bulk_sites(tree: ast.AST, model: NumericModel) -> None:
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "build_bulk"):
            model.bulk_sites.append(getattr(node, "lineno", 0))
