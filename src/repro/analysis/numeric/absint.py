"""Abstract interpretation of numpy values over the shared CFGs.

:class:`NumericAnalysis` is a
:class:`~repro.analysis.dataflow.solver.ForwardAnalysis`: the state maps
local names to :class:`~repro.analysis.numeric.lattice.ArrayValue` /
:class:`~repro.analysis.numeric.lattice.IndexValue` facts, the transfer
function symbolically evaluates assignments, numpy constructor and
method calls, slicing and fancy indexing, and the reporting sweep (the
second ``transfer`` pass that :func:`report_fixed_point` drives over the
solved states) records **events** instead of findings:

* ``kernel``  — a known array entering a kernel call (``searchsorted``,
  ``lexsort``, ``intersect1d`` and friends, batch-cursor entry points),
  with its dtype class / order / contiguity at the call site.
* ``mix``     — arithmetic or comparison between arrays of two
  *definite, different* dtype classes (RA802's raw material).
* ``alloc``   — an allocation-producing numpy op (fancy index,
  ``astype`` without ``copy=False``, ``np.concatenate``/``np.append``…).
* ``tolist`` / ``foriter`` — scalarisation of an array (``.tolist()``,
  per-element ``for`` iteration).

:mod:`~repro.analysis.numeric.model` turns events into RA801–RA805
findings; keeping the interpreter finding-free keeps it reusable for the
``--numeric-report`` hygiene summary, which wants the *clean* kernel
entries too.

The evaluator is deliberately conservative: parameters, attributes and
anything it cannot prove to be an array stay untracked, so every rule
fed from here only fires on locally-provable facts (no false positives
from lookalike locals).  Comprehensions are their own scope and are not
descended into, matching the reaching-defs pass.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Any

from repro.analysis.astutil import resolve_call
from repro.analysis.dataflow.cfg import (
    KIND_FORHEAD,
    KIND_HANDLER,
    KIND_STMT,
    KIND_TEST,
    KIND_WITHHEAD,
    Node,
)
from repro.analysis.dataflow.solver import ForwardAnalysis
from repro.analysis.numeric.lattice import (
    DT_INT64,
    DT_NUMERIC,
    DT_OBJECT,
    DT_UNKNOWN,
    ORD_SORTED,
    ORD_UNKNOWN,
    ORD_UNSORTED,
    PROV_FRESH,
    PROV_UNKNOWN,
    PROV_VIEW,
    ArrayValue,
    IndexValue,
    join_arrays,
    join_dtypes,
)

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)

#: numpy callables whose argument arrays "enter a kernel"
NUMPY_KERNELS = frozenset({
    "searchsorted", "lexsort", "intersect1d", "union1d", "setdiff1d",
    "isin", "in1d",
})
#: kernels whose first argument must be sorted and contiguous (RA805)
SORTED_INPUT_KERNELS = frozenset({"searchsorted"})
#: the columnar trie's vectorised entry points: their array arguments
#: enter its packed-key kernels (repro.indexes.columnar.ColumnarTrie)
BATCH_ENTRY_METHODS = frozenset({"probe", "child_ranges"})
#: index constructors recognised by the abstract interpreter (the value
#: becomes an :class:`~repro.analysis.numeric.lattice.IndexValue`)
INDEX_CONSTRUCTORS = frozenset({
    "SonicIndex", "SortedTrie", "HashTrie", "make_index",
})
#: constructions yielding an index with a *vectorized* ``build_bulk``
#: — RA806's scope: the per-row default exists on every index, but a
#: per-tuple loop only leaves speed on the table where the columnar
#: path does better
BULK_CAPABLE_CONSTRUCTORS = frozenset({"SonicIndex", "SortedTrie"})
BULK_CAPABLE_REGISTRY_NAMES = frozenset({"sonic", "sortedtrie"})

#: dtype spellings → dtype class
_INT64_NAMES = frozenset({"int64", "intp", "int_", "longlong", "int"})
_OBJECT_NAMES = frozenset({"object", "object_", "O"})
_NUMERIC_NAMES = frozenset({
    "float64", "float32", "float_", "float", "double", "single",
    "int32", "int16", "int8", "uint64", "uint32", "uint16", "uint8",
    "bool", "bool_", "b1", "f8", "f4",
})


@dataclass(frozen=True)
class Event:
    """One observation from the reporting sweep."""

    kind: str            # kernel | mix | alloc | tolist | foriter
    node: ast.AST        # anchor for line/column
    detail: str = ""     # kernel/op name or dtype-class pair
    value: "ArrayValue | None" = None  # the array fact at the site


def dtype_class_of(node: "ast.AST | None",
                   aliases: dict[str, str]) -> "str | None":
    """Dtype class named by a ``dtype=`` argument, or None if unreadable."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        name = node.value
    else:
        resolved = resolve_call(node, aliases)
        if resolved is not None:
            name = resolved.split(".")[-1]
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            return None
    if name in _INT64_NAMES:
        return DT_INT64
    if name in _OBJECT_NAMES:
        return DT_OBJECT
    if name in _NUMERIC_NAMES:
        return DT_NUMERIC
    return None


class NumericAnalysis(ForwardAnalysis):
    """Forward dtype/provenance abstract interpretation over one CFG."""

    def __init__(self, aliases: dict[str, str]):
        self.aliases = aliases
        self.events: list[Event] = []
        self._seen: set[tuple[str, int, int, str]] = set()

    # ------------------------------------------------------------------
    # solver interface
    # ------------------------------------------------------------------
    def initial(self) -> dict[str, Any]:
        return {}

    def join(self, left: dict, right: dict) -> dict:
        if left == right:
            return left
        out: dict[str, Any] = {}
        for name in left.keys() & right.keys():
            a, b = left[name], right[name]
            if isinstance(a, IndexValue) and isinstance(b, IndexValue):
                out[name] = a
            elif isinstance(a, ArrayValue) and isinstance(b, ArrayValue):
                out[name] = join_arrays(a, b)
        return out

    def transfer(self, node: Node, state: dict, report=None) -> dict:
        # the fixpoint runs with report=None (no events); the reporting
        # sweep passes a callback, which flips event collection on
        emit = self._record if report is not None else None
        if node.kind == KIND_STMT:
            return self._stmt(node.stmt, state, emit)
        if node.kind == KIND_TEST:
            self._eval(node.guard, state, emit)
            return state
        if node.kind == KIND_FORHEAD:
            return self._forhead(node.stmt, state, emit)
        if node.kind == KIND_WITHHEAD:
            new = state
            for item in node.stmt.items:
                self._eval(item.context_expr, state, emit)
                if item.optional_vars is not None:
                    new = self._bind(item.optional_vars, None, new)
            return new
        if node.kind == KIND_HANDLER:
            handler = node.stmt
            if handler.name:
                new = dict(state)
                new.pop(handler.name, None)
                return new
        return state

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def _stmt(self, stmt: ast.AST, state: dict, emit) -> dict:
        if isinstance(stmt, ast.Assign):
            value = self._eval(stmt.value, state, emit)
            new = state
            for target in stmt.targets:
                new = self._bind(target, value, new)
            return new
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            value = self._eval(stmt.value, state, emit)
            return self._bind(stmt.target, value, state)
        if isinstance(stmt, ast.AugAssign):
            self._eval(stmt.value, state, emit)
            return self._bind(stmt.target, None, state)
        if isinstance(stmt, ast.Expr):
            mutated = self._inplace_sort(stmt.value, state)
            if mutated is not None:
                self._eval(stmt.value, state, emit)
                return mutated
            self._eval(stmt.value, state, emit)
            return state
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            self._eval(stmt.value, state, emit)
            return state
        if isinstance(stmt, ast.Delete):
            new = dict(state)
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    new.pop(target.id, None)
            return new
        if isinstance(stmt, _FUNCS + (ast.ClassDef,)):
            return state  # opaque: nested scopes get their own CFGs
        return state

    def _forhead(self, stmt, state: dict, emit) -> dict:
        iterated = self._eval(stmt.iter, state, emit)
        if emit is not None and isinstance(iterated, ArrayValue):
            emit(Event("foriter", stmt, "for", iterated))
        return self._bind(stmt.target, None, state)

    def _bind(self, target: ast.AST, value, state: dict) -> dict:
        if isinstance(target, ast.Name):
            new = dict(state)
            if value is None:
                new.pop(target.id, None)
            else:
                new[target.id] = value
            return new
        if isinstance(target, (ast.Tuple, ast.List)):
            new = dict(state)
            for elt in target.elts:
                inner = elt.value if isinstance(elt, ast.Starred) else elt
                if isinstance(inner, ast.Name):
                    new.pop(inner.id, None)
            return new
        return state  # attribute / subscript targets are not locals

    def _inplace_sort(self, expr: ast.AST, state: dict) -> "dict | None":
        """``x.sort()`` on a tracked array: same binding, now sorted."""
        if (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute)
                and expr.func.attr == "sort"
                and isinstance(expr.func.value, ast.Name)):
            current = state.get(expr.func.value.id)
            if isinstance(current, ArrayValue):
                new = dict(state)
                new[expr.func.value.id] = current.with_order(ORD_SORTED)
                return new
        return None

    # ------------------------------------------------------------------
    # expression evaluation
    # ------------------------------------------------------------------
    def _eval(self, expr: "ast.AST | None", state: dict, emit):
        if expr is None:
            return None
        if isinstance(expr, ast.Name):
            return state.get(expr.id)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, state, emit)
        if isinstance(expr, ast.Subscript):
            return self._eval_subscript(expr, state, emit)
        if isinstance(expr, ast.BinOp):
            left = self._eval(expr.left, state, emit)
            right = self._eval(expr.right, state, emit)
            self._check_mix(expr, left, right, emit)
            if isinstance(left, ArrayValue) or isinstance(right, ArrayValue):
                dtypes = [v.dtype for v in (left, right)
                          if isinstance(v, ArrayValue)]
                dtype = dtypes[0] if len(dtypes) == 1 \
                    else join_dtypes(dtypes[0], dtypes[1])
                return ArrayValue(dtype, PROV_FRESH, ORD_UNKNOWN, True)
            return None
        if isinstance(expr, ast.Compare):
            left = self._eval(expr.left, state, emit)
            for comparator in expr.comparators:
                right = self._eval(comparator, state, emit)
                self._check_mix(expr, left, right, emit)
                left = right
            return None
        if isinstance(expr, ast.UnaryOp):
            operand = self._eval(expr.operand, state, emit)
            return operand if isinstance(operand, ArrayValue) else None
        if isinstance(expr, ast.BoolOp):
            for value in expr.values:
                self._eval(value, state, emit)
            return None
        if isinstance(expr, ast.IfExp):
            self._eval(expr.test, state, emit)
            body = self._eval(expr.body, state, emit)
            orelse = self._eval(expr.orelse, state, emit)
            if isinstance(body, ArrayValue) and isinstance(orelse, ArrayValue):
                return join_arrays(body, orelse)
            return None
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            for elt in expr.elts:
                self._eval(elt, state, emit)
            return None
        if isinstance(expr, ast.Starred):
            return self._eval(expr.value, state, emit)
        if isinstance(expr, ast.Attribute):
            self._eval(expr.value, state, emit)
            return None
        if isinstance(expr, _COMPREHENSIONS):
            return None  # own scope; not descended (matches reaching-defs)
        if isinstance(expr, ast.NamedExpr):
            return self._eval(expr.value, state, emit)
        return None

    # -- calls ----------------------------------------------------------
    def _eval_call(self, expr: ast.Call, state: dict, emit):
        argvals = [self._eval(arg, state, emit) for arg in expr.args]
        for keyword in expr.keywords:
            self._eval(keyword.value, state, emit)
        kwargs = {kw.arg: kw.value for kw in expr.keywords if kw.arg}

        resolved = resolve_call(expr.func, self.aliases)
        if resolved is not None and resolved.startswith("numpy"):
            return self._numpy_call(expr, resolved.split(".")[-1],
                                    argvals, kwargs, state, emit)

        if isinstance(expr.func, ast.Attribute):
            return self._method_call(expr, argvals, kwargs, state, emit)

        if isinstance(expr.func, ast.Name):
            if expr.func.id in INDEX_CONSTRUCTORS:
                return IndexValue()
            if expr.func.id == "len" and len(expr.args) == 1:
                return None
        return None

    def _numpy_call(self, expr: ast.Call, name: str, argvals, kwargs,
                    state: dict, emit):
        first = argvals[0] if argvals else None
        explicit = dtype_class_of(kwargs.get("dtype"), self.aliases)
        if explicit is None and name in {"array", "asarray", "fromiter"} \
                and len(expr.args) > 1:
            explicit = dtype_class_of(expr.args[1], self.aliases)

        def inherited(default: str = DT_UNKNOWN) -> str:
            if explicit is not None:
                return explicit
            if isinstance(first, ArrayValue):
                return first.dtype
            return default

        if name in ("array", "asarray", "ascontiguousarray"):
            order = first.order if isinstance(first, ArrayValue) \
                else ORD_UNKNOWN
            if name == "array":
                return ArrayValue(inherited(), PROV_FRESH, order, True)
            contig = True if name == "ascontiguousarray" else (
                first.contiguous if isinstance(first, ArrayValue) else None)
            return ArrayValue(inherited(), PROV_UNKNOWN, order, contig)
        if name in ("empty", "zeros", "ones", "full"):
            dtype = explicit if explicit is not None else DT_NUMERIC
            return ArrayValue(dtype, PROV_FRESH, ORD_UNKNOWN, True)
        if name == "fromiter":
            return ArrayValue(inherited(DT_UNKNOWN), PROV_FRESH,
                              ORD_UNKNOWN, True)
        if name == "arange":
            if explicit is None:
                has_float = any(isinstance(a, ast.Constant)
                                and isinstance(a.value, float)
                                for a in expr.args)
                explicit = DT_NUMERIC if has_float else DT_INT64
            order = ORD_SORTED if len(expr.args) < 3 else ORD_UNKNOWN
            return ArrayValue(explicit, PROV_FRESH, order, True)
        if name in ("concatenate", "append", "hstack", "vstack", "stack"):
            self._emit_alloc(expr, f"np.{name}", emit)
            element_vals = argvals
            if expr.args and isinstance(expr.args[0], (ast.Tuple, ast.List)):
                element_vals = [self._eval(elt, state, None)
                                for elt in expr.args[0].elts]
            dtype = DT_UNKNOWN
            arrays = [v for v in element_vals if isinstance(v, ArrayValue)]
            if arrays:
                dtype = arrays[0].dtype
                for value in arrays[1:]:
                    dtype = join_dtypes(dtype, value.dtype)
            return ArrayValue(dtype, PROV_FRESH, ORD_UNSORTED, True)
        if name == "sort":
            dtype = first.dtype if isinstance(first, ArrayValue) \
                else DT_UNKNOWN
            return ArrayValue(dtype, PROV_FRESH, ORD_SORTED, True)
        if name == "unique":
            dtype = first.dtype if isinstance(first, ArrayValue) \
                else DT_UNKNOWN
            return ArrayValue(dtype, PROV_FRESH, ORD_SORTED, True)
        if name == "lexsort":
            key_vals = argvals
            if expr.args and isinstance(expr.args[0], (ast.Tuple, ast.List)):
                key_vals = [self._eval(elt, state, None)
                            for elt in expr.args[0].elts]
            for value in key_vals:
                if isinstance(value, ArrayValue):
                    self._emit_kernel(expr, "lexsort", value, emit)
            return ArrayValue(DT_INT64, PROV_FRESH, ORD_UNKNOWN, True)
        if name in NUMPY_KERNELS:
            # only the first argument of the searchsorted family must be
            # sorted; later args are tagged so RA805 skips them
            for position, value in enumerate(argvals):
                if isinstance(value, ArrayValue):
                    detail = name if position == 0 else f"{name}:arg{position}"
                    self._emit_kernel(expr, detail, value, emit)
            if name in SORTED_INPUT_KERNELS:
                return ArrayValue(DT_INT64, PROV_FRESH, ORD_UNKNOWN, True)
            return ArrayValue(DT_UNKNOWN, PROV_FRESH, ORD_SORTED, True)
        return None

    def _method_call(self, expr: ast.Call, argvals, kwargs,
                     state: dict, emit):
        func = expr.func
        receiver = self._eval(func.value, state, None)
        method = func.attr

        if method in BATCH_ENTRY_METHODS:
            for value in argvals:
                if isinstance(value, ArrayValue):
                    self._emit_kernel(expr, method, value, emit)
            return None

        if not isinstance(receiver, ArrayValue):
            return None

        if method == "astype":
            copy_kw = kwargs.get("copy")
            no_copy = (isinstance(copy_kw, ast.Constant)
                       and copy_kw.value is False)
            if not no_copy:
                self._emit_alloc(expr, ".astype", emit)
            dtype = dtype_class_of(
                expr.args[0] if expr.args else kwargs.get("dtype"),
                self.aliases)
            prov = receiver.prov if no_copy else PROV_FRESH
            return ArrayValue(dtype if dtype is not None else DT_UNKNOWN,
                              prov, receiver.order, True)
        if method == "searchsorted":
            self._emit_kernel(expr, "searchsorted", receiver, emit)
            for value in argvals:
                if isinstance(value, ArrayValue):
                    self._emit_kernel(expr, "searchsorted:values", value, emit)
            return ArrayValue(DT_INT64, PROV_FRESH, ORD_UNKNOWN, True)
        if method == "tolist":
            if emit is not None:
                emit(Event("tolist", expr, ".tolist", receiver))
            return None
        if method == "copy":
            return ArrayValue(receiver.dtype, PROV_FRESH,
                              receiver.order, True)
        if method in ("reshape", "ravel", "view"):
            return ArrayValue(receiver.dtype, PROV_VIEW,
                              ORD_UNKNOWN, receiver.contiguous)
        return None

    # -- subscripts -----------------------------------------------------
    def _eval_subscript(self, expr: ast.Subscript, state: dict, emit):
        base = self._eval(expr.value, state, emit)
        index = expr.slice
        if not isinstance(base, ArrayValue):
            self._eval(index, state, emit)
            return None
        if isinstance(index, ast.Slice):
            self._eval(index.lower, state, emit)
            self._eval(index.upper, state, emit)
            self._eval(index.step, state, emit)
            unit_step = index.step is None or (
                isinstance(index.step, ast.Constant) and index.step.value == 1)
            contig = base.contiguous if unit_step else False
            order = base.order if unit_step else ORD_UNKNOWN
            return ArrayValue(base.dtype, PROV_VIEW, order, contig)
        if isinstance(index, ast.Constant) and isinstance(index.value, int):
            return None  # scalar element
        # fancy indexing (array/list/bool-mask index): allocates a copy
        self._eval(index, state, emit)
        self._emit_alloc(expr, "fancy index", emit)
        return ArrayValue(base.dtype, PROV_FRESH, ORD_UNKNOWN, True)

    # ------------------------------------------------------------------
    # event emission
    # ------------------------------------------------------------------
    def _record(self, event: Event) -> None:
        key = (event.kind, getattr(event.node, "lineno", 0),
               getattr(event.node, "col_offset", 0), event.detail)
        if key not in self._seen:
            self._seen.add(key)
            self.events.append(event)

    def _emit_kernel(self, node: ast.AST, kernel: str,
                     value: ArrayValue, emit) -> None:
        if emit is not None:
            emit(Event("kernel", node, kernel, value))

    def _emit_alloc(self, node: ast.AST, op: str, emit) -> None:
        if emit is not None:
            emit(Event("alloc", node, op))

    def _check_mix(self, node: ast.AST, left, right, emit) -> None:
        if emit is None:
            return
        if not (isinstance(left, ArrayValue) and isinstance(right, ArrayValue)):
            return
        definite = {DT_INT64, DT_NUMERIC, DT_OBJECT}
        if (left.dtype in definite and right.dtype in definite
                and left.dtype != right.dtype):
            emit(Event("mix", node, f"{left.dtype}×{right.dtype}"))
