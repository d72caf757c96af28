"""The per-module concurrency model every RA7xx rule reads.

One parse of ``(tree, source)`` produces a :class:`ModuleModel`:

* which module-level globals are **mutable containers** (candidate
  shared state for RA701);
* which module-level globals are **locks** (``threading.Lock()`` /
  ``RLock()``);
* per class: methods, lock-valued attributes and the annotation tables;
* the ``# repro: shared[lock=…]`` / ``# repro: borrows-lock[…]``
  annotation comments, resolved to the fields / methods they sit on.

The annotation syntax (documented in ``docs/analysis.md``)::

    self._entries = OrderedDict()   # repro: shared[lock=_lock]
    self.acquisitions = [0] * n     # repro: shared[lock=_stats_lock]

    def _drop(self, key):           # repro: borrows-lock[_lock]
        ...

``shared[lock=X]`` designates the assigned field as shared mutable
state guarded by the owning object's lock attribute ``X`` — every write
outside ``__init__`` must then sit under ``with self.X:`` (RA703).
``shared`` with no lock designates the field as shared and *expected*
to be guarded by some owned lock.  ``borrows-lock[X]`` on a ``def``
line documents that the method requires the **caller** to hold ``X``;
its own writes are exempt from RA703, and calling it without holding
``X`` is RA707.

The model also provides :func:`iter_effects`, the walker yielding every
write and call in a function body together with the set of locks
lexically held at that point — the currency all three rules trade in.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

from repro.analysis.astutil import expr_key

#: method names that mutate their receiver (container or index mutators)
MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "add", "discard", "update", "setdefault", "sort", "reverse",
    "move_to_end", "build", "appendleft", "popleft",
})

#: calls that construct a fresh mutable container
_MUTABLE_CALLS = frozenset({
    "list", "dict", "set", "OrderedDict", "defaultdict", "deque",
    "Counter", "bytearray",
})

#: constructor names that produce a lock object
_LOCK_CALLS = frozenset({"Lock", "RLock", "Condition", "Semaphore",
                         "BoundedSemaphore"})

_SHARED_RE = re.compile(
    r"#\s*repro:\s*shared(?:\s*\[\s*lock\s*=\s*(?P<lock>[A-Za-z_]\w*)\s*\])?"
)
_BORROWS_RE = re.compile(
    r"#\s*repro:\s*borrows-lock\s*\[\s*(?P<lock>[A-Za-z_]\w*)\s*\]"
)


@dataclass(frozen=True)
class Effect:
    """One write or call: the expression written through (or called)."""

    node: ast.AST          # anchor for the finding
    key: tuple[str, ...]   # expr_key of the written-through/called expression
    kind: str              # "rebind" | "store" | "del" | "mutate" | "augment" | "call"
    held: frozenset[str]   # canonical lock names lexically held


@dataclass
class ClassModel:
    """Concurrency-relevant facts about one class."""

    name: str
    methods: dict[str, ast.AST] = field(default_factory=dict)
    #: self attributes assigned a lock constructor (in any method/body)
    lock_attrs: set[str] = field(default_factory=set)
    #: explicit shared-field designations: attr -> lock name (or None)
    shared_fields: dict[str, "str | None"] = field(default_factory=dict)
    #: methods documented as requiring the caller to hold a lock
    borrows: dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleModel:
    """Everything the RA7xx rules need from one module."""

    #: module-level mutable-container globals
    mutable_globals: set[str] = field(default_factory=set)
    #: module-level lock globals
    lock_globals: set[str] = field(default_factory=set)
    classes: dict[str, ClassModel] = field(default_factory=dict)
    #: module-level (non-method) functions
    functions: dict[str, ast.AST] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------

def is_mutable_container(node: ast.AST) -> bool:
    """Does this initializer expression build a mutable container?"""
    if isinstance(node, (ast.List, ast.Dict, ast.Set,
                         ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None)
        if name in _MUTABLE_CALLS:
            return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        # the `[0] * n` preallocation idiom
        return (is_mutable_container(node.left)
                or is_mutable_container(node.right))
    return False


def is_lock_constructor(node: ast.AST) -> bool:
    """Is this a ``threading.Lock()``-style lock construction?"""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else (
        func.attr if isinstance(func, ast.Attribute) else None)
    return name in _LOCK_CALLS


def _annotation_tables(source: str) -> tuple[dict[int, "str | None"],
                                             dict[int, str]]:
    """Line → annotation payload for the two comment forms."""
    shared: dict[int, "str | None"] = {}
    borrows: dict[int, str] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        if "repro:" not in text:
            continue
        match = _SHARED_RE.search(text)
        if match is not None:
            shared[lineno] = match.group("lock")
        match = _BORROWS_RE.search(text)
        if match is not None:
            borrows[lineno] = match.group("lock")
    return shared, borrows


def _assign_targets(stmt: ast.stmt) -> list[ast.expr]:
    if isinstance(stmt, ast.Assign):
        return list(stmt.targets)
    if isinstance(stmt, (ast.AnnAssign, ast.AugAssign)) and stmt.value is not None:
        return [stmt.target]
    return []


_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def parse_module(tree: ast.AST, source: str = "") -> ModuleModel:
    """Build the :class:`ModuleModel` of one parsed module."""
    model = ModuleModel()
    shared_lines, borrow_lines = _annotation_tables(source)
    for stmt in getattr(tree, "body", []):
        if isinstance(stmt, _FUNCS):
            model.functions[stmt.name] = stmt
        elif isinstance(stmt, ast.ClassDef):
            model.classes[stmt.name] = _parse_class(stmt, shared_lines,
                                                    borrow_lines)
        else:
            value = getattr(stmt, "value", None)
            if value is None:
                continue
            for target in _assign_targets(stmt):
                if not isinstance(target, ast.Name):
                    continue
                if is_lock_constructor(value):
                    model.lock_globals.add(target.id)
                elif is_mutable_container(value):
                    model.mutable_globals.add(target.id)
    return model


def _parse_class(node: ast.ClassDef, shared_lines: dict,
                 borrow_lines: dict) -> ClassModel:
    cls = ClassModel(name=node.name)
    for stmt in node.body:
        if isinstance(stmt, _FUNCS):
            cls.methods[stmt.name] = stmt
            if stmt.lineno in borrow_lines:
                cls.borrows[stmt.name] = borrow_lines[stmt.lineno]
        else:
            value = getattr(stmt, "value", None)
            for target in _assign_targets(stmt):
                if (isinstance(target, ast.Name) and value is not None
                        and is_lock_constructor(value)):
                    cls.lock_attrs.add(target.id)

    for method in cls.methods.values():
        for stmt in ast.walk(method):
            for target in _assign_targets(stmt):
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    value = getattr(stmt, "value", None)
                    if value is not None and is_lock_constructor(value):
                        cls.lock_attrs.add(target.attr)
                    if stmt.lineno in shared_lines:
                        cls.shared_fields[target.attr] = \
                            shared_lines[stmt.lineno]
    return cls


# ----------------------------------------------------------------------
# The effect/lock-context walker
# ----------------------------------------------------------------------

def canonical_lock(expr: ast.expr, cls: "ClassModel | None",
                   model: ModuleModel) -> "str | None":
    """Canonical name of a lock-acquiring context expression, if any.

    ``with self._lock:`` inside class ``C`` → ``"C._lock"``; a module
    lock global → its name; any other name/attr whose last component
    mentions "lock" is accepted with its dotted key (conservative: it
    *is* a lock by naming convention, even if we cannot resolve it).
    """
    key = expr_key(expr)
    if key is None:
        # `with self.locks.lock_for(0, s):` — a lock-returning call
        if isinstance(expr, ast.Call):
            inner = expr_key(expr.func)
            if inner is not None and "lock" in inner[-1].lower():
                return ".".join(inner)
        return None
    if key[0] == "self" and len(key) == 2 and cls is not None:
        if key[1] in cls.lock_attrs or "lock" in key[1].lower():
            return f"{cls.name}.{key[1]}"
        return None
    if len(key) == 1 and key[0] in model.lock_globals:
        return key[0]
    if "lock" in key[-1].lower():
        return ".".join(key)
    return None


def iter_effects(func: ast.AST, cls: "ClassModel | None",
                 model: ModuleModel):
    """Yield every :class:`Effect` in ``func``, with held-lock context.

    Nested function definitions are not descended into (they execute on
    their own schedule); ``with`` statements over lock expressions push
    their canonical lock onto the held set for the duration of their
    body, and a ``borrows-lock[X]`` method starts with ``X`` held.
    """
    held: list[str] = []
    if cls is not None and isinstance(func, _FUNCS):
        borrow = cls.borrows.get(func.name)
        if borrow is not None:
            held.append(f"{cls.name}.{borrow}")

    def effect(node: ast.AST, key: "tuple[str, ...] | None", kind: str):
        if key is not None:
            yield Effect(node=node, key=key, kind=kind, held=frozenset(held))

    def walk(stmts):
        for stmt in stmts:
            yield from visit(stmt)

    def visit(stmt: ast.AST):
        if isinstance(stmt, _FUNCS + (ast.Lambda, ast.ClassDef)):
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            pushed = 0
            for item in stmt.items:
                lock = canonical_lock(item.context_expr, cls, model)
                if lock is not None:
                    held.append(lock)
                    pushed += 1
            yield from walk(stmt.body)
            del held[len(held) - pushed:]
            return
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            kind = "augment" if isinstance(stmt, ast.AugAssign) else "rebind"
            for target in _assign_targets(stmt):
                targets = (target.elts if isinstance(target, ast.Tuple)
                           else [target])
                for tgt in targets:
                    if isinstance(tgt, ast.Subscript):
                        yield from effect(stmt, expr_key(tgt.value), "store")
                    elif isinstance(tgt, (ast.Name, ast.Attribute)):
                        yield from effect(stmt, expr_key(tgt), kind)
            if stmt.value is not None:
                yield from expression(stmt.value)
            return
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Subscript):
                    yield from effect(stmt, expr_key(target.value), "del")
                elif isinstance(target, (ast.Name, ast.Attribute)):
                    yield from effect(stmt, expr_key(target), "del")
        elif isinstance(stmt, (ast.Expr, ast.Return, ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                yield from expression(child)
        elif isinstance(stmt, (ast.If, ast.While)):
            yield from expression(stmt.test)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            yield from expression(stmt.iter)
        # compound statements: recurse into bodies with the same context
        for attr in ("body", "orelse", "finalbody"):
            yield from walk(getattr(stmt, attr, None) or [])
        for handler in getattr(stmt, "handlers", None) or []:
            yield from walk(handler.body)
        for case in getattr(stmt, "cases", None) or []:
            yield from walk(case.body)

    def expression(expr: ast.AST):
        """Calls (and the receivers mutator calls write through)."""
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            yield from effect(node, expr_key(node.func), "call")
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr in MUTATOR_METHODS):
                yield from effect(node, expr_key(node.func.value), "mutate")

    yield from walk(getattr(func, "body", []))


def function_locals(func: ast.AST) -> tuple[set[str], set[str]]:
    """``(local names, global-declared names)`` of one function body.

    Locals are parameters plus any plain-name assignment targets that
    are not declared ``global``/``nonlocal``; used to tell a shadowing
    local apart from a write to module state.
    """
    local: set[str] = set()
    declared: set[str] = set()
    args = getattr(func, "args", None)
    if args is not None:
        for arg in (args.posonlyargs + args.args + args.kwonlyargs):
            local.add(arg.arg)
        if args.vararg:
            local.add(args.vararg.arg)
        if args.kwarg:
            local.add(args.kwarg.arg)
    for node in ast.walk(func):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            local.add(node.id)
    local -= declared
    return local, declared


def iter_functions(model: ModuleModel):
    """Every ``(class-or-None, function)`` pair in the module, including
    methods and module-level functions (nested defs excluded)."""
    for func in model.functions.values():
        yield None, func
    for cls in model.classes.values():
        for func in cls.methods.values():
            yield cls, func


# ----------------------------------------------------------------------
# Single-slot per-file cache (engine feeds every rule the same tree)
# ----------------------------------------------------------------------
_CACHE: "tuple[ast.AST, ModuleModel] | None" = None


def module_model(tree: ast.AST, source: str = "") -> ModuleModel:
    """The (cached) :class:`ModuleModel` for one parsed file."""
    global _CACHE  # single-slot memo, rebuilt per file; the analyzer is single-threaded
    if _CACHE is not None and _CACHE[0] is tree:
        return _CACHE[1]
    model = parse_module(tree, source)
    _CACHE = (tree, model)
    return model
