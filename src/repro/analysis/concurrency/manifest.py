"""The machine-readable thread-safety manifest.

``python -m repro.analysis --concurrency-manifest`` classifies every
serving-path entry point — ``Session.prepare``/``execute``, the index
cache operations, the obs write paths and each join driver's ``run``
method — and emits the result as JSON for the future serving layer (and
CI) to consume.  Two analysis models, matching how the objects are
shared at runtime:

* ``shared`` — one instance is used by many threads concurrently
  (Session, IndexCache, Metrics, Tracer, a cached ColumnarTrie).  Classification comes from
  :func:`repro.analysis.concurrency.classify.classify_method`: every
  reachable write to instance/global state must be lock-guarded (or
  the method is annotated ``borrows-lock``).  Free functions a shared
  entry drives (the pipeline stages) are checked for parameter/global
  mutation with :func:`classify_free_function`.
* ``per-call`` — a fresh instance is constructed for every execution
  (the join drivers), so writes to ``self`` are private by
  construction; the entry is unsafe only if it mutates state *aliased
  from the prebuilt shared structures* it was constructed over (the
  ``self.X = param`` aliases recorded by
  :func:`constructor_aliases`), or module globals.
* ``process`` — the entry runs in a shard worker process
  (:mod:`repro.parallel.worker`).  Nothing is shared at runtime, so
  the contract is *capture discipline* instead of locking: only
  shared-memory handles and frozen plan decisions may cross the
  boundary — the entry must not read or write mutable module globals
  (which silently diverge between parent and workers) or module-level
  locks (which neither survive a fork mid-acquire nor pickle into
  spawn tasks).  Checked by :func:`classify_process_entry`.

The static analysis is deliberately optimistic about calls it cannot
resolve (an unknown callee is assumed not to mutate shared state);
mutations reached through subscripts of aliased containers are likewise
below its resolution.  The runtime witness —
``tests/engine/test_thread_stress.py`` — closes exactly that gap, and
the hashtrie's GIL-scoped lazy expansion is documented where it lives
(:mod:`repro.indexes.hashtrie`).
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

from repro.analysis.concurrency import classify
from repro.analysis.concurrency.model import (
    ClassModel,
    ModuleModel,
    function_locals,
    iter_writes,
    parse_module,
)

SCHEMA_VERSION = 1

#: repo root inferred from this file's location
#: (src/repro/analysis/concurrency/manifest.py → four levels up), so the
#: manifest works regardless of the caller's working directory
REPO_ROOT = Path(__file__).resolve().parents[4]

#: (owner class or None, method/function names, repo-relative path,
#:  model, require_safe)
ENTRY_TABLE: "tuple[tuple, ...]" = (
    ("Session", ("prepare", "execute"), "src/repro/engine/session.py",
     "shared", True),
    ("IndexCache", ("get", "put", "put_if_absent", "predecessor",
                    "invalidate_relation", "clear"),
     "src/repro/engine/cache.py", "shared", True),
    ("Metrics", ("inc", "observe", "merge"), "src/repro/obs/metrics.py",
     "shared", True),
    ("Tracer", ("add_span",), "src/repro/obs/trace.py", "shared", True),
    # append-only levels: one cached trie is deepened by whichever
    # executor descends first, read unlocked by all of them
    ("ColumnarTrie", ("at_depth", "take_pending_charge"),
     "src/repro/indexes/columnar.py", "shared", True),
    (None, ("bind", "plan", "prepare"), "src/repro/engine/pipeline.py",
     "shared", True),
    (None, ("join",), "src/repro/joins/executor.py", "per-call", True),
    # also HashTrieJoin's run: the subclass overrides only the seed rule
    ("GenericJoin", ("run",), "src/repro/joins/generic_join.py",
     "per-call", True),
    ("GenericJoinBatch", ("run",), "src/repro/joins/batch.py",
     "per-call", True),
    ("BinaryHashJoin", ("run",), "src/repro/joins/binary.py",
     "per-call", True),
    ("LeapfrogTrieJoin", ("run",), "src/repro/joins/leapfrog.py",
     "per-call", True),
    ("RecursiveJoin", ("run",), "src/repro/joins/recursive.py",
     "per-call", True),
    (None, ("worker_main", "run_shard_task"),
     "src/repro/parallel/worker.py", "process", True),
)


def constructor_aliases(cls: ClassModel) -> set[str]:
    """Self attributes ``__init__`` binds *directly* to a parameter.

    These alias whatever the caller passed in — for a join driver, the
    prebuilt shared structures — so mutating them from the execute path
    escapes the per-call instance.
    """
    init = cls.methods.get("__init__")
    if init is None:
        return set()
    params = {a.arg for a in (init.args.posonlyargs + init.args.args
                              + init.args.kwonlyargs)} - {"self"}
    aliased: set[str] = set()
    for stmt in ast.walk(init):
        if not isinstance(stmt, ast.Assign):
            continue
        if not isinstance(stmt.value, ast.Name) \
                or stmt.value.id not in params:
            continue
        for target in stmt.targets:
            if (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                aliased.add(target.attr)
    return aliased


def classify_free_function(func: ast.AST, model: ModuleModel):
    """``(classification, evidence)`` for a module-level function.

    Unsafe when it mutates a parameter (shared by definition: the
    caller owns it) or module-global state outside a lock; rebinding a
    local is private to the frame.
    """
    params = set()
    args = getattr(func, "args", None)
    if args is not None:
        params = {a.arg for a in (args.posonlyargs + args.args
                                  + args.kwonlyargs)}
    local, declared = function_locals(func)
    rebound = (local - declared) - params
    evidence = []
    for write in iter_writes(func, None, model):
        if write.held:
            continue
        root = write.key[0]
        if root in params and write.kind != "rebind":
            evidence.append(write)
        elif root in rebound:
            continue
        elif root in model.mutable_globals or root in declared:
            evidence.append(write)
    return (classify.UNSAFE if evidence else classify.REENTRANT), evidence


def classify_process_entry(func: ast.AST, model: ModuleModel):
    """``(classification, evidence writes, captured names)`` for a
    process-boundary entry function.

    A worker entry runs on the far side of a ``fork``/``spawn``: module
    state it reaches is copied (fork) or re-imported (spawn), never
    shared with the parent — so the contract is *capture discipline*,
    not locking.  Unsafe when the entry reads or writes a module-level
    mutable container (a registry would silently diverge between parent
    and workers) or touches a module-level lock (lock state does not
    survive a fork mid-acquire, and locks do not pickle into spawn
    tasks).  Constants and locals are fine.
    """
    local, declared = function_locals(func)
    evidence = []
    for write in iter_writes(func, None, model):
        root = write.key[0]
        if root in model.mutable_globals or root in declared \
                or root in model.lock_globals:
            evidence.append(write)
    loaded = {node.id for node in ast.walk(func)
              if isinstance(node, ast.Name)
              and isinstance(node.ctx, ast.Load)}
    captured = sorted((loaded - local)
                      & (set(model.mutable_globals)
                         | model.lock_globals))
    classification = (classify.UNSAFE if evidence or captured
                      else classify.REENTRANT)
    return classification, evidence, captured


def _percall_writes(cls: ClassModel, name: str, model: ModuleModel,
                    aliased: set[str], stack: frozenset):
    """Aliased-structure / global mutations reachable from one method."""
    if name in stack or len(stack) > classify.MAX_DEPTH:
        return []
    func = cls.methods.get(name)
    if func is None:
        return []
    local, declared = function_locals(func)
    evidence = []
    for write in iter_writes(func, cls, model):
        root = write.key[0]
        if root == "self":
            if len(write.key) >= 2 and write.key[1] in aliased \
                    and write.kind != "rebind":
                evidence.append(write)
        elif root in (local - declared):
            continue
        elif root in model.mutable_globals or root in declared:
            evidence.append(write)
    for node in ast.walk(func):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"
                and node.func.attr in cls.methods
                and node.func.attr != name):
            evidence.extend(_percall_writes(cls, node.func.attr, model,
                                            aliased, stack | {name}))
    return evidence


def _write_dict(write) -> dict:
    return {"target": ".".join(write.key), "kind": write.kind,
            "line": getattr(write.node, "lineno", 0)}


def build_manifest(root: "str | Path | None" = None) -> dict:
    """Classify every :data:`ENTRY_TABLE` entry under ``root``."""
    root = REPO_ROOT if root is None else Path(root)
    entries = []
    models: dict[str, ModuleModel] = {}
    for owner, names, rel_path, exec_model, require_safe in ENTRY_TABLE:
        source_path = root / rel_path
        if rel_path not in models:
            source = source_path.read_text(encoding="utf-8")
            models[rel_path] = parse_module(
                ast.parse(source, filename=str(source_path)), source)
        model = models[rel_path]
        for name in names:
            entry = {
                "qualname": f"{owner}.{name}" if owner else name,
                "path": rel_path,
                "model": exec_model,
                "require_safe": require_safe,
            }
            if owner is not None:
                cls = model.classes.get(owner)
                if cls is None or name not in cls.methods:
                    entry["classification"] = "unknown"
                    entry["writes"] = []
                    entry["evidence"] = (f"class {owner} not found"
                                         if cls is None else
                                         f"method {owner}.{name} not found")
                    entries.append(entry)
                    continue
                if exec_model == "shared":
                    classification, writes = classify.classify_method(
                        cls, name, model)
                    evidence = ("all reachable shared-state writes are "
                                "lock-guarded" if classification ==
                                classify.REENTRANT else
                                "unguarded shared-state writes" if
                                classification == classify.UNSAFE else
                                f"annotated borrows-lock"
                                f"[{cls.borrows.get(name)}]")
                else:
                    aliased = constructor_aliases(cls)
                    writes = _percall_writes(cls, name, model, aliased,
                                             frozenset())
                    classification = (classify.UNSAFE if writes
                                      else classify.REENTRANT)
                    evidence = (
                        "fresh instance per execution; no mutation of "
                        f"shared prebuilt structures ({', '.join(sorted(aliased)) or 'none aliased'})"
                        if not writes else
                        "mutates structures aliased from the caller")
            else:
                func = model.functions.get(name)
                if func is None:
                    entry["classification"] = "unknown"
                    entry["writes"] = []
                    entry["evidence"] = f"function {name} not found"
                    entries.append(entry)
                    continue
                if exec_model == "process":
                    classification, writes, captured = \
                        classify_process_entry(func, model)
                    evidence = (
                        "captures no mutable or lock-bearing module "
                        "state; only handles and plan decisions cross "
                        "the process boundary" if classification ==
                        classify.REENTRANT else
                        "captures module state that does not survive "
                        f"the process boundary: {', '.join(captured) or 'writes below'}")
                else:
                    classification, writes = classify_free_function(func,
                                                                    model)
                    evidence = ("pure function of its inputs (no parameter "
                                "or global mutation)" if classification ==
                                classify.REENTRANT else
                                "mutates a parameter or module global")
            entry["classification"] = classification
            entry["writes"] = [_write_dict(w) for w in writes]
            entry["evidence"] = evidence
            entries.append(entry)
    return {
        "schema_version": SCHEMA_VERSION,
        "generated_by": "repro.analysis.concurrency",
        "assumptions": [
            "CPython GIL: dict/list single ops are atomic; the hashtrie's "
            "lazy expansion relies on idempotent value publication "
            "(documented in repro/indexes/hashtrie.py)",
            "append-only levels: ColumnarTrie.at_depth builds missing "
            "levels under the trie's lock and advances built_depth last; "
            "a level it has returned is never rewritten, so readers index "
            "levels below the depth they asked for without a lock",
            "unresolved calls are assumed non-mutating; the runtime "
            "witness is tests/engine/test_thread_stress.py",
        ],
        "entries": entries,
    }


def validate_manifest(data: dict) -> list[str]:
    """Schema problems in a manifest dict (empty = valid)."""
    problems = []
    if not isinstance(data, dict):
        return ["manifest is not an object"]
    if data.get("schema_version") != SCHEMA_VERSION:
        problems.append(f"schema_version != {SCHEMA_VERSION}")
    entries = data.get("entries")
    if not isinstance(entries, list) or not entries:
        return problems + ["entries missing or empty"]
    valid = {classify.REENTRANT, classify.BORROWS, classify.UNSAFE,
             "unknown"}
    for i, entry in enumerate(entries):
        where = f"entries[{i}]"
        if not isinstance(entry, dict):
            problems.append(f"{where} is not an object")
            continue
        for field in ("qualname", "path", "model", "classification"):
            if not isinstance(entry.get(field), str):
                problems.append(f"{where}.{field} missing or not a string")
        if entry.get("classification") not in valid:
            problems.append(
                f"{where}.classification {entry.get('classification')!r} "
                f"not in {sorted(valid)}")
        if entry.get("model") not in ("shared", "per-call", "process"):
            problems.append(f"{where}.model must be shared|per-call|process")
        if not isinstance(entry.get("writes"), list):
            problems.append(f"{where}.writes missing or not a list")
    return problems


def failing_entries(data: dict) -> list[dict]:
    """Entries that must be safe but are not (``unsafe`` or unresolved)."""
    return [entry for entry in data.get("entries", ())
            if entry.get("require_safe")
            and entry.get("classification") not in (classify.REENTRANT,
                                                    classify.BORROWS)]


def render_manifest(root: "str | Path | None" = None) -> str:
    """The manifest as pretty JSON text."""
    return json.dumps(build_manifest(root), indent=2) + "\n"
