"""Concurrency-safety lint rules (RA701, RA703, RA707).

The serving path shares one ``Session`` — its index cache, metrics,
tracer, relations and cached tries — across threads.  The lock contract
lives in comments next to the fields it protects (see
:mod:`repro.analysis.concurrency.model`), and these rules enforce it:

* **RA701** — module-level mutable state written after import time.
* **RA703** — write to a designated-shared field outside its guarding
  lock (error when the designation is an explicit annotation, warning
  when inferred from guarded writes elsewhere in the class).
* **RA707** — ``# repro: borrows-lock[X]`` helper called without ``X``.

All three need the raw source (the annotations live in comments), so
they set :attr:`~repro.analysis.engine.LintRule.wants_source`; the
parsed model is built once per file and shared through
:func:`repro.analysis.concurrency.model.module_model`'s single-slot
cache.  What the static view cannot see is covered at run time by
``tests/engine/test_thread_stress.py``.
"""

from __future__ import annotations

import ast
import dataclasses
from collections.abc import Iterator

from repro.analysis.concurrency.model import (
    function_locals,
    iter_effects,
    iter_functions,
    module_model,
)
from repro.analysis.engine import LintRule, register_rule
from repro.analysis.findings import Finding, Severity


class _ConcurrencyRule(LintRule):
    """Base: concurrency rules read annotation comments from the source."""

    wants_source = True
    severity = Severity.WARNING


@register_rule
class SharedGlobalRule(_ConcurrencyRule):
    """Module-level mutable containers written after import time.

    A ``global`` rebind, a subscript store/delete or a mutator-method
    call on the global from any function in the module, not shadowed by
    a local of the same name and not under a ``with``-held lock.
    """

    code = "RA701"
    title = "module-level mutable state written after import"

    def check(self, tree: ast.AST, path: str, *,
              source: str = "") -> Iterator[Finding]:
        model = module_model(tree, source)
        if not model.mutable_globals:
            return
        for cls, func in iter_functions(model):
            local, declared = function_locals(func)
            for effect in iter_effects(func, cls, model):
                name = effect.key[0]
                if (effect.kind == "call" or effect.held
                        or name not in model.mutable_globals
                        or name in local):
                    continue
                if (effect.kind == "rebind" and len(effect.key) == 1
                        and name not in declared):
                    continue  # plain assignment creates a local
                yield self.finding(
                    path, effect.node,
                    f"module-level mutable global {name!r} is written "
                    "after import time; every importing thread shares it "
                    "— guard it with a lock, make it immutable, or scope "
                    "it per-instance",
                )


@register_rule
class UnguardedSharedWriteRule(_ConcurrencyRule):
    """Designated-shared fields written outside their lock.

    Explicitly annotated fields (``# repro: shared[lock=X]``) get
    errors; fields *inferred* shared (written under a self-owned lock in
    one method, bare in another) get warnings.  ``__init__`` is exempt —
    the object is not yet published.
    """

    code = "RA703"
    title = "shared field written outside its guarding lock"

    def check(self, tree: ast.AST, path: str, *,
              source: str = "") -> Iterator[Finding]:
        model = module_model(tree, source)
        for cls in model.classes.values():
            writes = [
                effect
                for name, func in cls.methods.items() if name != "__init__"
                for effect in iter_effects(func, cls, model)
                if effect.kind != "call" and len(effect.key) >= 2
                and effect.key[0] == "self"
            ]
            owned = f"{cls.name}."
            inferred: dict[str, str] = {}
            for write in writes:
                locks = sorted(h for h in write.held if h.startswith(owned))
                if locks and write.key[1] not in cls.shared_fields:
                    inferred.setdefault(write.key[1], locks[0])
            for write in writes:
                attr = write.key[1]
                if attr in cls.shared_fields:
                    lock = cls.shared_fields[attr]
                    if (f"{owned}{lock}" in write.held if lock else any(
                            h.startswith(owned) for h in write.held)):
                        continue
                    want = f"`with self.{lock}:`" if lock else "an owned lock"
                    annotation = f"shared[lock={lock}]" if lock else "shared"
                    yield dataclasses.replace(self.finding(
                        path, write.node,
                        f"{cls.name}.{attr} is annotated `# repro: "
                        f"{annotation}` but written without holding {want}; "
                        "take the lock or annotate the enclosing method "
                        f"`# repro: borrows-lock[{lock or '<lock>'}]`"),
                        severity=Severity.ERROR)
                elif attr in inferred and inferred[attr] not in write.held:
                    yield self.finding(
                        path, write.node,
                        f"{cls.name}.{attr} is written under "
                        f"`{inferred[attr]}` elsewhere in this class but "
                        "bare here; either this write races or the field "
                        "wants an explicit `# repro: shared[lock=…]` "
                        "designation")


@register_rule
class BorrowedLockRule(_ConcurrencyRule):
    """borrows-lock helpers invoked without the documented lock."""

    code = "RA707"
    title = "borrows-lock method called without holding the lock"
    severity = Severity.ERROR

    def check(self, tree: ast.AST, path: str, *,
              source: str = "") -> Iterator[Finding]:
        model = module_model(tree, source)
        for cls in model.classes.values():
            if not cls.borrows:
                continue
            for func in cls.methods.values():
                for effect in iter_effects(func, cls, model):
                    key = effect.key
                    if (effect.kind != "call" or len(key) != 2
                            or key[0] != "self" or key[1] not in cls.borrows):
                        continue
                    lock = cls.borrows[key[1]]
                    if f"{cls.name}.{lock}" in effect.held:
                        continue
                    yield self.finding(
                        path, effect.node,
                        f"self.{key[1]}() is annotated `# repro: "
                        f"borrows-lock[{lock}]` but this call site does "
                        f"not hold `self.{lock}`; wrap the call in "
                        f"`with self.{lock}:` or annotate the caller as "
                        "borrowing too",
                    )
