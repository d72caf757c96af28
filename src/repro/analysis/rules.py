"""Repo-specific lint rules (RA101–RA103).

Each rule mechanises one invariant the reproduction's benchmark figures
depend on.  The C++ framework the paper builds on gets most of these from
the type system (template contracts, a single Murmur hash functor); in
Python they are enforceable only as AST passes:

* **RA101** — all hashing inside ``indexes/``/``core/`` must route through
  :mod:`repro.core.hashing`; builtin ``hash()`` picks up ``PYTHONHASHSEED``
  nondeterminism and breaks cross-process reproducibility.
* **RA102** — every RNG must be an explicitly seeded generator
  (``random.Random(seed)``, ``np.random.default_rng(seed)``); global or
  unseeded RNG calls make datasets irreproducible.
* **RA103** — mutating a container while iterating it (the classic
  trie-node bug shape: rebucketing a node while walking its children).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from pathlib import PurePath

from repro.analysis.astutil import collect_import_aliases, expr_key, resolve_call
from repro.analysis.engine import LintRule, register_rule
from repro.analysis.findings import Finding


# ----------------------------------------------------------------------
# RA101 — deterministic hashing
# ----------------------------------------------------------------------
@register_rule
class BuiltinHashRule(LintRule):
    """Builtin ``hash()`` inside the index/core subtrees."""

    code = "RA101"
    title = "builtin hash() bypasses repro.core.hashing"

    _SCOPED_DIRS = frozenset({"indexes", "core"})

    def applies_to(self, path: PurePath) -> bool:
        if path.name == "hashing.py":  # the one module allowed to define hashing
            return False
        return any(part in self._SCOPED_DIRS for part in path.parts)

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            is_builtin_hash = isinstance(func, ast.Name) and func.id == "hash"
            is_qualified = (isinstance(func, ast.Attribute)
                            and func.attr == "hash"
                            and isinstance(func.value, ast.Name)
                            and func.value.id == "builtins")
            if is_builtin_hash or is_qualified:
                yield self.finding(
                    path, node,
                    "builtin hash() depends on PYTHONHASHSEED; route key "
                    "hashing through repro.core.hashing.hash_key/hash_tuple",
                )


# ----------------------------------------------------------------------
# RA102 — seeded randomness
# ----------------------------------------------------------------------
@register_rule
class UnseededRandomRule(LintRule):
    """Global or unseeded RNG calls."""

    code = "RA102"
    title = "unseeded / global RNG call"

    #: numpy constructors that are fine *when given a seed argument*
    _NUMPY_SEEDED = frozenset({
        "default_rng", "Generator", "SeedSequence", "PCG64", "PCG64DXSM",
        "Philox", "MT19937", "SFC64", "RandomState",
    })

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        aliases = collect_import_aliases(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = resolve_call(node.func, aliases)
            if dotted is None:
                continue
            seeded = bool(node.args or node.keywords)
            if dotted.startswith("random."):
                tail = dotted[len("random."):]
                if tail == "Random":
                    if not seeded:
                        yield self.finding(
                            path, node,
                            "random.Random() without a seed is "
                            "nondeterministic; pass an explicit seed",
                        )
                else:
                    yield self.finding(
                        path, node,
                        f"random.{tail}() uses the global RNG; use a local "
                        "seeded random.Random(seed) instead",
                    )
            elif dotted.startswith("numpy.random."):
                tail = dotted[len("numpy.random."):]
                if tail in self._NUMPY_SEEDED:
                    if not seeded:
                        yield self.finding(
                            path, node,
                            f"numpy.random.{tail}() without a seed is "
                            "nondeterministic; pass an explicit seed",
                        )
                else:
                    yield self.finding(
                        path, node,
                        f"numpy.random.{tail}() uses numpy's global RNG; "
                        "use np.random.default_rng(seed)",
                    )


# ----------------------------------------------------------------------
# RA103 — container mutated while iterated
# ----------------------------------------------------------------------
@register_rule
class MutateWhileIterateRule(LintRule):
    """``for x in c: c.mutate(...)`` — the trie-rebucketing bug shape."""

    code = "RA103"
    title = "container mutated during iteration"

    _MUTATORS = frozenset({
        "append", "extend", "insert", "remove", "pop", "popitem",
        "clear", "add", "discard", "update", "setdefault",
    })
    _VIEW_METHODS = frozenset({"items", "keys", "values"})

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.For):
                yield from self._check_loop(node, path)

    def _iterated_container(self, iter_node: ast.AST) -> "tuple[str, ...] | None":
        # `for x in c` — or `for k, v in c.items()` and friends, which
        # iterate a live view of `c`
        key = expr_key(iter_node)
        if key is not None:
            return key
        if (isinstance(iter_node, ast.Call)
                and not iter_node.args and not iter_node.keywords
                and isinstance(iter_node.func, ast.Attribute)
                and iter_node.func.attr in self._VIEW_METHODS):
            return expr_key(iter_node.func.value)
        return None

    def _check_loop(self, loop: ast.For, path: str) -> Iterator[Finding]:
        container = self._iterated_container(loop.iter)
        if container is None:
            return
        for stmt in loop.body:
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in self._MUTATORS
                        and expr_key(node.func.value) == container):
                    yield self.finding(
                        path, node,
                        f"{'.'.join(container)}.{node.func.attr}() mutates "
                        "the container being iterated; iterate over "
                        f"list({'.'.join(container)}) or collect changes "
                        "and apply after the loop",
                    )
                elif isinstance(node, ast.Delete):
                    for target in node.targets:
                        if (isinstance(target, ast.Subscript)
                                and expr_key(target.value) == container):
                            yield self.finding(
                                path, node,
                                f"del {'.'.join(container)}[...] mutates the "
                                "container being iterated",
                            )


def rule_catalog() -> list[dict]:
    """Every registered rule as a {code, title, severity} record."""
    from repro.analysis.engine import all_rules

    return [
        {"code": rule.code, "title": rule.title,
         "severity": str(rule.severity)}
        for rule in all_rules()
    ]
