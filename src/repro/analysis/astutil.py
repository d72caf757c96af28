"""AST helpers shared by the lint rules and the concurrency model."""

from __future__ import annotations

import ast


def collect_import_aliases(tree: ast.AST) -> dict[str, str]:
    """Map local names to the dotted import path they are bound to.

    ``import numpy as np`` yields ``{"np": "numpy"}``;
    ``from random import randrange as rr`` yields
    ``{"rr": "random.randrange"}``.  Only top-level and nested plain
    imports are tracked — attribute rebinding (``r = random``) is not,
    which keeps the passes conservative (no false positives from
    lookalike locals).
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                aliases[name.asname or name.name.split(".")[0]] = (
                    name.name if name.asname else name.name.split(".")[0]
                )
                if name.asname:
                    aliases[name.asname] = name.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for name in node.names:
                if name.name == "*":
                    continue
                aliases[name.asname or name.name] = f"{node.module}.{name.name}"
    return aliases


def resolve_call(func: ast.AST, aliases: dict[str, str]) -> "str | None":
    """Dotted path of a call target, resolved through import aliases.

    ``np.random.rand`` with ``np -> numpy`` resolves to
    ``numpy.random.rand``; unresolvable targets (locals, ``self.…``)
    return ``None``.
    """
    parts: list[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = aliases.get(node.id)
    if base is None:
        return None
    return ".".join([base, *reversed(parts)]) if parts else base


def expr_key(node: ast.AST) -> "tuple[str, ...] | None":
    """Canonical key for a name / dotted-attribute expression."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None
