"""Registry mapping index names to factories.

The benchmark harness sweeps "every index in the study" (Figs 4–9, 13, 14,
18, Table 1); this registry is the single list it sweeps.  Factories take
``arity`` plus optional keyword overrides and return a fresh, empty index.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.errors import ConfigurationError
from repro.indexes.base import TupleIndex

_REGISTRY: dict[str, Callable[..., TupleIndex]] = {}


def register_index(name: str, factory: Callable[..., TupleIndex],
                   replace: bool = False) -> None:
    """Register ``factory`` under ``name`` for harness sweeps."""
    if name in _REGISTRY and not replace:
        raise ConfigurationError(f"index {name!r} already registered")
    # registration happens at import time (repro.indexes.__init__), under
    # the import lock; the registry is only read during sweeps
    _REGISTRY[name] = factory  # repro: noqa[RA701]


def make_index(name: str, arity: int, **kwargs) -> TupleIndex:
    """Instantiate a fresh index by registry name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown index {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None
    return factory(arity, **kwargs)


def registered_indexes() -> list[str]:
    """All registry names, sorted."""
    return sorted(_REGISTRY)


def registered_factories() -> dict[str, Callable[..., TupleIndex]]:
    """Snapshot of the registry (name → factory) for introspection.

    The contract checker (:mod:`repro.analysis.contracts`) walks this to
    verify every registered class against the §4.1 plug-in contract; the
    copy keeps callers from mutating the live registry.
    """
    return dict(_REGISTRY)


def prefix_capable_indexes() -> list[str]:
    """Names of registered indexes that support prefix operations.

    This is the candidate set for the prefix-lookup/count experiments
    (Figs 6–9) and for supporting the Generic Join.
    """
    names = []
    for name in sorted(_REGISTRY):
        probe = _REGISTRY[name](2)
        if probe.SUPPORTS_PREFIX:
            names.append(name)
    return names
