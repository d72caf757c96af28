"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import settings

from repro.core import SonicConfig, SonicIndex
from repro.hardware.cache import CacheHierarchy, CacheLevel
from repro.storage import Relation

#: ``HYPOTHESIS_PROFILE=stress`` (the thread-stress CI job) runs ten times
#: hypothesis's default example count, and ten times the count of a test
#: that scales its own by it
settings.register_profile("stress", max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def make_rows(arity: int, count: int, domain: int, seed: int = 0) -> list[tuple]:
    """Deterministic distinct random tuples."""
    rng = random.Random(seed)
    rows: set[tuple] = set()
    guard = 0
    while len(rows) < count and guard < 50 * count:
        rows.add(tuple(rng.randrange(domain) for _ in range(arity)))
        guard += 1
    return sorted(rows)


def matching(rows: list[tuple], prefix: tuple) -> list[tuple]:
    """Ground-truth prefix lookup."""
    width = len(prefix)
    return sorted(row for row in rows if row[:width] == prefix)


def tiny_hierarchy(l1_bytes: int = 1024, l2_bytes: int = 8192,
                   line_bytes: int = 64) -> CacheHierarchy:
    """A miniature two-level hierarchy for fast unit tests."""
    return CacheHierarchy([
        CacheLevel("L1", l1_bytes, 2, line_bytes),
        CacheLevel("L2", l2_bytes, 4, line_bytes),
    ])


@pytest.fixture
def rows4() -> list[tuple]:
    """A medium 4-column tuple set with plenty of shared prefixes."""
    return make_rows(4, 800, domain=20, seed=11)


@pytest.fixture
def rows2() -> list[tuple]:
    return make_rows(2, 500, domain=60, seed=13)


@pytest.fixture
def sonic4(rows4) -> SonicIndex:
    index = SonicIndex(4, SonicConfig.for_tuples(len(rows4)))
    index.build(rows4)
    return index


@pytest.fixture
def edges_relation_small() -> Relation:
    rng = random.Random(5)
    rows = {(rng.randrange(25), rng.randrange(25)) for _ in range(160)}
    return Relation("E", ("src", "dst"), rows)
