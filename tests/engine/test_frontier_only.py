"""The serving layers run only the frontier.

``Session.prepare`` / ``Session.execute``, ``repro.engine.plan`` (and so
``repro.engine.prepare``) and every sharded run (``parallel=K`` or
``REPRO_WORKERS``) hold frontier plans only: the Generic Join on the
batch engine.  Each request for the paper's tuple drivers is refused at
each of them with a ``ConfigurationError`` that names the cold door,
``join(engine="tuple")`` — before anything is built, cached,
partitioned into shared memory or forked — and still answers through a
plain ``join()``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import Relation, Session, join
from repro.engine import bind, plan, prepare
from repro.errors import ConfigurationError
from repro.parallel.pool import IDLE_POOLS

PATH = "R(a,b), S(b,c)"

#: every request for the paper's door: the tuple engine, the four other
#: drivers, and a pinned binary order
CONFIGURATIONS = {
    "tuple": {"engine": "tuple"},
    "binary": {"algorithm": "binary"},
    "hashtrie": {"algorithm": "hashtrie"},
    "leapfrog": {"algorithm": "leapfrog"},
    "recursive": {"algorithm": "recursive"},
    "auto-binary_order": {"algorithm": "auto", "binary_order": ["R", "S"]},
}


def tables() -> dict:
    return {"R": Relation("R", ("a", "b"), [(i, i % 4) for i in range(12)]),
            "S": Relation("S", ("b", "c"), [(i % 4, i) for i in range(8)])}


def via_session_prepare(source, options, monkeypatch, session):
    session.prepare(PATH, **options)


def via_session_execute(source, options, monkeypatch, session):
    session.execute(PATH, **options)


def via_engine_prepare(source, options, monkeypatch, session):
    bound = bind(PATH, source)
    prepare(bound, plan(bound, **options))


def via_parallel(source, options, monkeypatch, session):
    join(PATH, source, parallel=2, **options)


def via_workers_env(source, options, monkeypatch, session):
    monkeypatch.setenv("REPRO_WORKERS", "2")
    join(PATH, source, **options)


ENTRY_POINTS = {
    "Session.prepare": via_session_prepare,
    "Session.execute": via_session_execute,
    "engine.prepare": via_engine_prepare,
    "join(parallel=2)": via_parallel,
    "REPRO_WORKERS=2": via_workers_env,
}


def shm_segments() -> set:
    return {path.name for path in Path("/dev/shm").glob("repro_shm_*")}


def idle_pools() -> dict:
    return {key: list(pools) for key, pools in IDLE_POOLS._idle.items()}


@pytest.mark.parametrize("configuration, entry", [
    (configuration, entry)
    for configuration in CONFIGURATIONS for entry in ENTRY_POINTS
    # plan() takes no binary_order: the frontier never reads one
    if (configuration, entry) != ("auto-binary_order", "engine.prepare")])
def test_a_serving_layer_refuses_a_tuple_plan(configuration, entry,
                                              monkeypatch):
    options = CONFIGURATIONS[configuration]
    source = tables()
    session = Session(source)
    segments, idle = shm_segments(), idle_pools()
    with pytest.raises(ConfigurationError,
                       match=r'join\(engine="tuple"\)'):
        ENTRY_POINTS[entry](source, options, monkeypatch, session)
    assert shm_segments() <= segments
    assert idle_pools() == idle
    assert session.cache_stats().entries == 0 and not session._plans
    # the cold door still answers it, as the frontier does
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    assert join(PATH, source, **options).count == join(PATH, source).count

