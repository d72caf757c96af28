"""The serving layers run only the frontier.

``Session.prepare`` / ``Session.execute``, ``repro.engine.plan`` (and so
``repro.engine.prepare``) and every sharded run (``parallel=K``) hold
frontier plans only: the Generic Join on the
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

#: every request for the paper's door: the tuple engine, the three other
#: drivers, and a pinned binary order
CONFIGURATIONS = {
    "tuple": {"engine": "tuple"},
    "binary": {"algorithm": "binary"},
    "hashtrie": {"algorithm": "hashtrie"},
    "leapfrog": {"algorithm": "leapfrog"},
    "auto-binary_order": {"algorithm": "auto", "binary_order": ["R", "S"]},
}


def tables() -> dict:
    return {"R": Relation("R", ("a", "b"), [(i, i % 4) for i in range(12)]),
            "S": Relation("S", ("b", "c"), [(i % 4, i) for i in range(8)])}


def via_session_prepare(source, options, session):
    session.prepare(PATH, **options)


def via_session_execute(source, options, session):
    session.execute(PATH, **options)


def via_engine_prepare(source, options, session):
    bound = bind(PATH, source)
    prepare(bound, plan(bound, **options))


def via_parallel(source, options, session):
    join(PATH, source, parallel=2, **options)


ENTRY_POINTS = {
    "Session.prepare": via_session_prepare,
    "Session.execute": via_session_execute,
    "engine.prepare": via_engine_prepare,
    "join(parallel=2)": via_parallel,
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
def test_a_serving_layer_refuses_a_tuple_plan(configuration, entry):
    options = CONFIGURATIONS[configuration]
    source = tables()
    session = Session(source)
    segments, idle = shm_segments(), idle_pools()
    with pytest.raises(ConfigurationError,
                       match=r'join\(engine="tuple"\)'):
        ENTRY_POINTS[entry](source, options, session)
    assert shm_segments() <= segments
    assert idle_pools() == idle
    assert session.cache_stats().entries == 0 and not session._plans
    # the cold door still answers it, as the frontier does
    assert join(PATH, source, **options).count == join(PATH, source).count


def test_a_static_seed_runs_the_tuple_generic_join():
    """``dynamic_seed=False`` (Alg. 1 without its size check) is a
    request for the paper's door: ``join()`` runs the tuple Generic
    Join, one seed per level, and a serving layer refuses it."""
    rows = sorted({(i, (i * 5 + 1) % 13) for i in range(13)}
                  | {(i, (i + 3) % 13) for i in range(13)})
    edges = Relation("E", ("src", "dst"), rows)
    source = {"E1": edges, "E2": edges, "E3": edges}
    triangle = "E1=E(a,b), E2=E(b,c), E3=E(c,a)"
    truth = sorted((a, b, c) for a, b in rows for b2, c in rows
                   for c2, a2 in rows if b == b2 and c == c2 and a == a2)
    result = join(triangle, source, dynamic_seed=False, materialize=True,
                  profile=True)
    assert result.metrics.algorithm == "generic_join"
    position = [result.attributes.index(name) for name in "abc"]
    assert sorted(tuple(row[i] for i in position)
                  for row in result.rows) == truth
    assert all(sum(1 for n in level.seed_counts.values() if n) <= 1
               for level in result.profile.levels)
    with pytest.raises(ConfigurationError,
                       match=r'join\(engine="tuple"\)'):
        Session(source).prepare(triangle, dynamic_seed=False)
    with pytest.raises(ConfigurationError, match="dynamic_seed=False"):
        join(triangle, source, engine="batch", dynamic_seed=False)


def test_the_door_arguments_at_their_defaults_ask_for_nothing():
    """``binary_order=None`` and ``dynamic_seed=True`` are ``join()``'s
    own defaults: a session handed them answers as ``join()`` does, on
    the frontier, and a pinned order or a static seed is still refused."""
    source = tables()
    session = Session(source)
    defaults = {"binary_order": None, "dynamic_seed": True}
    prepared = session.prepare(PATH, **defaults)
    assert prepared.plan.engine == "batch"
    assert prepared.execute().count == join(PATH, source, **defaults).count
    assert session.execute(PATH, **defaults).count == join(PATH, source).count
    for refused in ({"binary_order": ["R", "S"]}, {"dynamic_seed": False}):
        with pytest.raises(ConfigurationError,
                           match=r'join\(engine="tuple"\)'):
            session.prepare(PATH, **refused)
        with pytest.raises(ConfigurationError,
                           match=r'join\(engine="tuple"\)'):
            session.execute(PATH, **refused)
