"""The session index cache: accounting, LRU/byte eviction, invalidation."""

from __future__ import annotations

import pytest

from repro.engine import Session
from repro.engine.cache import IndexCache
from repro.storage.relation import Relation


def entry(cache: IndexCache, relation: Relation, tag: str) -> tuple:
    return cache.key_for(relation, (tag, (0, 1), (), None))


@pytest.fixture
def edges() -> Relation:
    return Relation("E", ("src", "dst"), [(0, 1), (1, 2), (2, 0)])


class TestAccounting:
    def test_hit_miss_store_counters(self, edges):
        cache = IndexCache(max_bytes=1 << 20)
        key = entry(cache, edges, "sonic")
        assert cache.get(key) is None
        cache.put_if_absent(key, object(), 100)
        assert cache.get(key) is not None
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.stores) == (1, 1, 1)
        assert stats.entries == 1 and stats.bytes == 100

    def test_metrics_registry_sees_counters(self, edges):
        cache = IndexCache(max_bytes=1 << 20)
        key = entry(cache, edges, "sonic")
        cache.get(key)
        cache.put_if_absent(key, object(), 10)
        cache.get(key)
        assert cache.metrics.get("cache.miss") == 1
        assert cache.metrics.get("cache.hit") == 1
        assert cache.metrics.get("cache.store") == 1


class TestEviction:
    def test_byte_budget_evicts_lru_first(self, edges):
        cache = IndexCache(max_bytes=250)
        keys = [entry(cache, edges, f"k{i}") for i in range(3)]
        for key in keys:
            cache.put_if_absent(key, object(), 100)
        # 300 bytes > 250: the coldest (first-stored) entry must go
        assert len(cache) == 2
        assert keys[0] not in cache
        assert keys[1] in cache and keys[2] in cache
        assert cache.stats().evictions == 1
        assert cache.metrics.get("cache.evict") == 1

    def test_get_refreshes_recency(self, edges):
        cache = IndexCache(max_bytes=250)
        keys = [entry(cache, edges, f"k{i}") for i in range(3)]
        cache.put_if_absent(keys[0], object(), 100)
        cache.put_if_absent(keys[1], object(), 100)
        cache.get(keys[0])  # k0 becomes most-recently-used
        cache.put_if_absent(keys[2], object(), 100)
        assert keys[0] in cache
        assert keys[1] not in cache

    def test_entry_cap(self, edges):
        cache = IndexCache(max_bytes=1 << 20, max_entries=2)
        for i in range(4):
            cache.put_if_absent(entry(cache, edges, f"k{i}"), object(), 1)
        assert len(cache) == 2

    def test_disabled_cache_stores_nothing(self, edges):
        cache = IndexCache(max_bytes=0)
        assert not cache.enabled
        key = entry(cache, edges, "sonic")
        cache.put_if_absent(key, object(), 1)
        assert len(cache) == 0
        assert cache.get(key) is None

    def test_clear_releases_everything(self, edges):
        cache = IndexCache(max_bytes=1 << 20)
        for i in range(3):
            cache.put_if_absent(entry(cache, edges, f"k{i}"), object(), 10)
        cache.clear()
        assert len(cache) == 0 and cache.bytes_used == 0


class TestInvalidation:
    def test_mutation_bumps_fingerprint_so_entries_stop_matching(self, edges):
        cache = IndexCache(max_bytes=1 << 20)
        before = entry(cache, edges, "sonic")
        cache.put_if_absent(before, object(), 10)
        edges.insert((3, 4))
        after = entry(cache, edges, "sonic")
        assert after != before
        assert cache.get(after) is None  # stale entry never served

    def test_renamed_view_shares_fingerprint_with_base(self, edges):
        view = edges.renamed(("a", "b"), name="E1")
        assert view.fingerprint() == edges.fingerprint()
        view2 = edges.renamed(("b", "c"), name="E2")
        edges.extend([(7, 8)])
        # the version bump is visible through every view
        assert view.fingerprint() == view2.fingerprint() == edges.fingerprint()
        assert view.version == 1

    def test_invalidate_relation_drops_all_versions(self, edges):
        cache = IndexCache(max_bytes=1 << 20)
        cache.put_if_absent(entry(cache, edges, "sonic"), object(), 10)
        edges.insert((5, 6))
        # another spec: a store supersedes the older versions of its own
        cache.put_if_absent(entry(cache, edges, "btree"), object(), 10)
        other = Relation("F", ("x", "y"), [(1, 1)])
        cache.put_if_absent(entry(cache, other, "sonic"), object(), 10)
        dropped = cache.invalidate_relation(edges.renamed(("a", "b")))
        assert dropped == 2
        assert len(cache) == 1  # the unrelated relation survives


class TestVersions:
    def test_store_supersedes_older_versions(self, edges):
        cache = IndexCache(max_bytes=1 << 20)
        old = entry(cache, edges, "sonic")
        keep = entry(cache, edges, "btree")
        cache.put_if_absent(old, "v0", 100)
        cache.put_if_absent(keep, "other spec", 10)
        edges.insert((3, 4))
        new = entry(cache, edges, "sonic")
        assert cache.put_if_absent(new, "v1", 120) == "v1"
        assert old not in cache and new in cache and keep in cache
        stats = cache.stats()
        assert (stats.entries, stats.bytes, stats.evictions) == (2, 130, 1)
        assert cache.metrics.get("cache.evict") == 1
        assert stats.stores - stats.evictions == stats.entries
        # a slow publisher of the old version keeps its structure to
        # itself: what it built is dead on arrival
        assert cache.put_if_absent(old, "late v0", 100) == "late v0"
        assert old not in cache and new in cache
        assert cache.metrics.get("cache.race") == 1
        assert cache.stats().bytes == 130

    def test_key_for_an_explicit_version(self, edges):
        cache = IndexCache()
        at_zero = entry(cache, edges, "sonic")
        edges.insert((3, 4))
        assert cache.key_for(edges, ("sonic", (0, 1), (), None),
                             version=0) == at_zero
        assert entry(cache, edges, "sonic") != at_zero


class TestByteEstimates:
    def test_prefers_reported_memory_usage(self, edges):
        # every structure a session caches reports its own bytes: a trie
        # (and a sharded plan's partitioning) is charged exactly that
        session = Session({"E1": edges, "E2": edges, "E3": edges})
        session.prepare("E1=E(a,b), E2=E(b,c), E3=E(c,a)")
        charged = {key: held.bytes
                   for key, held in session.cache._entries.items()}
        assert charged == {key: held.value.memory_usage()
                           for key, held in session.cache._entries.items()}
        assert session.cache_stats().bytes == sum(charged.values()) > 0


class TestAliasSharing:
    def test_triangle_self_join_shares_one_build(self, edges):
        # E1(a,b) and E2(b,c) index the same storage under the same
        # permutation → one build + one hit; E3(c,a) permutes the other
        # way → its own build.  2 misses, 1 hit, 2 stored entries.
        session = Session({"E1": edges, "E2": edges, "E3": edges})
        prepared = session.prepare("E1=E(a,b), E2=E(b,c), E3=E(c,a)")
        stats = session.cache_stats()
        assert (stats.misses, stats.hits, stats.entries) == (2, 1, 2)
        assert prepared.execute().count == 3

    def test_second_prepare_is_all_hits(self, edges):
        session = Session({"E1": edges, "E2": edges, "E3": edges})
        session.prepare("E1=E(a,b), E2=E(b,c), E3=E(c,a)")
        session.prepare("E1=E(a,b), E2=E(b,c), E3=E(c,a)")
        stats = session.cache_stats()
        assert stats.misses == 2 and stats.hits == 1 + 3
        assert stats.entries == 2
