"""Join algorithms: Generic Join, binary pipeline, Hash-Trie Join, LFTJ."""

from repro.joins.binary import BinaryHashJoin
from repro.joins.executor import join, resolve_relations
from repro.joins.generic_join import GenericJoin
from repro.joins.hashtrie_join import HashTrieJoin
from repro.joins.leapfrog import LeapfrogTrieJoin
from repro.joins.results import JoinResult

__all__ = [
    "BinaryHashJoin",
    "GenericJoin",
    "HashTrieJoin",
    "JoinResult",
    "LeapfrogTrieJoin",
    "join",
    "resolve_relations",
]
