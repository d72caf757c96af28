"""Index structures for worst-case optimal joins (§5.4 baseline set).

Every structure implements :class:`repro.indexes.base.TupleIndex`.  The
registry (see :func:`repro.indexes.make_index`) is pre-populated with the
full baseline set of the paper's comparative study plus Sonic itself:

===============  ==============================================  ========
registry name    structure                                        prefix?
===============  ==============================================  ========
``sonic``        Sonic index (the paper's contribution, §3)       yes
``hashset``      SwissTable flat hash set ("Abseil Hash Set")     no
``robinhood``    Robin Hood map ("Tessil Fast Hash Map")          no
``btree``        B+tree ("TLX-BTree")                             yes
``art``          Adaptive Radix Tree                              yes
``hattrie``      HAT-trie (burst trie, "Tessil HAT-Trie")         yes
``hiermap``      Hierarchical hash map (hash of hash tables)      yes
``hashtrie``     Umbra hash trie (lazy expansion + pruning)       yes
``surf``         SuRF succinct range filter (approximate)         no
``sortedtrie``   Sorted-array trie (LFTJ interface)               yes
===============  ==============================================  ========

:class:`~repro.indexes.columnar.ColumnarTrie` is not a registry entry:
it is the engine-owned structure the batch Generic Join reads (built by
the prepare stage whatever ``index=`` says), not a §3.1 tuple index.
"""

from repro.indexes.art import AdaptiveRadixTree
from repro.indexes.base import PrefixCursor, TupleIndex
from repro.indexes.btree import BPlusTree
from repro.indexes.hashset import SwissTableSet
from repro.indexes.hashtrie import HashTrie
from repro.indexes.hattrie import HatTrie
from repro.indexes.hierarchical import HierarchicalHashMap
from repro.indexes.registry import make_index, register_index, registered_indexes
from repro.indexes.robinhood import RobinHoodTupleIndex
from repro.indexes.sorted_trie import SortedTrie
from repro.indexes.surf import SuccinctRangeFilter

__all__ = [
    "AdaptiveRadixTree",
    "BPlusTree",
    "HashTrie",
    "HatTrie",
    "HierarchicalHashMap",
    "PrefixCursor",
    "RobinHoodTupleIndex",
    "SortedTrie",
    "SuccinctRangeFilter",
    "SwissTableSet",
    "TupleIndex",
    "make_index",
    "register_index",
    "registered_indexes",
]


def _register_builtins() -> None:
    from repro.core.sonic import SonicIndex

    for cls in (
        SonicIndex,
        SwissTableSet,
        RobinHoodTupleIndex,
        BPlusTree,
        AdaptiveRadixTree,
        HatTrie,
        HierarchicalHashMap,
        HashTrie,
        SuccinctRangeFilter,
        SortedTrie,
    ):
        register_index(cls.NAME, cls, replace=True)


_register_builtins()
