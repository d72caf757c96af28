"""Shared experiment plumbing for the per-figure benchmarks.

Every file in ``benchmarks/`` regenerates one of the paper's figures or
tables.  They share two needs: the §5.4 baseline sets by experiment
family, and a fresh index of a given registry name with Sonic sized
correctly.  This module centralizes them so each bench stays a
declarative description of its experiment.
"""

from __future__ import annotations

from repro.core.config import SonicConfig
from repro.core.sonic import SonicIndex
from repro.indexes.base import TupleIndex
from repro.indexes.registry import make_index

#: the §5.4 baseline sets, by experiment family
BUILD_AND_POINT_INDEXES = (
    "sonic", "hashset", "robinhood", "btree", "art", "hattrie",
    "hiermap", "hashtrie", "surf",
)
PREFIX_INDEXES = ("sonic", "btree", "art", "hattrie", "hiermap")
JOIN_INDEXES = ("sonic", "btree", "hattrie", "hiermap")


def make_sized_index(name: str, arity: int, expected_rows: int,
                     bucket_size: int = 8, overallocation: float = 2.0,
                     **kwargs) -> TupleIndex:
    """Fresh index; Sonic gets a capacity derived from the row count."""
    if name == "sonic":
        config = SonicConfig.for_tuples(max(expected_rows, 1),
                                        bucket_size=bucket_size,
                                        overallocation=overallocation)
        return SonicIndex(arity, config=config, **kwargs)
    return make_index(name, arity, **kwargs)
