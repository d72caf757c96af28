"""Shared experiment plumbing for the per-figure benchmarks.

Every file in ``benchmarks/`` regenerates one of the paper's figures or
tables.  They share a few needs: build an index of a given registry name
over a relation (with Sonic sized correctly), run index-operation sweeps
across the full baseline set, and run a join with each algorithm.  This
module centralizes that so each bench stays a declarative description of
its experiment.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

from repro.core.config import SonicConfig
from repro.core.sonic import SonicIndex
from repro.indexes.base import TupleIndex
from repro.indexes.registry import make_index
from repro.storage.relation import Relation

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


def build_index(name: str, relation: Relation, **kwargs) -> TupleIndex:
    index = make_sized_index(name, relation.arity, len(relation), **kwargs)
    index.build(relation.rows)
    return index


def sweep(index_names: Sequence[str], x_values: Iterable,
          measure: Callable[[str, object], float],
          ) -> tuple[list, dict[str, list[float]]]:
    """Run ``measure(index_name, x)`` over the cross product, series-shaped.

    Returns ``(x_values, {index_name: [measurement per x]})`` ready for
    :func:`repro.bench.reporting.print_series`.
    """
    xs = list(x_values)
    series: dict[str, list[float]] = {name: [] for name in index_names}
    for x in xs:
        for name in index_names:
            series[name].append(measure(name, x))
    return xs, series
