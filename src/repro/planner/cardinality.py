"""Cardinality estimation for the binary-join optimizer.

The binary-join baseline needs a join order; join ordering needs output
cardinality estimates.  We implement the textbook System-R style model the
paper's baseline implicitly relies on: per-attribute distinct counts with
independence and preservation assumptions,

.. math::

    |R \\bowtie S| = \\frac{|R|\\,|S|}{\\prod_{a \\in A(R) \\cap A(S)}
                      \\max(d_R(a), d_S(a))}

where ``d_X(a)`` is the distinct count of attribute ``a`` in ``X``.  The
model is deliberately fallible — mis-estimation under correlation and skew
is precisely what produces the exploding intermediate results WCOJ
algorithms are robust against (Fig 1), and the benches exploit that.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

import numpy as np

from repro.storage.relation import Relation


class Statistics:
    """Collected statistics: cardinality and per-attribute distinct counts.

    Cardinalities are read when a relation is registered; a distinct
    count is a full scan of its column, so it is made the first time
    something asks for it — a decision that never reaches the System-R
    estimate (a cyclic query, a query the columnar engine takes) scans
    nothing.
    """

    def __init__(self):
        self._cardinality: dict[str, int] = {}
        self._relations: dict[str, Relation] = {}
        self._distinct: dict[tuple[str, str], int] = {}

    @classmethod
    def collect(cls, relations: Iterable[Relation],
                aliases: Mapping[str, str] | None = None) -> "Statistics":
        """Register ``relations``; ``aliases`` maps alias → relation name.

        When an alias map is given, statistics are registered per alias so
        self-joins can reference the same physical relation several times.
        """
        stats = cls()
        by_name = {}
        for relation in relations:
            by_name[relation.name] = relation
            stats.register(relation.name, relation)
        if aliases:
            for alias, name in aliases.items():
                if alias not in stats._cardinality:
                    stats.register(alias, by_name[name])
        return stats

    def register(self, key: str, relation: Relation) -> None:
        self._cardinality[key] = len(relation)
        self._relations[key] = relation

    def cardinality(self, key: str) -> int:
        return self._cardinality[key]

    def distinct(self, key: str, attribute: str) -> int:
        """Distinct values of ``attribute`` (1 if unknown, the safe floor)."""
        count = self._distinct.get((key, attribute))
        if count is None:
            relation = self._relations.get(key)
            if relation is None or attribute not in relation.schema:
                return 1
            column = relation.column_array(attribute)
            if column.dtype == object:
                # object columns may hold mutually-incomparable values,
                # which np.unique's sort cannot handle
                count = len(set(column.tolist()))
            else:
                count = int(np.unique(column).size)
            self._distinct[key, attribute] = count = max(count, 1)
        return count

    def cardinalities(self) -> dict[str, int]:
        return dict(self._cardinality)


def estimate_join_size(left_size: float, right_size: float,
                       left_key: str, right_key: str,
                       join_attributes: Iterable[str],
                       stats: Statistics,
                       left_distinct_override: Mapping[str, int] | None = None,
                       ) -> float:
    """System-R estimate of a binary join's output size.

    ``left_distinct_override`` carries distinct counts for an intermediate
    result (distinct counts are assumed preserved through joins, capped by
    the estimated size).
    """
    size = left_size * right_size
    for attribute in join_attributes:
        if left_distinct_override and attribute in left_distinct_override:
            left_d = left_distinct_override[attribute]
        else:
            left_d = stats.distinct(left_key, attribute)
        right_d = stats.distinct(right_key, attribute)
        size /= max(left_d, right_d, 1)
    return max(size, 0.0)
