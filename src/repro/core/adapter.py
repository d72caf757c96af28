"""Index adapters: from relations in storage order to total-order indexes.

The paper's ``SonicIndexAdapter`` (Listing 1/2) maps between a table's
storage schema and the query's *total order* schema at compile time.  The
runtime equivalent here does three jobs:

1. permute each tuple's components into total-order position before
   insertion (§2.3.1 — "by permutating the attributes of the relations
   they can be queried according to the total order");
2. extract an index-compatible prefix from a partially-bound *final tuple*
   (the Generic Join's candidate result) for prefix lookups;
3. permute matching index tuples back into result position.

Adapters are index-agnostic, like the C++ framework: anything satisfying
:class:`~repro.indexes.base.TupleIndex` plugs in.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from repro.errors import SchemaError
from repro.indexes.base import TupleIndex
from repro.storage.relation import Relation


class IndexAdapter:
    """Binds one relation to one index under a query's total order."""

    def __init__(self, relation: Relation, index: TupleIndex,
                 total_order: Sequence[str]):
        order = [a for a in total_order if a in relation.schema]
        if len(order) != relation.arity:
            missing = set(relation.schema.attributes) - set(total_order)
            raise SchemaError(
                f"total order {list(total_order)} does not cover attributes "
                f"{sorted(missing)} of relation {relation.name!r}"
            )
        if index.arity != relation.arity:
            raise SchemaError(
                f"index arity {index.arity} != relation arity {relation.arity}"
            )
        self.relation = relation
        self.index = index
        #: this relation's attributes, in total-order sequence — the order
        #: in which the index levels store them
        self.attribute_order: tuple[str, ...] = tuple(order)
        self._permutation = relation.schema.permutation_to(order)

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def build(self) -> None:
        """Permute and build every tuple (the WCOJ ad-hoc index build).

        Bulk-capable indexes take the columnar path: the relation's cached
        column arrays, permuted into total order, are handed whole to
        :meth:`~repro.indexes.base.TupleIndex.build_bulk` — one vectorized
        sort instead of per-tuple root-to-leaf probing.  Everything else
        keeps the per-tuple insert loop.
        """
        perm = self._permutation
        index = self.index
        relation = self.relation
        if index.SUPPORTS_BULK_BUILD and len(relation):
            columns = relation.columns()
            index.build_bulk(tuple(columns[i] for i in perm))
            return
        insert = index.insert
        if perm == tuple(range(relation.arity)):
            for row in relation.rows:
                insert(row)
        else:
            for row in relation.rows:
                insert(tuple(row[i] for i in perm))

    # ------------------------------------------------------------------
    # Probe-side helpers used by the Generic Join
    # ------------------------------------------------------------------
    def position_of(self, attribute: str) -> int:
        """Index level of ``attribute`` (its rank in this adapter's order)."""
        try:
            return self.attribute_order.index(attribute)
        except ValueError:
            raise SchemaError(
                f"attribute {attribute!r} not indexed by {self.relation.name!r}"
            ) from None

    def extract_prefix(self, binding: dict[str, object]) -> tuple:
        """Longest index prefix derivable from bound attribute values.

        ``binding`` maps attribute name → value for the attributes the join
        has bound so far; the prefix stops at the first of this adapter's
        attributes that is unbound (prefix lookups need contiguous bound
        components — the point of the total order).
        """
        prefix = []
        for attribute in self.attribute_order:
            if attribute not in binding:
                break
            prefix.append(binding[attribute])
        return tuple(prefix)

    def prefix_lookup(self, prefix: tuple) -> Iterator[tuple]:
        """Delegate a prefix enumeration to the wrapped index."""
        return self.index.prefix_lookup(prefix)

    def count_prefix(self, prefix: tuple) -> int:
        """Delegate a prefix count to the wrapped index."""
        return self.index.count_prefix(prefix)

    def contains_binding(self, binding: dict[str, object]) -> bool:
        """Point-style check: do the bound values appear in this relation?

        All of this adapter's attributes must be bound; used by the Generic
        Join's intersection step on fully-covered relations.
        """
        prefix = self.extract_prefix(binding)
        if len(prefix) != self.index.arity:
            raise SchemaError(
                f"contains_binding on {self.relation.name!r} with unbound "
                f"attributes (bound prefix {prefix!r})"
            )
        return self.index.contains(prefix)
