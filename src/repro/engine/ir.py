"""The join-plan IR — the one representation the engine executes.

Following Free Join (Wang et al.), a plan describes what runs: the
frontier, the Generic Join on the batch engine over one columnar trie
per atom.  The paper's tuple drivers — binary pipeline, tuple Generic
Join, Hash-Trie Join, Leapfrog Triejoin — have no plan:
:func:`repro.joins.join` sends them to their own door, where each builds
its own structures.  The artifacts:

* :class:`JoinPlan` — the frontier's decisions: what was asked and what
  it resolved to, the total attribute order, one :class:`IndexSpec` per
  atom, the optimizer's rationale and the sharding.  A plan is one
  stage: the frontier runs a cyclic core together with its acyclic
  ears, so nothing is left to compose above it.
* :class:`BoundQuery` — the query text resolved against a relation
  source (the **bind** stage's output), carried separately so one plan
  can be validated without data and prepared against data.

Both are inert data: no index is built and nothing executes until the
**prepare** stage (:mod:`repro.engine.pipeline`) turns the specs into
columnar tries — which is exactly the seam the session-scoped index
cache (:mod:`repro.engine.cache`) slots into, because an
:class:`IndexSpec` plus a relation fingerprint *is* a cache key.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.indexes.columnar import ColumnarTrie
from repro.planner.optimizer import PlanChoice
from repro.planner.query import JoinQuery
from repro.storage.relation import Relation

#: the batch Generic Join's columnar trie, the one structure a plan
#: builds — *instead of* the ``index=`` kind, which nothing would probe
COLUMNAR_KIND = ColumnarTrie.NAME


def canonical_options(options: "Mapping[str, object] | None",
                      ) -> tuple[tuple[str, object], ...]:
    """Options as a sorted, hashable tuple — the cache-key form."""
    if not options:
        return ()
    return tuple(sorted(options.items()))


@dataclass(frozen=True)
class IndexSpec:
    """One supporting structure a plan needs, described but not built.

    ``permutation`` maps storage column positions into structure-level
    positions (the §2.3.1 attribute permutation); together with the
    relation's fingerprint, ``(kind, permutation, options)`` identifies a
    reusable structure — two atoms over the same stored relation with the
    same permutation share one build, which is how self-join aliases end
    up reusing a single cached index.

    ``kind`` names what is *built*: :data:`COLUMNAR_KIND`
    (``JoinPlan.index`` keeps what the caller asked).  ``options`` name
    the storage positions the trie codes (``coded``), if any.
    """

    alias: str
    kind: str
    attribute_order: tuple[str, ...]
    permutation: tuple[int, ...]
    options: tuple[tuple[str, object], ...] = ()

    def cache_key_suffix(self) -> tuple:
        """The relation-independent part of this spec's cache key."""
        return (self.kind, self.permutation, self.options)


@dataclass(frozen=True)
class ShardingSpec:
    """Multiprocess sharded execution of an otherwise ordinary plan.

    Generic Join partitions cleanly on the first attribute of the total
    order: every result tuple binds that attribute to exactly one value,
    so hashing the value into one of ``workers`` shards splits the
    result set into disjoint pieces.  Atoms whose relation carries the
    attribute are filtered to their shard; atoms that never bind it are
    replicated to every shard.  The spec is inert plan data, like
    :class:`IndexSpec` — the prepare stage partitions the relations'
    column arrays into shared memory (:mod:`repro.parallel`), and the
    execute stage fans the per-shard work out to a worker pool.
    """

    workers: int
    attribute: str
    scheme: str = "hash"

    def describe(self) -> str:
        return f"sharded[{self.workers}x{self.attribute}/{self.scheme}]"


@dataclass(frozen=True)
class JoinPlan:
    """The compiled plan: the frontier's decisions.

    Everything execution needs except built indexes.  ``algorithm`` is
    the driver that runs, ``"generic"``, and ``engine`` the one it runs
    on, ``"batch"`` — both resolved: ``"auto"`` (and its other name,
    ``"unified"``) never reaches a plan — over ``query``, with one
    :class:`IndexSpec` per atom in ``index_specs``.
    ``total_order`` is the attribute order; ``output`` is the result
    schema in emission order.  ``index`` is the kind the caller named,
    each spec's ``kind`` what gets built.  ``choice`` is the hybrid
    optimizer's rationale when it ran (``algorithm="auto"`` or a
    profiled run).
    """

    query: JoinQuery
    algorithm: str
    output: tuple[str, ...]
    engine: str = ""
    index: str = ""
    total_order: tuple[str, ...] = ()
    index_specs: tuple[IndexSpec, ...] = ()
    choice: "PlanChoice | None" = None
    sharding: "ShardingSpec | None" = None
    #: the routing note — atoms the acyclic rule would give the binary
    #: pipeline, run on the batch Generic Join — also appended to
    #: ``choice.reason`` when the optimizer ran
    engine_note: str = ""

    def spec_for(self, alias: str) -> IndexSpec:
        """The :class:`IndexSpec` prepared for atom ``alias``."""
        for spec in self.index_specs:
            if spec.alias == alias:
                return spec
        raise KeyError(f"no index spec for alias {alias!r} in plan")

    def describe(self) -> str:
        """The plan on one line (CLI / EXPLAIN output): what was asked,
        then what is built for it when the two differ, the routing note,
        the order and the sharding."""
        head = self.algorithm
        if self.engine:
            head += f"/{self.engine}"
        if self.index:
            head += f" index={self.index}"
            # what is built per atom, which under the batch engine is
            # not the ``index`` the caller named
            built = (self.index_specs[0].kind if self.index_specs
                     else self.index)
            if built != self.index:
                head += f" built={built}"
        if self.engine_note:
            head += f" [{self.engine_note}]"
        if self.total_order:
            head += f" order={','.join(self.total_order)}"
        if self.sharding is not None:
            head += f" {self.sharding.describe()}"
        return head


@dataclass(frozen=True)
class BoundQuery:
    """The bind stage's output: a query resolved against relations.

    ``relations`` maps each atom alias to a zero-copy
    :meth:`~repro.storage.relation.Relation.renamed` view whose schema
    carries the atom's query attributes.  A view shares its backing rows
    and version counter with the stored relation, so
    :meth:`~repro.storage.relation.Relation.fingerprint` on the view is
    the stored relation's cache identity — the bind output is all the
    prepare stage needs to key the index cache.
    """

    query: JoinQuery
    relations: dict[str, Relation] = field(default_factory=dict)
