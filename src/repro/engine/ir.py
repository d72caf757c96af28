"""The join-plan IR — one representation for every execution strategy.

The seed executor hand-dispatched five drivers from a monolithic
``join()`` with per-algorithm special cases; following Free Join (Wang et
al.) and the unified binary/WCOJ architecture of Kaboli et al., the
engine instead compiles every query — binary pipeline, Generic Join
(tuple or batch), Hash-Trie Join, Leapfrog Triejoin, recursive NPRR, or
a mix of them — into the same artifacts:

* :class:`JoinPlan` — a query-wide *header* (what was asked and what it
  resolved to, the optimizer's rationale, sharding) over a tree of
  :class:`PlanStage` nodes.  Each stage is one driver's worth of
  decisions: its algorithm and engine, its total attribute order (or
  binary atom order) and one :class:`IndexSpec` per supporting
  structure.  A flat request (``generic``, ``binary``, …) is the
  one-stage case; ``unified`` may split a query into several.
* :class:`BoundQuery` — the query text resolved against a relation
  source (the **bind** stage's output), carried separately so one plan
  can be validated without data and prepared against data.

Both are inert data: no index is built and nothing executes until the
**prepare** stage (:mod:`repro.engine.pipeline`) turns specs into built
structures — which is exactly the seam the session-scoped index cache
(:mod:`repro.engine.cache`) slots into, because an :class:`IndexSpec`
plus a relation fingerprint *is* a cache key.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.indexes.columnar import ColumnarTrie
from repro.planner.optimizer import PlanChoice
from repro.planner.query import JoinQuery
from repro.storage.relation import Relation

#: structure kinds that are not index-registry entries but still cacheable
HASHTABLE_KIND = "hashtable"     # binary pipeline stage table
TUPLESET_KIND = "tupleset"       # recursive NPRR frozen row set
#: the batch Generic Join's columnar trie: engine-owned like the stage
#: table — under ``engine="batch"`` it is built *instead of* the
#: ``index=`` kind, which nothing would probe
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

    ``key_arity`` is only meaningful for ``kind="hashtable"`` (binary
    pipeline stages): the first ``key_arity`` entries of
    ``attribute_order`` are the probe key, the rest the payload.

    ``kind`` names what the prepare stage *builds*: a registry index
    for the tuple engine, :data:`COLUMNAR_KIND` for every atom of a
    batch-engine plan (``JoinPlan.index`` keeps what the caller asked).
    """

    alias: str
    kind: str
    attribute_order: tuple[str, ...]
    permutation: tuple[int, ...]
    options: tuple[tuple[str, object], ...] = ()
    key_arity: "int | None" = None

    def cache_key_suffix(self) -> tuple:
        """The relation-independent part of this spec's cache key."""
        return (self.kind, self.permutation, self.options, self.key_arity)


def _asked_and_built(algorithm: str, engine: str, index: str,
                     engine_note: str, built: str = "") -> str:
    """``algorithm/engine index=… built=…`` — what was asked, then what
    is built for it when the two differ, then the plan stage's routing
    note when it has one."""
    head = algorithm
    if engine:
        head += f"/{engine}"
    if index:
        head += f" index={index}"
        if built and built != index:
            head += f" built={built}"
    if engine_note:
        head += f" [{engine_note}]"
    return head


def built_kind(stage: "PlanStage") -> str:
    """The structure kind a generic stage has built per atom — its specs
    say — which under the batch engine is not the ``index`` the caller
    named."""
    return stage.index_specs[0].kind if stage.index_specs else stage.index


def _describe_head(stage: "PlanStage") -> str:
    """One stage on one line: what runs, over what, in which order."""
    head = _asked_and_built(stage.algorithm, stage.engine, stage.index,
                            stage.engine_note, built_kind(stage))
    if stage.total_order:
        head += f" order={','.join(stage.total_order)}"
    if stage.atom_order:
        head += f" atoms={','.join(stage.atom_order)}"
    return head


#: alias prefix that marks an atom as fed by a child stage's output
STAGE_ALIAS_PREFIX = "stage:"


def stage_alias(label: str) -> str:
    """The synthetic atom alias a child stage's output binds to."""
    return STAGE_ALIAS_PREFIX + label


@dataclass(frozen=True)
class PlanStage:
    """One node of a plan's stage tree: one driver's worth of decisions.

    A stage is a self-contained sub-plan — a binary hash pipeline, a
    Generic Join (tuple or batch), a Hash-Trie / Leapfrog / recursive
    baseline — over ``query``, whose atoms are either base-relation
    atoms (their structures come from ``index_specs``) or synthetic
    ``stage:<label>`` atoms fed by the correspondingly-labelled child
    stage's materialized output.  A flat request compiles to a single
    stage with no children; the unified planner may put a binary
    pipeline stage on top of a Generic Join child.  The execute stage
    runs children depth-first, wraps each child's rows as an
    intermediate :class:`~repro.storage.relation.Relation`, and then
    runs this stage's driver over base + intermediate relations — the
    Free Join / unified-architecture shape where binary pipeline stages
    and WCOJ sub-plans compose in one query.

    ``total_order`` is empty for a binary pipeline stage, whose order
    lives in ``atom_order`` instead.  ``engine`` is only meaningful for
    a generic stage and is resolved (``"tuple"`` or ``"batch"``);
    ``index`` is the kind the caller named, each spec's ``kind`` what
    gets built.  ``output`` is the stage's result schema, in emission
    order; a parent stage's synthetic atom carries exactly these
    attributes (RA308).  ``algorithm`` is always resolved — ``"auto"``
    and the ``"unified"`` label never name a stage (RA308).  ``choice``
    records the per-component hybrid optimizer rationale.
    """

    label: str
    algorithm: str
    query: JoinQuery
    output: tuple[str, ...]
    engine: str = ""
    index: str = ""
    total_order: tuple[str, ...] = ()
    atom_order: tuple[str, ...] = ()
    index_specs: tuple[IndexSpec, ...] = ()
    children: "tuple[PlanStage, ...]" = ()
    choice: "PlanChoice | None" = None
    engine_note: str = ""

    def describe(self, indent: int = 0) -> str:
        """The nested multi-line stage form (EXPLAIN / tests)."""
        lines = [("  " * indent) + f"- stage {self.label}: "
                 + _describe_head(self)]
        for child in self.children:
            lines.append(child.describe(indent + 1))
        return "\n".join(lines)


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
    """The compiled plan: a query-wide header over a :class:`PlanStage` tree.

    Everything execution needs except built indexes.  The header keeps
    what is true of the whole request: ``algorithm`` is what was asked
    once ``"auto"`` is resolved — a stage algorithm for a flat request,
    whose tree is the one stage ``root_stage``, or the display label
    ``"unified"`` for the planner that may split the query into several
    stages (and yields one where the query is all cyclic or all
    acyclic).  ``engine`` / ``index`` / ``engine_note`` are the asked
    and resolved Generic Join settings (a flat plan's are its root
    stage's), ``choice`` the hybrid optimizer's whole-query rationale
    when it ran (``algorithm="auto"`` / ``"unified"`` or a profiled
    run).  Orders and index specs live on the stages and nowhere else;
    ``total_order`` / ``atom_order`` / ``index_specs`` read the root
    stage's, and :meth:`iter_specs` walks the tree for the prepare stage.
    """

    query: JoinQuery
    algorithm: str
    root_stage: PlanStage
    engine: str = ""
    index: str = ""
    dynamic_seed: bool = True
    choice: "PlanChoice | None" = None
    sharding: "ShardingSpec | None" = None
    #: the plan stage's routing note — atoms the acyclic rule would give
    #: the binary pipeline, run on the batch Generic Join — also
    #: appended to ``choice.reason`` when the optimizer ran
    engine_note: str = ""

    @property
    def total_order(self) -> tuple[str, ...]:
        return self.root_stage.total_order

    @property
    def atom_order(self) -> tuple[str, ...]:
        return self.root_stage.atom_order

    @property
    def index_specs(self) -> tuple[IndexSpec, ...]:
        return self.root_stage.index_specs

    def spec_for(self, alias: str) -> IndexSpec:
        """The :class:`IndexSpec` prepared for atom ``alias``."""
        for spec in self.iter_specs():
            if spec.alias == alias:
                return spec
        raise KeyError(f"no index spec for alias {alias!r} in plan")

    def iter_specs(self):
        """Every :class:`IndexSpec` this plan needs built, walking the
        stage tree depth-first.  Atom aliases are query-unique, so the
        flattened specs key a single structures dict without collision.
        """
        stack = [self.root_stage]
        while stack:
            stage = stack.pop()
            yield from stage.index_specs
            stack.extend(stage.children)

    def describe(self) -> str:
        """Plan summary (CLI / EXPLAIN output).

        A flat plan is its one stage on one line; under the ``"unified"``
        label the header line is followed by the nested stage tree, one
        indented line per stage.
        """
        sharded = ("" if self.sharding is None
                   else f" {self.sharding.describe()}")
        if self.algorithm == "unified":
            head = _asked_and_built(self.algorithm, self.engine, self.index,
                                    self.engine_note)
            return f"{head}{sharded}\n{self.root_stage.describe(indent=1)}"
        return _describe_head(self.root_stage) + sharded


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
