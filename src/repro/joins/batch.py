"""Frontier-at-a-time Generic Join — the batch engine.

:class:`~repro.joins.generic_join.GenericJoin` is worst-case optimal but
tuple-at-a-time: every candidate value costs a handful of interpreted
method calls, so interpreter dispatch dominates long before the paper's
per-level intersection costs become measurable.  Free Join's vectorized
execution and Worst-Case Optimal Radix Triejoin (PAPERS.md) keep Alg. 1's
structure and carry the *whole binding frontier* as columns instead; this
driver is that execution model over
:class:`~repro.indexes.columnar.ColumnarTrie` structures.

The frontier is one int64 node-id column per atom (the trie node its
bound prefix leads to), plus the bound-value columns when the result is
materialised.  One level of the total order is, for a block of frontier
rows:

1. **degrees** — every participating atom's child count under each
   row's node, read off the trie's CSR ``indptr``;
2. **seed** — per row, the participant with the fewest children: the
   Alg. 1 line 9/10 size comparison on exact residual counts (its
   static-seed ablation runs on the tuple driver only);
3. **expand** — the seed's children of every row, laid out with
   ``repeat`` (one ``arange`` for a block from one frontier row);
4. **intersect** — one packed-key probe per other participant (Alg. 1
   line 15) over the previous one's survivors: a ``searchsorted``, or a
   slot-map gather or a bit test once the level has its probe aid; where
   the bits are exact, an atom's last level is not searched for its ids.

The expanded frontier is cut into blocks of :data:`BLOCK_ROWS` *expanded*
rows and the blocks are processed depth-first, so live intermediates are
bounded by depth x block however wide a level gets.  Rows and
per-level survivors are the tuple driver's, so a materialising run has
its per-level intermediate counts, and every configuration answers the
brute-force bag (``tests/joins/test_frontier_differential.py``).
Candidates match only where both pick the same seed: the tuple driver
sizes a participant by the tuples below its prefix
(``cursor.count()``), the frontier by its distinct children.

**Bags and codes.**  When a trie has ``weights`` (repeated rows,
:mod:`repro.indexes.columnar`) the frontier carries a weight column:
where an atom binds its trie's last level the row's multiplicity is
multiplied in (in Python ints once a product could pass 2**63), the
tail count multiplies it with subtree sizes that count repeats too, and
a materialising sink repeats each row by it.  Levels of dictionary
codes are decoded at a materialising sink.

**Counting stops where joining stops.**  The *tail* is the longest
suffix of the total order whose every level has exactly one participant:
nothing is intersected there, so expanding it only multiplies rows
(``connectivity_order`` already puts the degree-1 attributes last; a
pinned ``order=`` gets whatever suffix it has).  A counting run that
reaches the tail's first level finishes there: a frontier row stands for
``Π_atoms tuples_below(atom's node)`` results — 1 for an atom with no
level left, the trie's row count for one still at its root, otherwise
:meth:`~repro.indexes.columnar.ColumnarTrie.tuple_counts`, the paper's
``count_prefix`` (§3.1) over a column of prefixes, read off the row
``starts`` of the atom's last *bound* level — and the block adds the sum
of those products to the sink.  The product is taken in int64
only when ``rows x Π max count`` stays below 2**63; past that it is
accumulated in Python ints, so a count is exact however large.  Tail
levels report no candidates or survivors and add nothing to
``intermediate_tuples`` (a count is one lookup per row and atom), so in
counting mode those numbers sit below the tuple driver's whenever the
query has a private attribute; an enabled observer is told as
``frontier.tail_levels`` / ``frontier.tail_rows``.

**A run builds what it reads.**  A columnar trie materialises a level
the first time something descends into it, so the driver asks for level
``d`` of an atom (``at_depth(d + 1)``) when the recursion first gets
there, and the tail count asks for the levels bound so far and nothing
below them: a counting star builds one level of every satellite, a
materialising or cyclic run all of them.  The time those calls take
comes off this run's probe clock (and the enclosing levels' ``time_ns``)
and reaches ``metrics.build_seconds`` as the tries' pending build
charge; an enabled observer gets a ``build_index`` span with ``levels=``
per deepen and ``frontier.levels_built`` / ``frontier.levels_total`` —
the levels its tries hold when the run ends, of those they could.

Per-level ``candidates`` / ``survivors`` / ``seed_counts`` / ``time_ns``
cost O(1) per block, so they are always collected, through this one
path; an enabled observer is handed the same accumulators.

A serve read's blocks are tens of rows, so each numpy call costs about
its fixed overhead: the driver calls array methods and ufuncs only,
never a module-level wrapper (``np.repeat``, ``np.argmin``, ...) or
``ndarray.max`` / ``.sum`` / ``.all``, which run Python code inside
numpy first (``tests/joins/test_frontier_fixed_cost.py``).
"""

from __future__ import annotations

from collections.abc import Sequence
from math import prod

import numpy as np

from repro.indexes.columnar import ColumnarTrie
from repro.joins.results import JoinMetrics, JoinResult, Stopwatch, make_sink
from repro.obs.observer import NULL_OBSERVER
from repro.planner.query import JoinQuery

#: expanded frontier rows per block.  Warm ms with probe aids, 30k-edge
#: triangle / power-law 4-clique, median of 61 interleaved rounds on two
#: x86-64 cores: 4 096 rows 16.1 / 46.4, 8 192 14.3 / 41.1, 16 384 13.2
#: / 35.2, 32 768 15.0 / 35.5.  Below ~8k rows the ~20-30 numpy calls
#: per block dominate (5 lay out a block from one frontier row, 11 any
#: other, 9-26 per probe).  No size beats 8 192 past its quartiles on the
#: triangle (12.0-14.9 ms; on the 4-clique 16k and 32k do), so it stays,
#: at half the memory of the next size up.
BLOCK_ROWS = 8192


def _sum_of_products(columns: list, rows: int) -> int:
    """``Σ_i Π_c columns[c][i]`` over ``rows`` rows, exact: int64 while
    ``rows × Π max`` stays below 2**63, Python ints past it.  Overwrites
    ``columns[0]``."""
    if not columns:
        return rows
    bound = rows
    for column in columns:
        bound *= int(np.maximum.reduce(column))
    if bound < 2 ** 63 and all(column.dtype == np.int64
                               for column in columns):
        product = columns[0]
        for column in columns[1:]:
            product *= column
        return int(np.add.reduce(product))
    return sum(map(prod, zip(*(column.tolist() for column in columns))))


def _weighed(weight: "np.ndarray | None", counts: np.ndarray) -> np.ndarray:
    """A weight column times one atom's row multiplicities — in Python
    ints once a product could pass 2**63."""
    if weight is None:
        return counts
    peak = int(np.maximum.reduce(weight)) * int(np.maximum.reduce(counts))
    if peak < 2 ** 63:
        return weight * counts
    return weight.astype(object) * counts


class FrontierProgram:
    """What a frontier run does, fixed by the plan and its tries' shape.

    Everything :class:`GenericJoinBatch` derives before it touches a
    row — the total order, each level's participants and the atoms whose
    multiplicities it weighs, the tail, the atoms still open where the
    tail begins, the per-level decoders — is a function of the query,
    the order, each atom's attribute order, and three facts per trie:
    its arity, whether it has ``weights`` and its ``decoders``.  A
    program computes that once and is shared by every run over tries of
    that shape (a :class:`~repro.engine.prepared.PreparedJoin` keeps one
    per shape, a :class:`~repro.engine.session.Session` one per shape
    and cached plan).  It holds no trie: the tries a run reads are
    handed to the run.
    """

    __slots__ = ("query", "order", "aliases", "participants", "weighs",
                 "weighted", "decoders", "tail", "tail_atoms", "labels")

    def __init__(self, query: JoinQuery, order: Sequence[str],
                 attribute_orders: Sequence[Sequence[str]],
                 tries: Sequence[ColumnarTrie]):
        self.query = query
        #: the plan's total order, checked by the plan stage
        self.order: tuple[str, ...] = tuple(order)
        #: atom aliases in ``query.atoms`` order; a run's tries and the
        #: frontier's node columns are indexed by it
        self.aliases: tuple[str, ...] = tuple(a.alias for a in query.atoms)
        alias_id = {alias: i for i, alias in enumerate(self.aliases)}
        #: does a trie weigh repeated rows?  Then the frontier carries a
        #: weight column after its node columns
        self.weighted = any(trie.weights is not None for trie in tries)
        #: per level of the total order: ``(atom id, trie depth, keep the
        #: node ids)`` of every atom binding the attribute — kept where
        #: the trie has deeper levels, or where this last level weighs a
        #: repeated row
        participants = []
        #: per level, the positions (into its participant list) of the
        #: atoms whose row multiplicities the level multiplies in
        weighs = []
        for attribute in self.order:
            level, weighing = [], []
            for atom in query.atoms_with(attribute):
                atom_id = alias_id[atom.alias]
                trie = tries[atom_id]
                depth = tuple(attribute_orders[atom_id]).index(attribute)
                last = depth + 1 == trie.arity
                if last and trie.weights is not None:
                    weighing.append(len(level))
                level.append((atom_id, depth,
                              not last or trie.weights is not None))
            participants.append(tuple(level))
            weighs.append(tuple(weighing))
        self.participants = tuple(participants)
        self.weighs = tuple(weighs)
        #: per level, the dictionary whose codes it binds (None: plain
        #: values) — empty when no level is coded
        decoders = tuple(tries[level[0][0]].decoders[level[0][1]]
                         for level in self.participants)
        self.decoders = (decoders if any(d is not None for d in decoders)
                         else ())
        #: first level of the tail (see module docstring); ``len(order)``
        #: when the last attribute joins something
        tail = len(self.order)
        while tail and len(self.participants[tail - 1]) == 1:
            tail -= 1
        self.tail = tail
        #: ``(atom id, levels bound before the tail)`` of every atom that
        #: still has levels left where the tail begins
        head = set(self.order[:tail])
        tail_atoms = []
        for atom_id, attributes in enumerate(attribute_orders):
            done = len(head.intersection(attributes))
            if done < len(attributes):
                tail_atoms.append((atom_id, done))
        self.tail_atoms = tuple(tail_atoms)
        #: per level, the participants' aliases (the profile's labels)
        self.labels = tuple(tuple(self.aliases[atom] for atom, _, _ in level)
                            for level in self.participants)


class GenericJoinBatch:
    """Generic Join over columnar tries, a block of bindings at a time.

    One run of a :class:`FrontierProgram` over ``tries`` — one
    :class:`~repro.indexes.columnar.ColumnarTrie` per atom, in the
    program's alias order, of the shape it was compiled for.  The tries'
    published levels are only read (a trie appends missing ones under
    its own lock), so one prepared set serves any number of concurrent
    runs; everything a run writes lives on the driver.
    """

    def __init__(self, program: FrontierProgram,
                 tries: Sequence[ColumnarTrie], obs=None):
        self.program = program
        self.query = program.query
        self.order = program.order
        self._tries = tries
        self.metrics = JoinMetrics(algorithm="generic_join_batch",
                                   index=ColumnarTrie.NAME)
        self.obs = obs if obs is not None else NULL_OBSERVER

    # ------------------------------------------------------------------
    def run(self, materialize: bool = False) -> JoinResult:
        """Execute the join phase (tries must already be built)."""
        program = self.program
        self._sink = sink = make_sink(materialize)
        self._materialize = materialize
        watch = Stopwatch()
        obs = self.obs
        self._stats = obs.init_levels(self.order, program.labels)
        self._blocks = self._live = self._peak = self._tail_rows = 0
        #: per atom, how many of its trie's levels the run has asked for
        #: (-1: not touched yet)
        self._ready = [-1] * len(self._tries)
        self._build_ns = 0
        #: the level a counting run is finished at from subtree sizes
        self._counted_from = len(self.order) if materialize else program.tail
        # the root binding: one row, every atom at its trie's root (and
        # a weight of one)
        columns = len(self._tries) + 1 if program.weighted \
            else len(self._tries)
        with obs.tracer.span("probe", algorithm="generic_join_batch",
                             engine="batch"):
            self._join_level(0, [None] * columns, [], 1)
        if obs.enabled:
            obs.metrics.inc("frontier.blocks", self._blocks)
            obs.metrics.inc("frontier.peak_rows", self._peak)
            obs.metrics.inc("frontier.tail_levels",
                            len(self.order) - self._counted_from)
            obs.metrics.inc("frontier.tail_rows", self._tail_rows)
            levels = [(trie.built_depth, trie.arity)
                      for trie in self._tries]
            obs.trie_levels.update(zip(program.aliases, levels))
            obs.metrics.inc("frontier.levels_built",
                            sum(built for built, _ in levels))
            obs.metrics.inc("frontier.levels_total",
                            sum(arity for _, arity in levels))
            obs.metrics.inc("frontier.probe_aids", sum(
                sum(map(bool, trie._aids)) for trie in self._tries))
        self.metrics.probe_seconds += watch.lap() - self._build_ns * 1e-9
        self.metrics.result_count = sink.count
        return JoinResult(attributes=self.order, sink=sink, metrics=self.metrics)

    # ------------------------------------------------------------------
    def _materialise(self, level: int, atom: int, depth: int) -> None:
        """First time this run needs ``depth`` levels of ``atom``'s trie:
        ask for them.  The call builds whichever are missing,
        and building is not probing: its time comes off the probe clock
        and off levels ``..level``'s inclusive times (the trie reports it
        as a pending build charge, §5.15)."""
        trie = self._tries[atom]
        before = trie.built_depth
        if depth <= before:
            # a warm run: the levels are there, nothing to time
            self._ready[atom] = before
            return
        t0 = Stopwatch.now_ns()
        trie.at_depth(depth)
        spent = Stopwatch.now_ns() - t0
        self._ready[atom] = trie.built_depth
        self._build_ns += spent
        for stats in self._stats[:level + 1]:
            stats.time_ns -= spent
        levels = trie.built_depth - before
        obs = self.obs
        if levels and obs.enabled:
            alias = self.program.aliases[atom]
            obs.build_ns[alias] = obs.build_ns.get(alias, 0) + spent
            obs.tracer.add_span("build_index", t0, spent, alias=alias,
                                index=trie.NAME, tuples=len(trie),
                                levels=levels)

    def _join_level(self, level: int, nodes: list, bound: list,
                    rows: int) -> None:
        """Bind attribute ``level`` for a block of ``rows`` frontier rows.

        ``nodes[atom]`` is the block's node-id column for that atom —
        ``None`` while the atom is still at its root (or has no levels
        left) — and, when the frontier is weighted, ``nodes[-1]`` its
        weight column (``None``: every row weighs one); ``bound`` holds
        the block's value columns, in total order, when materialising.
        """
        if level == self._counted_from:
            self._count_tail(nodes, rows)
            return
        stats = self._stats[level]
        t0 = Stopwatch.now_ns()
        participants = self.program.participants[level]
        self.metrics.lookups += rows * len(participants)
        tries, starts, counts = [], [], []
        for atom, depth, _ in participants:
            if self._ready[atom] <= depth:
                self._materialise(level, atom, depth + 1)
            trie = self._tries[atom]
            parents = nodes[atom]
            start, end = trie.child_ranges(depth, parents)
            if parents is None and rows > 1:
                # the root's one range stands for every row of the block
                start = start.repeat(rows)
            count = end - start
            tries.append(trie)
            starts.append(start)
            counts.append(count)
        if len(participants) == 1:
            self._expand(level, 0, None, tries, starts[0], counts[0],
                         nodes, bound)
        else:
            seeds = np.array(counts).argmin(axis=0)
            for position in range(len(participants)):
                chosen = (seeds == position).nonzero()[0]
                if chosen.size == rows:
                    chosen = None
                elif chosen.size == 0:
                    continue
                self._expand(level, position, chosen, tries,
                             starts[position], counts[position], nodes, bound)
                if chosen is None:
                    break
        stats.time_ns += Stopwatch.now_ns() - t0

    def _count_tail(self, nodes: list, rows: int) -> None:
        """Finish a counting block where the tail begins: every row
        stands for its weight times the product, over the atoms with
        levels left, of the tuples below the row's node, and the block
        for their sum."""
        t0 = Stopwatch.now_ns()
        self._tail_rows += rows
        program = self.program
        whole = 1           # atoms still at their root, as a Python int
        columns = []
        for atom, done in program.tail_atoms:
            # the levels bound so far: their row starts hold the counts
            if self._ready[atom] < done:
                self._materialise(program.tail, atom, done)
            trie = self._tries[atom]
            if done == 0:
                whole *= trie.tuples
            else:
                columns.append(trie.tuple_counts(done - 1, nodes[atom]))
        self.metrics.lookups += rows * len(columns)
        if program.weighted and nodes[-1] is not None:
            columns.append(nodes[-1])
        self._sink.emit_columns((), _sum_of_products(columns, rows) * whole)
        self._stats[program.tail].time_ns += Stopwatch.now_ns() - t0

    def _expand(self, level: int, position: int,
                chosen: "np.ndarray | None", tries: list, starts: np.ndarray,
                counts: np.ndarray, nodes: list, bound: list) -> None:
        """Expand the rows seeded by participant ``position`` (``chosen``;
        ``None``: the whole block), a block of expanded rows at a time."""
        if chosen is not None:
            starts, counts = starts[chosen], counts[chosen]
        stats = self._stats[level]
        program = self.program
        seed_alias = program.aliases[program.participants[level][position][0]]
        stats.seed_counts[seed_alias] += len(counts)
        ends = counts.cumsum()
        total = int(ends[-1])
        stats.candidates += total
        if total == 0:
            return
        # expanded row e of frontier row r is child ``e - begins[r]`` of
        # its node: node id ``starts[r] + e - begins[r]``
        shifts = starts - ends
        shifts += counts
        enabled = self.obs.enabled
        for low in range(0, total, BLOCK_ROWS):
            high = min(low + BLOCK_ROWS, total)
            first = int(ends.searchsorted(low, side="right"))
            if ends[first] >= high:
                # every row is a child of frontier row ``first``
                shift = int(shifts[first])
                children = np.arange(low + shift, high + shift)
                source = np.arange(first, first + 1).repeat(high - low)
            else:
                last = int(ends.searchsorted(high, side="left"))
                spread = counts[first:last + 1].copy()
                spread[0] = int(ends[first]) - low
                spread[-1] = high - int(ends[last]) + int(counts[last])
                source = np.arange(first, last + 1).repeat(spread)
                children = shifts[first:last + 1].repeat(spread)
                children += np.arange(low, high)
            if chosen is not None:
                source = chosen[source]
            size = high - low
            self._blocks += 1
            self._live += size
            if self._live > self._peak:
                self._peak = self._live
            if enabled:
                self.obs.metrics.observe("frontier.rows", size)
            self._intersect(level, position, tries, source, children,
                            nodes, bound)
            self._live -= size

    def _intersect(self, level: int, position: int, tries: list,
                   source: np.ndarray, children: np.ndarray, nodes: list,
                   bound: list) -> None:
        """Probe one expanded block through the other participants and
        hand the survivors to the next level (or the sink).

        ``source[i]`` is the frontier row expanded row ``i`` came from,
        ``children[i]`` the seed's node it stands on.
        """
        participants = self.program.participants[level]
        seed_atom, seed_depth, seed_keeps = participants[position]
        values = tries[position].values[seed_depth][children]
        #: node-id columns of the participants whose ids are kept
        kept = {seed_atom: children} if seed_keeps else {}
        for other, (atom, depth, keeps) in enumerate(participants):
            if other == position:
                continue
            parents = nodes[atom]
            if parents is not None:
                parents = parents[source]
            found, ids = tries[other].probe(depth, parents, values, keeps)
            if keeps:
                kept[atom] = ids
            alive = found.nonzero()[0]
            if alive.size < found.size:
                if alive.size == 0:
                    return
                values = values[alive]
                source = source[alive]
                for key, column in kept.items():
                    kept[key] = column[alive]
        survivors = int(values.size)
        self._stats[level].survivors += survivors
        self.metrics.intermediate_tuples += survivors

        weight = None
        if self.program.weighted:
            weight = nodes[-1]
            if weight is not None:
                weight = weight[source]
            for weighing in self.program.weighs[level]:
                atom, depth, _ = participants[weighing]
                weight = _weighed(weight, tries[weighing].tuple_counts(
                    depth, kept.pop(atom)))
        if self._materialize:
            bound = [column[source] for column in bound]
            bound.append(values)
        if level + 1 == len(self.order):
            self._emit(bound, survivors, weight)
            return
        following = [None] * len(nodes)
        for atom, column in enumerate(nodes):
            if column is not None:
                following[atom] = column[source]
        for atom, _, _ in participants:
            following[atom] = kept.get(atom)
        if weight is not None:
            following[-1] = weight
        self._join_level(level + 1, following, bound, survivors)

    def _emit(self, bound: list, rows: int, weight) -> None:
        """Hand a finished block to the sink: each row ``weight`` times
        (``None``: once), coded values decoded."""
        if weight is not None:
            if not self._materialize:
                self._sink.emit_columns((), _sum_of_products([weight], rows))
                return
            bound = [column.repeat(weight) for column in bound]
            rows = len(bound[0])
        decoders = self.program.decoders
        if decoders:
            bound = [column if codes is None else codes.decode(column)
                     for column, codes in zip(bound, decoders)]
        self._sink.emit_columns(bound, rows)
