"""In-memory relations.

A :class:`Relation` is a bag of equal-arity tuples with a
:class:`~repro.storage.schema.Schema`.  Storage is row-major (a list of
tuples) with lazily-built column views; at the scales this reproduction
targets, row-major keeps index builds (which consume whole tuples) simple
and fast, while the column views serve the workload generators and the
binary-join build sides.

Relations are *append-only*: the only mutations are the explicit
methods :meth:`Relation.insert` and :meth:`Relation.extend`, which bump
a **version counter** shared by every :meth:`~Relation.renamed` view of
the same storage.  ``(storage identity, version)`` —
:meth:`Relation.fingerprint` — is the cache key component the
session-scoped index cache (:mod:`repro.engine.cache`) uses to detect
that a cached index no longer reflects the relation; because rows are
only ever appended, the first ``n`` rows of any version are the first
``n`` rows of every later one, which is what lets that cache *merge*
the appended rows into a trie built at an older version instead of
rebuilding it (:meth:`Relation.snapshot` is its one consistent read).

Relations are the unit every join algorithm in :mod:`repro.joins` consumes;
the ``Relation`` here plays the role of the paper's ``Relation<IndexAdapter,
TableSchema, ...>`` template (Listing 1), minus the compile-time machinery:
the pairing of a relation with an index happens in
:class:`repro.joins.executor.JoinExecutor`.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Iterator, Sequence
from typing import NamedTuple

import numpy as np

from repro.errors import SchemaError
from repro.storage.schema import Schema


def _column_array(values: list) -> np.ndarray:
    """Column values as ``int64`` when every value is an integer that
    fits, else ``object``.

    The type test comes first: ``np.asarray(..., dtype=np.int64)`` alone
    would read ``"1"`` as 1 and truncate 1.5 to 1.  The object fallback
    is built element-wise — ``np.asarray`` on a mixed list would
    stringify or broadcast instead of holding the values.
    """
    if all(issubclass(kind, (int, np.integer))
           for kind in set(map(type, values))):
        try:
            return np.asarray(values, dtype=np.int64)
        except OverflowError:
            pass
    array = np.empty(len(values), dtype=object)
    array[:] = values
    return array


def _appended_array(array: np.ndarray, values: list) -> np.ndarray:
    """``array`` followed by ``values``, under :func:`_column_array`'s rule.

    A new array, never a write into ``array`` — readers holding the old
    one keep a consistent column of the old version.  When exactly one
    side is ``object`` the other is widened to it (the column's dtype
    class flips, or an object column receives plain integers).
    """
    tail = _column_array(values)
    if array.dtype != tail.dtype:
        array, tail = array.astype(object), tail.astype(object)
    return np.concatenate((array, tail))


class Snapshot(NamedTuple):
    """One consistent read of a relation (:meth:`Relation.snapshot`)."""

    version: int
    #: rows present at ``version``: ``relation.rows[:count]``, for good
    count: int
    #: column arrays of exactly those rows, in schema position order
    columns: tuple[np.ndarray, ...]


class Relation:
    """A named bag of tuples over a schema (append-only mutation)."""

    __slots__ = ("name", "schema", "_rows", "_arrays", "_dtype_classes",
                 "_version", "_mutlock")

    def __init__(self, name: str, schema: Schema | Sequence[str], rows: Iterable[tuple]):
        if not isinstance(schema, Schema):
            schema = Schema(schema)
        self.name = name
        self.schema = schema
        arity = len(schema)
        stored: list[tuple] = []
        for row in rows:
            row = tuple(row)
            if len(row) != arity:
                raise SchemaError(
                    f"relation {name!r}: tuple {row!r} has arity {len(row)}, "
                    f"schema expects {arity}"
                )
            stored.append(row)
        # the mutation lock serializes appends and lazy cache fills; like
        # the caches and version box it is shared across renamed views
        self._mutlock = threading.Lock()
        self._rows = stored                       # repro: shared[lock=_mutlock]
        # array caches and the version counter are *shared objects* across
        # renamed views (positions align), so a mutation through any view
        # moves every view's caches and fingerprint at once
        self._arrays: dict[int, np.ndarray] = {}  # repro: shared[lock=_mutlock]
        self._dtype_classes: dict[int, str] = {}  # repro: shared[lock=_mutlock]
        self._version: list[int] = [0]            # repro: shared[lock=_mutlock]

    # ------------------------------------------------------------------
    # Basic container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._rows)

    def __contains__(self, row: object) -> bool:
        return row in self._rows

    def __repr__(self) -> str:
        return f"Relation({self.name!r}, {self.schema.attributes}, {len(self)} tuples)"

    @property
    def arity(self) -> int:
        return len(self.schema)

    @property
    def rows(self) -> list[tuple]:
        """The backing row list.  Treat as read-only."""
        return self._rows

    # ------------------------------------------------------------------
    # Columnar access
    # ------------------------------------------------------------------
    def column(self, attribute: str) -> list:
        """All values of ``attribute``, in row order: a new list read
        from :meth:`column_array`."""
        return self.column_array(attribute).tolist()

    def column_array(self, attribute: str) -> np.ndarray:
        """``attribute``'s values as a numpy array, in row order.

        ``int64`` when every value fits, ``object`` dtype otherwise.  The
        array is materialized once per position and cached; renamed views
        share the cache (attribute names differ, positions do not), so the
        batch join engine, the workload generators and the statistics
        collector all see the same backing arrays.  Treat as read-only.
        """
        return self._array(self.schema.position(attribute))

    def columns(self) -> tuple[np.ndarray, ...]:
        """All columns as numpy arrays, in schema position order.

        One consistent read: every array has the same length, even with
        an :meth:`extend` racing the call (see :meth:`snapshot`).
        """
        return self.snapshot().columns

    def snapshot(self) -> Snapshot:
        """Version, row count and column arrays, read together.

        Taken under the mutation lock, so the three agree: ``columns``
        hold exactly the first ``count`` rows, which are the contents at
        ``version``.  The index cache keys a structure by this version
        and builds it from these rows — reading the fingerprint and the
        columns separately would let an :meth:`extend` slip in between
        and publish newer contents under the older key.
        """
        with self._mutlock:
            return Snapshot(self._version[0], len(self._rows),
                            tuple(self._filled_array(i)
                                  for i in range(self.arity)))

    def column_dtype_class(self, attribute: str) -> str:
        """``"int64"`` or ``"object"`` — the columnar-contract verdict.

        The verdict is cached alongside the column array (written with it
        under the mutation lock, on fill and on every append), so kernel
        callers can branch on the int64/object split without re-probing
        the array's dtype, and renamed views agree by construction.
        """
        position = self.schema.position(attribute)
        verdict = self._dtype_classes.get(position)
        if verdict is None:
            self._array(position)
            verdict = self._dtype_classes[position]
        return verdict

    def dtype_classes(self) -> tuple[str, ...]:
        """Per-column dtype-class verdicts, in schema position order."""
        return tuple(self.column_dtype_class(attribute)
                     for attribute in self.schema.attributes)

    def _array(self, position: int) -> np.ndarray:
        array = self._arrays.get(position)
        if array is None:
            with self._mutlock:
                array = self._filled_array(position)
        return array

    def _filled_array(self, position: int) -> np.ndarray:   # repro: borrows-lock[_mutlock]
        array = self._arrays.get(position)
        if array is None:
            array = _column_array([row[position] for row in self._rows])
            self._set_array(position, array)
        return array

    def _set_array(self, position: int, array: np.ndarray) -> None:   # repro: borrows-lock[_mutlock]
        self._arrays[position] = array
        # the dtype-class verdict rides along with the array: written
        # under the same lock, shared by the same renamed views
        self._dtype_classes[position] = (
            "int64" if array.dtype == np.int64 else "object")

    # ------------------------------------------------------------------
    # Mutation and cache identity
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Mutation counter, shared with every renamed view of this storage."""
        return self._version[0]

    def fingerprint(self) -> tuple[int, int]:
        """``(storage identity, version)`` — the index-cache key component.

        Two relations share a fingerprint iff they share backing rows
        *and* no mutation happened in between; any :meth:`insert` /
        :meth:`extend` through any view changes it.  The identity half is
        ``id()`` of the shared row list, which is stable for the life of
        the relation — cache entries keep the built index (and through it
        the relation) alive, so a fingerprint can never be recycled while
        an entry still carries it.
        """
        return (id(self._rows), self._version[0])

    def insert(self, row: tuple) -> None:
        """Append one tuple, bumping the shared version counter."""
        self.extend((row,))

    def extend(self, rows: Iterable[tuple]) -> None:
        """Append tuples, moving the fingerprint on.

        The array caches and version counter are shared with every
        renamed view, so all views observe the mutation consistently.
        Materialized column arrays are kept and grow by the appended
        rows' values (new arrays — a reader holding an old one keeps the
        old version's column).  A session-cached trie keyed on the old
        fingerprint stops matching; the next prepare merges the appended
        rows into it (or builds afresh) and drops it.
        """
        arity = self.arity
        appended = []
        for row in rows:
            row = tuple(row)
            if len(row) != arity:
                raise SchemaError(
                    f"relation {self.name!r}: tuple {row!r} has arity "
                    f"{len(row)}, schema expects {arity}"
                )
            appended.append(row)
        if not appended:
            return
        with self._mutlock:
            self._rows.extend(appended)
            for position, array in list(self._arrays.items()):
                self._set_array(position, _appended_array(
                    array, [row[position] for row in appended]))
            self._version[0] += 1

    # ------------------------------------------------------------------
    # Relational operations used by the join drivers and generators
    # ------------------------------------------------------------------
    def project(self, attributes: Sequence[str], name: str | None = None,
                distinct: bool = False) -> "Relation":
        """Projection onto ``attributes`` (optionally duplicate-eliminating)."""
        positions = self.schema.project_positions(attributes)
        projected = (tuple(row[i] for i in positions) for row in self._rows)
        if distinct:
            projected = dict.fromkeys(projected)
        return Relation(name or f"{self.name}_proj", Schema(attributes), projected)

    def select(self, predicate, name: str | None = None) -> "Relation":
        """Selection: keep rows where ``predicate(row)`` is true."""
        return Relation(name or f"{self.name}_sel", self.schema,
                        (row for row in self._rows if predicate(row)))

    def reordered(self, total_order: Sequence[str], name: str | None = None) -> "Relation":
        """Rows permuted so attributes align with ``total_order`` (§2.3.1).

        This is the preparation step every WCOJ index build performs: the
        returned relation lists each tuple's attributes in total-order
        sequence so that index levels correspond to total-order positions.
        """
        perm = self.schema.permutation_to(total_order)
        if perm == tuple(range(self.arity)):
            return self
        return Relation(name or self.name, self.schema.reordered(total_order),
                        (tuple(row[i] for i in perm) for row in self._rows))

    def renamed(self, attributes: Sequence[str], name: str | None = None) -> "Relation":
        """Zero-copy view with attributes renamed positionally.

        The join drivers use this to view a stored relation through an
        atom's query attributes (``E(src, dst)`` seen as ``E(a, b)``); the
        row list is shared, not copied.
        """
        if len(attributes) != self.arity:
            raise SchemaError(
                f"renaming {self.name!r} (arity {self.arity}) with "
                f"{len(attributes)} attribute names"
            )
        view = Relation.__new__(Relation)
        view.name = name or self.name
        view.schema = Schema(attributes)
        view._rows = self._rows
        # positions align, so the caches, version box and mutation lock
        # are shared — a write through any view is serialized with all
        view._arrays = self._arrays
        view._dtype_classes = self._dtype_classes
        view._version = self._version
        view._mutlock = self._mutlock
        return view

    def distinct(self, name: str | None = None) -> "Relation":
        """Duplicate-eliminated copy, preserving first-seen order."""
        return Relation(name or self.name, self.schema, dict.fromkeys(self._rows))

    def sorted(self, name: str | None = None) -> "Relation":
        """Copy with rows in lexicographic order (for LFTJ-style tries)."""
        return Relation(name or self.name, self.schema, sorted(self._rows))

    def sample_rows(self, count: int, rng) -> list[tuple]:
        """``count`` rows drawn uniformly with replacement using ``rng``."""
        if not self._rows:
            return []
        return [self._rows[rng.randrange(len(self._rows))] for _ in range(count)]
