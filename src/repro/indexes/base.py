"""Common interface for every index structure in the study.

The paper's C++ framework (§4.1) accepts "any index … as long as it
provides the required operations".  The required operations (§3.1) are:

* ``insert`` — add one tuple,
* *point lookup* — is this exact tuple present?
* *prefix lookup* — enumerate all stored tuples matching a key prefix,
* *count prefix* — how many stored tuples match a key prefix?

:class:`TupleIndex` is the Python rendering of that contract.  Structures
that cannot answer prefix queries (plain hash sets, Robin Hood maps — the
point-lookup-only group in §5.4) raise
:class:`~repro.errors.UnsupportedOperationError` from the prefix methods and
advertise it via :attr:`TupleIndex.SUPPORTS_PREFIX`, exactly mirroring the
paper's exclusion of those structures from the prefix experiments.

Indexes are keyed by *position*: an index of arity ``k`` stores ``k``-ary
tuples whose components are already permuted into the query's total order
(see :meth:`repro.storage.relation.Relation.reordered`).  Mapping attribute
names to positions is the adapter's job, not the index's.
"""

from __future__ import annotations

import abc
from collections.abc import Iterable, Iterator, Sequence
from typing import ClassVar

import numpy as np

from repro.errors import SchemaError, UnsupportedOperationError

#: shared empty candidate array (int64, the common key dtype)
EMPTY_VALUES: np.ndarray = np.empty(0, dtype=np.int64)


def value_array(values: "Sequence | np.ndarray") -> np.ndarray:
    """A 1-d array over join values: int64 when possible, else object.

    Join keys are ints in every generator in this repository and strings in
    the var-len experiments; a column never mixes the two.  ``np.asarray``
    would silently stringify ints if it ever saw a mix, so any non-numeric
    result that is not genuinely string data falls back to an object array
    (python comparison semantics, exactly what sorted containers use).
    """
    if isinstance(values, np.ndarray):
        return values
    seq = values if isinstance(values, (list, tuple)) else list(values)
    if not seq:
        return EMPTY_VALUES
    arr = np.asarray(seq)
    if arr.ndim != 1 or (arr.dtype.kind not in "iufb" and not isinstance(seq[0], str)):
        arr = np.empty(len(seq), dtype=object)
        arr[:] = seq
    return arr


def bulk_columns(arity: int, columns: "Sequence") -> list[np.ndarray]:
    """Validate a columnar build input: ``arity`` equal-length 1-d arrays.

    Each column is normalized through :func:`value_array` (int64 / string /
    object, never a silently-stringified mix), so every ``build_bulk``
    implementation sees the same canonical dtypes the probe kernels do.
    """
    arrays = [value_array(column) for column in columns]
    if len(arrays) != arity:
        raise SchemaError(
            f"columnar build got {len(arrays)} columns for arity {arity}"
        )
    if len({len(array) for array in arrays}) > 1:
        raise SchemaError(
            "columnar build got ragged columns: lengths "
            f"{[len(array) for array in arrays]}"
        )
    return arrays


#: dtype kinds with a total order consistent with python comparisons
_SORTABLE_KINDS = frozenset("iufbU")


def sorted_unique_rows(arrays: "Sequence[np.ndarray]") -> "list[tuple] | None":
    """Lexicographically sorted, duplicate-free row tuples from columns.

    The vectorized path (one ``np.lexsort`` plus a shifted-comparison
    dedupe) runs whenever every column's dtype admits a total order that
    matches python's; otherwise the rows are python-sorted, and ``None``
    is returned when even that fails (cross-type values with no ordering)
    so callers can keep the per-row insert path, which never compares
    values across tuples.
    """
    if not arrays or len(arrays[0]) == 0:
        return []
    if all(array.dtype.kind in _SORTABLE_KINDS for array in arrays):
        # lexsort's *last* key is primary, so feed the columns reversed
        order = np.lexsort(tuple(arrays[::-1]))
        cols = [array[order] for array in arrays]
        distinct = np.zeros(len(order) - 1, dtype=bool)
        for col in cols:
            distinct |= col[1:] != col[:-1]
        if not distinct.all():
            keep = np.empty(len(order), dtype=bool)
            keep[0] = True
            keep[1:] = distinct
            cols = [col[keep] for col in cols]
        return list(zip(*(col.tolist() for col in cols)))
    try:
        return sorted(set(zip(*(column.tolist() for column in arrays))))
    except TypeError:
        return None


class TupleIndex(abc.ABC):
    """Abstract base for all tuple indexes in :mod:`repro.indexes`.

    Subclasses set two class attributes consumed by the benchmark harness
    and the join executor:

    * :attr:`NAME` — the registry key (``"sonic"``, ``"btree"``, …).
    * :attr:`SUPPORTS_PREFIX` — whether prefix lookup / count prefix work.
    """

    NAME: ClassVar[str] = "abstract"
    SUPPORTS_PREFIX: ClassVar[bool] = True
    #: does :meth:`build_bulk` take a vectorized columnar fast path?
    #: Every index accepts ``build_bulk`` (the default re-rows the columns
    #: and inserts per tuple); adapters consult this flag to decide whether
    #: handing whole columns over is worth materializing them.
    SUPPORTS_BULK_BUILD: ClassVar[bool] = False

    def __init__(self, arity: int):
        if arity < 1:
            raise SchemaError(f"index arity must be >= 1, got {arity}")
        self.arity = arity
        self._size = 0

    # ------------------------------------------------------------------
    # Required operations (§3.1)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def insert(self, row: tuple) -> None:
        """Insert one tuple of exactly :attr:`arity` components.

        Duplicate inserts are idempotent for membership but implementations
        may count them in prefix counters if the source relation is a bag;
        all generators in this repository produce sets, and the join
        algorithms assume set semantics.
        """

    @abc.abstractmethod
    def contains(self, row: tuple) -> bool:
        """Point lookup: is the exact tuple present?"""

    def prefix_lookup(self, prefix: tuple) -> Iterator[tuple]:
        """Enumerate stored tuples whose first ``len(prefix)`` components equal ``prefix``.

        The order of enumeration is implementation-defined.  ``prefix`` may
        have any length from 0 (enumerate everything) to :attr:`arity`
        (point lookup returning zero or one tuple).
        """
        raise UnsupportedOperationError(
            f"{type(self).__name__} does not support prefix lookups"
        )

    def count_prefix(self, prefix: tuple) -> int:
        """Number of stored tuples matching ``prefix`` (see :meth:`prefix_lookup`)."""
        raise UnsupportedOperationError(
            f"{type(self).__name__} does not support prefix counting"
        )

    def has_prefix(self, prefix: tuple) -> bool:
        """Does at least one stored tuple match ``prefix``?

        Asks :meth:`prefix_lookup` for a first match: the descent test
        of :class:`FallbackCursor`, the cursor of indexes without a
        native one.
        """
        for _ in self.prefix_lookup(prefix):
            return True
        return False

    def iter_next_values(self, prefix: tuple) -> Iterator:
        """Distinct values of component ``len(prefix)`` among matching tuples.

        Projects and deduplicates :meth:`prefix_lookup`: the child values
        of :class:`FallbackCursor`, the cursor of indexes without a
        native one.
        """
        position = len(prefix)
        if position >= self.arity:
            raise SchemaError(
                f"no component after a length-{position} prefix in an "
                f"arity-{self.arity} index"
            )
        seen = set()
        for row in self.prefix_lookup(prefix):
            value = row[position]
            if value not in seen:
                seen.add(value)
                yield value

    # ------------------------------------------------------------------
    # Bulk operations and bookkeeping
    # ------------------------------------------------------------------
    def build(self, rows: Iterable[tuple]) -> None:
        """Build the index by inserting every row (the paper's build phase)."""
        for row in rows:
            self.insert(row)

    def build_bulk(self, columns: "Sequence") -> None:
        """Build from per-component columns (the columnar build contract).

        ``columns`` holds one equal-length sequence/array per component,
        already permuted into this index's attribute order.  Set semantics
        match :meth:`build`: duplicates collapse, values round-trip through
        :func:`value_array` canonicalization.  The default re-rows the
        columns and inserts per tuple; indexes advertising
        :attr:`SUPPORTS_BULK_BUILD` override with a vectorized path.
        """
        self._insert_columns(bulk_columns(self.arity, columns))

    def _insert_columns(self, arrays: "Sequence[np.ndarray]") -> None:
        """Row-wise fallback shared by every ``build_bulk`` implementation."""
        if not arrays or len(arrays[0]) == 0:
            return
        for row in zip(*(column.tolist() for column in arrays)):
            self.insert(row)

    def __len__(self) -> int:
        """Number of distinct tuples stored."""
        return self._size

    def __contains__(self, row: object) -> bool:
        return isinstance(row, tuple) and self.contains(row)

    def memory_usage(self) -> int:
        """Estimated resident bytes of the structure (Fig 18).

        Implementations report the bytes their *design* would occupy in a
        native implementation (array slots, node headers, pointers at 8 B),
        not Python object overhead — the quantity the paper plots.
        """
        raise UnsupportedOperationError(
            f"{type(self).__name__} does not report memory usage"
        )

    # ------------------------------------------------------------------
    # Validation helpers shared by subclasses
    # ------------------------------------------------------------------
    def _check_row(self, row: tuple) -> tuple:
        if len(row) != self.arity:
            raise SchemaError(
                f"{type(self).__name__}(arity={self.arity}) got tuple of "
                f"length {len(row)}: {row!r}"
            )
        return row

    def _check_prefix(self, prefix: tuple) -> tuple:
        if len(prefix) > self.arity:
            raise SchemaError(
                f"prefix of length {len(prefix)} longer than index arity {self.arity}"
            )
        return prefix


    def cursor(self) -> "PrefixCursor":
        """A stateful descent cursor over the index's prefix hierarchy.

        This is the probe interface the Generic Join actually drives: it
        binds one attribute at a time and needs O(1)-ish *incremental*
        steps (descend into a child, back up) rather than root-to-leaf
        re-probes per binding — the cost model behind the paper's Alg. 3.
        The default wraps the index's prefix operations; hierarchical
        structures override with a native cursor.
        """
        if not self.SUPPORTS_PREFIX:
            raise UnsupportedOperationError(
                f"{type(self).__name__} does not support prefix descent"
            )
        return FallbackCursor(self)


class PrefixCursor(abc.ABC):
    """Incremental descent through an index's prefix hierarchy.

    A cursor sits at a *node*: the set of stored tuples matching the
    component values bound so far (the root matches everything).  The
    Generic Join drives exactly four operations:

    * :meth:`try_descend` — bind the next component to a value; returns
      whether the subtree is (apparently) non-empty.  Implementations may
      report rare false positives at inner depths (Sonic's patch
      ambiguity, §3.3); they must be exact at the final depth, where the
      stored payload is available for verification.
    * :meth:`ascend` — undo the most recent successful descend.
    * :meth:`child_values` — the distinct candidate values for the next
      component (may include the same rare false positives; never
      duplicates).
    * :meth:`count` — (possibly approximate) number of tuples below the
      current node; advisory, used for seed selection only.
    """

    __slots__ = ()

    @abc.abstractmethod
    def try_descend(self, value) -> bool:
        """Bind the next component to ``value``; True if non-empty."""

    @abc.abstractmethod
    def ascend(self) -> None:
        """Pop the most recent binding."""

    @abc.abstractmethod
    def child_values(self):
        """Iterator over distinct next-component candidates."""

    @abc.abstractmethod
    def count(self) -> int:
        """Advisory size of the current subtree."""

    @property
    @abc.abstractmethod
    def depth(self) -> int:
        """Number of components currently bound."""


class FallbackCursor(PrefixCursor):
    """Cursor over any prefix-capable index's whole-prefix operations.

    Correct for every :class:`TupleIndex`; each step re-probes from the
    root (O(depth) per step), which is what structures without a native
    cursor can offer.
    """

    __slots__ = ("_index", "_prefix")

    def __init__(self, index: TupleIndex):
        self._index = index
        self._prefix: list = []

    def try_descend(self, value) -> bool:
        self._prefix.append(value)
        if self._index.has_prefix(tuple(self._prefix)):
            return True
        self._prefix.pop()
        return False

    def ascend(self) -> None:
        self._prefix.pop()

    def child_values(self):
        return self._index.iter_next_values(tuple(self._prefix))

    def count(self) -> int:
        return self._index.count_prefix(tuple(self._prefix))

    @property
    def depth(self) -> int:
        return len(self._prefix)


class PointIndex(TupleIndex):
    """Convenience base for point-lookup-only structures (hash set group)."""

    SUPPORTS_PREFIX: ClassVar[bool] = False
