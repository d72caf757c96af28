"""Conjunctive (natural-join) queries.

A join query is a set of *atoms*, each naming a relation and the query
attributes its columns bind — the datalog-style notation the paper's
Listing 1 encodes through ``AttributeIndex`` template parameters
("attributes with the same ID are joined").  ``triangle: R(a,b), S(b,c),
T(c,a)`` is the paper's running example.

:func:`parse_query` accepts that textual form; programmatic construction
goes through :class:`Atom`/:class:`JoinQuery` directly.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.errors import QueryError

_ATOM_RE = re.compile(r"\s*(\w+)\s*\(([^)]*)\)\s*")


@dataclass(frozen=True)
class Atom:
    """One relation occurrence: ``relation(attr_1, …, attr_n)``.

    ``alias`` distinguishes repeated occurrences of the same stored
    relation (self-joins), e.g. the three edge-relation copies of a
    triangle query.  It defaults to the relation name.
    """

    relation: str
    attributes: tuple[str, ...]
    alias: str = ""

    def __post_init__(self):
        if not self.attributes:
            raise QueryError(f"atom over {self.relation!r} binds no attributes")
        if len(set(self.attributes)) != len(self.attributes):
            raise QueryError(
                f"atom {self.relation}{self.attributes} repeats an attribute; "
                f"pre-filter the relation instead"
            )
        if not self.alias:
            object.__setattr__(self, "alias", self.relation)

    @property
    def arity(self) -> int:
        return len(self.attributes)

    def __str__(self) -> str:
        body = ", ".join(self.attributes)
        if self.alias != self.relation:
            return f"{self.alias}={self.relation}({body})"
        return f"{self.relation}({body})"


class JoinQuery:
    """A natural join of atoms: ``Q = ⋈_e R_e`` (§2.1)."""

    def __init__(self, atoms: Iterable[Atom]):
        atoms = tuple(atoms)
        if not atoms:
            raise QueryError("a join query needs at least one atom")
        aliases = [a.alias for a in atoms]
        if len(set(aliases)) != len(aliases):
            raise QueryError(f"duplicate atom aliases: {aliases} "
                             f"(give self-join occurrences distinct aliases)")
        self.atoms = atoms
        seen: dict[str, None] = {}
        for atom in atoms:
            for attribute in atom.attributes:
                seen.setdefault(attribute)
        #: all query attributes, in first-appearance order (the paper's V)
        self.attributes: tuple[str, ...] = tuple(seen)

    def __len__(self) -> int:
        return len(self.atoms)

    def __iter__(self):
        return iter(self.atoms)

    def __str__(self) -> str:
        return " ⋈ ".join(str(a) for a in self.atoms)

    def atom_by_alias(self, alias: str) -> Atom:
        """The atom registered under ``alias``; raises if unknown."""
        for atom in self.atoms:
            if atom.alias == alias:
                return atom
        raise QueryError(f"no atom with alias {alias!r} in {self}")

    def attributes_of(self, alias: str) -> tuple[str, ...]:
        """Attributes bound by the atom ``alias``."""
        return self.atom_by_alias(alias).attributes

    def atoms_with(self, attribute: str) -> list[Atom]:
        """All atoms binding ``attribute``."""
        return [a for a in self.atoms if attribute in a.attributes]


def parse_query(text: str) -> JoinQuery:
    """Parse ``"R(a,b), S(b,c), T(c,a)"`` into a :class:`JoinQuery`.

    Self-joins may use ``alias=Relation(attrs)``:
    ``"E1=edges(a,b), E2=edges(b,c), E3=edges(c,a)"``.
    """
    atoms = []
    for piece in _split_atoms(text):
        alias = ""
        if "=" in piece.split("(", 1)[0]:
            alias, piece = piece.split("=", 1)
            alias = alias.strip()
        match = _ATOM_RE.fullmatch(piece)
        if not match:
            raise QueryError(f"cannot parse atom {piece!r}")
        relation, body = match.groups()
        attributes = tuple(a.strip() for a in body.split(",") if a.strip())
        atoms.append(Atom(relation, attributes, alias=alias or relation))
    return JoinQuery(atoms)


def _split_atoms(text: str) -> list[str]:
    """Split on commas *outside* parentheses."""
    pieces = []
    depth = 0
    current = []
    for char in text:
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
            if depth < 0:
                raise QueryError(f"unbalanced parentheses in query {text!r}")
        if char == "," and depth == 0:
            pieces.append("".join(current))
            current = []
        else:
            current.append(char)
    if depth:
        raise QueryError(f"unbalanced parentheses in query {text!r}")
    last = "".join(current).strip()
    if last:
        pieces.append(last)
    if not pieces:
        raise QueryError(f"empty query text {text!r}")
    return pieces


def cycle_query(length: int, relation: str = "E",
                attribute_prefix: str = "v") -> JoinQuery:
    """The ``length``-cycle query over a binary edge relation (§5.14).

    ``cycle_query(3)`` is the triangle query
    ``E1=E(v0,v1), E2=E(v1,v2), E3=E(v2,v0)``; lengths 4 and 5 give the
    paper's rectangle and pentagon cycle-counting workloads (Fig 14).
    """
    if length < 2:
        raise QueryError(f"cycles need length >= 2, got {length}")
    atoms = []
    for i in range(length):
        a = f"{attribute_prefix}{i}"
        b = f"{attribute_prefix}{(i + 1) % length}"
        atoms.append(Atom(relation, (a, b), alias=f"{relation}{i + 1}"))
    return JoinQuery(atoms)


def clique_query(size: int, relation: str = "E",
                 attribute_prefix: str = "v") -> JoinQuery:
    """The ``size``-clique query (every vertex pair joined through edges)."""
    if size < 2:
        raise QueryError(f"cliques need size >= 2, got {size}")
    atoms = []
    counter = 0
    for i in range(size):
        for j in range(i + 1, size):
            counter += 1
            atoms.append(Atom(relation,
                              (f"{attribute_prefix}{i}", f"{attribute_prefix}{j}"),
                              alias=f"{relation}{counter}"))
    return JoinQuery(atoms)
