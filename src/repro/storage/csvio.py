"""CSV input for relations.

The loader behind ``python -m repro.obs --relation ALIAS=PATH``.  The
first row holds attribute names; an optional second row of per-column
type tags (``#type:int`` / ``#type:str`` / ``#type:float``) fixes value
types, and without one a column whose every value parses as ``int``
becomes ints.  The file comes from outside the program, so a row of the
wrong width, an unknown type tag or a cell its type tag cannot parse is
a :class:`~repro.errors.SchemaError` naming the file, the line and the
width, tag or column.
"""

from __future__ import annotations

import csv
from pathlib import Path

from repro.errors import SchemaError
from repro.storage.relation import Relation
from repro.storage.schema import Schema

_TYPE_PARSERS = {
    "int": int,
    "str": str,
    "float": float,
}


def load_relation(name: str, path: str | Path,
                  schema: Schema | None = None) -> Relation:
    """Read a CSV file with a header row as the relation ``name``."""
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty CSV, cannot infer schema") from None
        rows = [(reader.line_num, row) for row in reader]

    if schema is None:
        schema = Schema(header)
    elif tuple(schema.attributes) != tuple(header):
        raise SchemaError(f"{path}: header {header} does not match schema {schema.attributes}")

    for line, row in rows:
        if len(row) != len(header):
            raise SchemaError(f"{path}, line {line}: {len(row)} cells, "
                              f"but the header names {len(header)} columns")

    parsers = None
    if rows and rows[0][1] and rows[0][1][0].startswith("#type:"):
        line, tags = rows.pop(0)
        known = {f"#type:{kind}" for kind in _TYPE_PARSERS}
        unknown = sorted(set(tags) - known)
        if unknown:
            raise SchemaError(f"{path}, line {line}: unknown type tags "
                              f"{unknown}; choose from {sorted(_TYPE_PARSERS)}")
        parsers = [_TYPE_PARSERS[tag.removeprefix("#type:")] for tag in tags]
    if parsers is None:
        parsers = _infer_parsers([row for _, row in rows], len(header))

    parsed = []
    for line, row in rows:
        values = []
        for attribute, parse, cell in zip(header, parsers, row):
            try:
                values.append(parse(cell))
            except ValueError:
                raise SchemaError(
                    f"{path}, line {line}, column {attribute!r}: "
                    f"{cell!r} is not {parse.__name__}") from None
        parsed.append(tuple(values))
    return Relation(name, schema, parsed)


def _infer_parsers(rows: list[list[str]], width: int) -> list:
    parsers = []
    for col in range(width):
        all_int = bool(rows)
        for row in rows:
            try:
                int(row[col])
            except ValueError:
                all_int = False
                break
        parsers.append(int if all_int else str)
    return parsers
