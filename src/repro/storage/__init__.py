"""Relational substrate: schemas, relations, catalogs, CSV input."""

from repro.storage.relation import Relation
from repro.storage.schema import Schema

__all__ = ["Relation", "Schema"]
