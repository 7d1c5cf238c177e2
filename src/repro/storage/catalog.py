"""System catalog: relation schemas over primitive-class attribute types.

The catalog is the storage-side mirror of the derivation layer's class
definitions: every non-primitive class materializes as a relation whose
attribute types are primitive-class names validated by the ADT registry.

The catalog also registers *secondary indexes* (:class:`IndexDef`): the
engine maintains the physical structures, but their existence is catalog
metadata, and :attr:`Catalog.index_version` is the monotonically
increasing stamp that plan caches compare so cached access paths are
invalidated whenever an index is created or dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

from ..adt.registry import TypeRegistry
from ..errors import RelationExistsError, StorageError, UnknownRelationError

__all__ = ["Column", "Schema", "Catalog", "IndexDef"]


@dataclass(frozen=True)
class Column:
    """One attribute of a relation: a name and a primitive-class type."""

    name: str
    type_name: str


@dataclass(frozen=True)
class Schema:
    """Ordered attribute list of a relation."""

    relation: str
    columns: tuple[Column, ...]

    def __post_init__(self) -> None:
        names = [col.name for col in self.columns]
        if len(names) != len(set(names)):
            raise StorageError(f"duplicate column names in {self.relation!r}")

    @cached_property
    def column_names(self) -> tuple[str, ...]:
        """Attribute names in schema order (computed once, like the
        position map: a schema is frozen)."""
        return tuple(col.name for col in self.columns)

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {name: at for at, name in enumerate(self.column_names)}

    def index_of(self, column: str) -> int:
        """Position of *column* in the schema."""
        try:
            return self._positions[column]
        except KeyError:
            raise StorageError(
                f"relation {self.relation!r} has no column {column!r}"
            ) from None

    def type_of(self, column: str) -> str:
        """Primitive-class name of *column*."""
        return self.columns[self.index_of(column)].type_name

    def as_dict(self, values: tuple[Any, ...]) -> dict[str, Any]:
        """Pair a positional value tuple with column names."""
        if len(values) != len(self.columns):
            raise StorageError(
                f"{self.relation!r}: expected {len(self.columns)} values, "
                f"got {len(values)}"
            )
        return dict(zip(self.column_names, values))


@dataclass(frozen=True)
class IndexDef:
    """Catalog entry for one secondary index.

    ``kind`` is ``"btree"`` (scalar attribute values), ``"spatial"``
    (grid index over a box column) or ``"temporal"`` (timeline over an
    abstime column).
    """

    name: str
    relation: str
    column: str
    kind: str


@dataclass
class Catalog:
    """Registry of relation schemas, validating types against the ADT
    layer."""

    types: TypeRegistry
    #: Bumped on every index create/drop; plan caches include it in the
    #: schema version they validate cached access paths against.
    index_version: int = 0
    _schemas: dict[str, Schema] = field(default_factory=dict)
    _indexes: dict[str, IndexDef] = field(default_factory=dict)

    def create(self, relation: str, columns: list[tuple[str, str]]) -> Schema:
        """Define a relation with ``(name, type_name)`` columns."""
        if relation in self._schemas:
            raise RelationExistsError(relation)
        cols = []
        for name, type_name in columns:
            self.types.get(type_name)  # raises UnknownTypeError
            cols.append(Column(name=name, type_name=type_name))
        schema = Schema(relation=relation, columns=tuple(cols))
        self._schemas[relation] = schema
        return schema

    def drop(self, relation: str) -> None:
        """Remove a relation's schema (and its index entries)."""
        if relation not in self._schemas:
            raise UnknownRelationError(relation)
        del self._schemas[relation]
        for name in [n for n, ix in self._indexes.items()
                     if ix.relation == relation]:
            del self._indexes[name]
            self.index_version += 1

    # -- secondary-index metadata ---------------------------------------------

    @staticmethod
    def default_index_name(relation: str, column: str, kind: str) -> str:
        """Conventional name for an index: ``ix_<relation>_<column>``."""
        prefix = {"btree": "ix", "spatial": "sx", "temporal": "tx"}[kind]
        return f"{prefix}_{relation}_{column}"

    def add_index(self, relation: str, column: str, kind: str,
                  name: str | None = None) -> IndexDef:
        """Register a secondary index; bumps :attr:`index_version`."""
        schema = self.get(relation)
        schema.index_of(column)  # raises when the column does not exist
        if kind not in ("btree", "spatial", "temporal"):
            raise StorageError(f"unknown index kind {kind!r}")
        if name is None:
            name = self.default_index_name(relation, column, kind)
        if name in self._indexes:
            raise StorageError(f"index {name!r} already exists")
        for existing in self._indexes.values():
            if (existing.relation, existing.column, existing.kind) \
                    == (relation, column, kind):
                raise StorageError(
                    f"{kind} index on {relation}.{column} already exists "
                    f"(as {existing.name!r})"
                )
        index = IndexDef(name=name, relation=relation, column=column,
                         kind=kind)
        self._indexes[name] = index
        self.index_version += 1
        return index

    def drop_index(self, name: str) -> IndexDef:
        """Unregister the index called *name*; bumps the version."""
        try:
            index = self._indexes.pop(name)
        except KeyError:
            raise StorageError(f"no index named {name!r}") from None
        self.index_version += 1
        return index

    def index_named(self, name: str) -> IndexDef:
        """The index definition called *name*."""
        try:
            return self._indexes[name]
        except KeyError:
            raise StorageError(f"no index named {name!r}") from None

    def indexes_of(self, relation: str) -> list[IndexDef]:
        """Index definitions on *relation*, in creation order."""
        return [ix for ix in self._indexes.values()
                if ix.relation == relation]

    def find_index(self, relation: str, column: str,
                   kind: str) -> IndexDef | None:
        """The index of *kind* on ``relation.column``, if registered."""
        for index in self._indexes.values():
            if (index.relation, index.column, index.kind) \
                    == (relation, column, kind):
                return index
        return None

    def all_indexes(self) -> list[IndexDef]:
        """Every registered index, in creation order."""
        return list(self._indexes.values())

    def get(self, relation: str) -> Schema:
        """The schema of *relation*."""
        try:
            return self._schemas[relation]
        except KeyError:
            raise UnknownRelationError(relation) from None

    def __contains__(self, relation: str) -> bool:
        return relation in self._schemas

    def relations(self) -> list[str]:
        """All relation names in creation order."""
        return list(self._schemas)

    def validate_row(self, relation: str, values: tuple[Any, ...]
                     ) -> tuple[Any, ...]:
        """Validate *values* against the schema, returning normalized
        internal values (via each primitive class's validator)."""
        schema = self.get(relation)
        if len(values) != len(schema.columns):
            raise StorageError(
                f"{relation!r}: expected {len(schema.columns)} values, "
                f"got {len(values)}"
            )
        normalized = tuple(
            self.types.get(col.type_name).validate(value)
            for col, value in zip(schema.columns, values)
        )
        return normalized
