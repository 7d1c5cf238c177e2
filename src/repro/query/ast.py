"""Abstract syntax for GaeaQL statements.

The statement set mirrors the metadata manager's three layers:

* DDL — ``DEFINE CLASS`` (paper §2.1.1 syntax), ``DEFINE PROCESS``
  (Figure 3), ``DEFINE COMPOUND PROCESS``, ``DEFINE CONCEPT``;
* retrieval — ``SELECT FROM <class> [WHERE ...]`` with the §2.1.5
  retrieve/interpolate/derive semantics, ``DERIVE``, ``EXPLAIN``;
* execution — ``RUN <process> WITH arg = (oids)``;
* browsing — ``SHOW CLASSES|PROCESSES|CONCEPTS|TASKS|EXPERIMENTS``,
  ``LINEAGE <oid>``.

Mapping/assertion expressions reuse the core expression classes
(:mod:`repro.core.derivation`), so the parser builds exactly what the
derivation manager executes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..core.derivation import Assertion, Expr
from ..spatial.box import Box
from ..temporal.abstime import AbsTime

__all__ = [
    "Statement",
    "DefineClass",
    "ArgumentSpec",
    "DefineProcess",
    "StepSpec",
    "DefineCompound",
    "DefineConcept",
    "Select",
    "Derive",
    "Explain",
    "RunProcess",
    "Show",
    "LineageQuery",
    "Param",
    "BoxTemplate",
    "CreateIndex",
    "DropIndex",
    "ColumnRef",
    "OpCall",
    "AggCall",
    "SelectItem",
    "OrderItem",
    "JoinClause",
    "AGGREGATE_FUNCS",
]

#: Aggregate function names the grammar recognizes in select items.
AGGREGATE_FUNCS = frozenset({"count", "sum", "avg", "min", "max"})


class Statement:
    """Base class for parsed statements."""


@dataclass(frozen=True)
class Param:
    """A bind-parameter placeholder: ``?`` (positional, 0-based slot) or
    ``:name`` (named).  Exactly one of ``index``/``name`` is set.

    Placeholders are legal wherever a retrieval statement takes a value:
    WHERE equality literals, timestamps, box coordinates (or whole
    boxes), and the DERIVE extents.  A statement never mixes the two
    styles.
    """

    index: int | None = None
    name: str | None = None

    def describe(self) -> str:
        """Source-level spelling of this placeholder."""
        return f":{self.name}" if self.name is not None else "?"


@dataclass(frozen=True)
class BoxTemplate:
    """A box literal with at least one parameter coordinate:
    ``(?, -35, :east, 38)``.  Resolved to a :class:`Box` at bind time."""

    coords: tuple[Any, ...]  # 4 entries, each float or Param


@dataclass(frozen=True)
class DefineClass(Statement):
    """``DEFINE CLASS name ( ATTRIBUTES: ... )``."""

    name: str
    attributes: tuple[tuple[str, str], ...]
    spatial_attr: str | None
    temporal_attr: str | None
    derived_by: str | None
    doc: str = ""


@dataclass(frozen=True)
class ArgumentSpec:
    """One process argument in the source: ``[SETOF] class name [>= n]``."""

    name: str
    class_name: str
    is_set: bool
    min_cardinality: int = 1


@dataclass(frozen=True)
class DefineProcess(Statement):
    """``DEFINE PROCESS`` with the Figure-3 TEMPLATE."""

    name: str
    output_class: str
    arguments: tuple[ArgumentSpec, ...]
    assertions: tuple[Assertion, ...]
    mappings: tuple[tuple[str, Expr], ...]
    parameters: tuple[tuple[str, Any], ...] = ()


@dataclass(frozen=True)
class StepSpec:
    """One step of a compound process: ``label: process(arg<-src, ...)``."""

    name: str
    process: str
    bindings: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class DefineCompound(Statement):
    """``DEFINE COMPOUND PROCESS`` (Figure 5)."""

    name: str
    output_class: str
    arguments: tuple[ArgumentSpec, ...]
    steps: tuple[StepSpec, ...]
    output_step: str


@dataclass(frozen=True)
class DefineConcept(Statement):
    """``DEFINE CONCEPT name [ISA p1, p2] [MEMBERS c1, c2]``."""

    name: str
    isa: tuple[str, ...] = ()
    members: tuple[str, ...] = ()


@dataclass(frozen=True)
class CreateIndex(Statement):
    """``CREATE INDEX [name] ON class (attr)`` — a secondary B-tree over
    a scalar attribute, registered in the storage catalog."""

    class_name: str
    attr: str
    name: str | None = None


@dataclass(frozen=True)
class DropIndex(Statement):
    """``DROP INDEX name`` or ``DROP INDEX ON class (attr)``."""

    name: str | None = None
    class_name: str | None = None
    attr: str | None = None


@dataclass(frozen=True)
class ColumnRef:
    """An attribute reference in a select item / ORDER BY / GROUP BY:
    ``attr`` or, in join queries, ``Class.attr``.  The pseudo-attribute
    ``oid`` names an object's surrogate id."""

    attr: str
    qualifier: str | None = None

    def describe(self) -> str:
        if self.qualifier is not None:
            return f"{self.qualifier}.{self.attr}"
        return self.attr


@dataclass(frozen=True)
class OpCall:
    """A registered ADT operator applied in a projection, e.g.
    ``area(extent)`` — resolved against the kernel's
    :class:`~repro.adt.operators.OperatorRegistry` at execution time.
    Arguments are :class:`ColumnRef`, nested :class:`OpCall`, or
    literal values."""

    operator: str
    args: tuple[Any, ...]

    def describe(self) -> str:
        rendered = []
        for arg in self.args:
            if isinstance(arg, (ColumnRef, OpCall)):
                rendered.append(arg.describe())
            elif isinstance(arg, str):
                rendered.append(f"'{arg}'")
            else:
                rendered.append(str(arg))
        return f"{self.operator}({', '.join(rendered)})"


@dataclass(frozen=True)
class AggCall:
    """An aggregate call in a select item: ``count(*)``, ``sum(x)``,
    ``avg(area(extent))``...  ``arg`` is None for ``count(*)``."""

    func: str  # one of AGGREGATE_FUNCS
    arg: Any | None = None  # ColumnRef | OpCall | None

    def describe(self) -> str:
        if self.arg is None:
            return f"{self.func}(*)"
        inner = (self.arg.describe()
                 if isinstance(self.arg, (ColumnRef, OpCall))
                 else str(self.arg))
        return f"{self.func}({inner})"


@dataclass(frozen=True)
class SelectItem:
    """One output column of a select list; ``alias`` is the output name
    (the rendered source text)."""

    expr: Any  # ColumnRef | OpCall | AggCall
    alias: str


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key: a column reference or a 1-based select-item
    ordinal (``ORDER BY 2 DESC``)."""

    key: Any  # ColumnRef | int
    descending: bool = False

    def describe(self) -> str:
        head = (self.key.describe() if isinstance(self.key, ColumnRef)
                else str(self.key))
        return f"{head} DESC" if self.descending else head


@dataclass(frozen=True)
class JoinClause:
    """``JOIN <class-or-concept> ON a.x = b.y`` — a two-source equi-join.
    The ON sides are qualified column references; which belongs to the
    left source is resolved at plan time."""

    source: str
    on_left: ColumnRef
    on_right: ColumnRef


@dataclass(frozen=True)
class Select(Statement):
    """``SELECT [attr, ...] FROM class [WHERE spatialextent OVERLAPS box
    AND timestamp = 'date' AND attr = literal AND attr >= literal]`` —
    concept names allowed as the source.  Equality predicates live in
    ``filters`` as ``(attr, value)``; comparison predicates live in
    ``ranges`` as ``(attr, op, value)`` with op in ``< <= > >=``.  The
    optimizer pushes both into index-backed access paths when it can.

    Any value position may hold a :class:`Param` placeholder (a box may
    also be a :class:`BoxTemplate`); such statements must be bound
    before execution."""

    source: str
    spatial: Box | BoxTemplate | Param | None = None
    temporal: AbsTime | Param | None = None
    filters: tuple[tuple[str, Any], ...] = ()
    ranges: tuple[tuple[str, str, Any], ...] = ()
    #: The select list (empty = whole objects): attributes, operator
    #: calls, aggregates.  Rows of a select list are plain dicts.
    items: tuple[SelectItem, ...] = ()
    #: ``JOIN ... ON`` second source.
    join: JoinClause | None = None
    #: Predicates written with an explicit qualifier (join queries):
    #: ``(qualifier, attr, value)`` / ``(qualifier, attr, op, value)``.
    qualified_filters: tuple[tuple[str, str, Any], ...] = ()
    qualified_ranges: tuple[tuple[str, str, str, Any], ...] = ()
    group_by: tuple[ColumnRef, ...] = ()
    order_by: tuple[OrderItem, ...] = ()
    #: LIMIT/OFFSET counts; a :class:`Param` binds at execute time.
    limit: int | Param | None = None
    offset: int | Param = 0


@dataclass(frozen=True)
class Derive(Statement):
    """``DERIVE class [AT 'date'] [IN box]`` — skip direct retrieval.
    The extents accept :class:`Param` placeholders like SELECT."""

    class_name: str
    spatial: Box | BoxTemplate | Param | None = None
    temporal: AbsTime | Param | None = None


@dataclass(frozen=True)
class Explain(Statement):
    """``EXPLAIN SELECT|DERIVE|RUN ...`` — render the statement's
    operator tree and §2.1.5 path without executing it."""

    inner: Statement


@dataclass(frozen=True)
class RunProcess(Statement):
    """``RUN process WITH arg = (1, 2, 3), other = (4)``."""

    process: str
    bindings: tuple[tuple[str, tuple[int, ...]], ...] = ()


@dataclass(frozen=True)
class Show(Statement):
    """``SHOW CLASSES | PROCESSES | CONCEPTS | TASKS | EXPERIMENTS``."""

    what: str


@dataclass(frozen=True)
class LineageQuery(Statement):
    """``LINEAGE oid`` — the derivation history of an object."""

    oid: int
