"""The GaeaQL optimizer: statement → execution plan.

Every statement plans to exactly one node, mirroring §2.1.5:

* a ``SELECT`` or ``DERIVE`` is one :class:`QueryNode`; a *concept*
  source (querying the high-level layer) expands to one retrieval leg
  per member class inside it;
* the §2.1.5 path of each leg — direct retrieval, then
  interpolation/derivation per the planner's fallback order — is a
  run-time outcome of the operator tree, never pinned at plan time;
* DDL and browsing statements pass through as singleton plans.

:meth:`Optimizer.compile` adds the prepared-statement fast path: whole
programs are lexed/parsed/planned once and kept in an LRU
:class:`PlanCache` keyed on the source fingerprint.  Entries carry the
kernel's schema version at plan time; DDL (new classes, processes,
concept edits) changes what a plan means, so stale entries are dropped
on lookup instead of being served.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from ..core.metadata_manager import MetadataManager
from ..errors import DerivationError, PlanningError
from ..spatial.box import Box
from ..temporal.abstime import AbsTime
from .ast import (
    AggCall,
    BoxTemplate,
    ColumnRef,
    CreateIndex,
    DefineClass,
    DefineCompound,
    DefineConcept,
    DefineProcess,
    Derive,
    DropIndex,
    Explain,
    JoinClause,
    LineageQuery,
    OpCall,
    OrderItem,
    Param,
    RunProcess,
    Select,
    SelectItem,
    Show,
    Statement,
)
from .parser import parse

__all__ = ["PlanNode", "RetrieveNode", "StatementNode", "ExplainNode",
           "QueryNode", "JoinSpec", "Optimizer", "PlanCache",
           "CompiledPlan", "fingerprint"]


def fingerprint(source: str) -> str:
    """Stable fingerprint of a statement's source text."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()[:16]


class PlanNode:
    """Base class of executable plan nodes."""


@dataclass(frozen=True)
class RetrieveNode(PlanNode):
    """One retrieval leg of a :class:`QueryNode`: one class's objects.

    The extents and filter values may hold unresolved bind placeholders
    (:class:`Param` / :class:`BoxTemplate`) when the node comes from a
    prepared statement; they must be bound before execution.

    The node is the *logical* plan — what the plan cache stores.  The
    physical planner (:mod:`repro.query.physical`) compiles it into an
    operator tree per execution: the access path is priced from current
    statistics when the tree is built, and the §2.1.5 logical path
    (retrieve vs. interpolate vs. derive) is decided by the tree at run
    time — neither is pinned at plan time; EXPLAIN resolves both on
    demand.
    """

    class_name: str
    spatial: Box | BoxTemplate | Param | None
    temporal: AbsTime | Param | None
    concept: str | None = None  # set when the SELECT named a concept
    force_derivation: bool = False
    filters: tuple[tuple[str, Any], ...] = ()
    ranges: tuple[tuple[str, str, Any], ...] = ()
    #: Covering columns: every attribute the statement reads of this
    #: leg, when its select list is a plain attribute projection (empty:
    #: the leg's consumers may read any attribute).  An attribute index
    #: whose key covers them and every predicate enables index-only scans.
    projection: tuple[str, ...] = ()


@dataclass(frozen=True)
class JoinSpec(PlanNode):
    """The planned right side of a two-source equi-join.

    ``inputs`` holds one planned retrieval per right-side class (several
    when the join target is a concept, which unions its members).  The
    physical planner chooses hash join vs. index nested-loop join from
    current statistics at build time.
    """

    source: str
    inputs: tuple[RetrieveNode, ...]
    left_ref: ColumnRef
    right_ref: ColumnRef


@dataclass(frozen=True)
class QueryNode(PlanNode):
    """The plan of one SELECT or DERIVE: retrieval legs under the
    relational algebra clauses (join / aggregate / order / limit /
    select-list projection), all optional.

    ``inputs`` holds one :class:`RetrieveNode` per class of the source
    (several for a concept, which unions its members; one with
    ``force_derivation`` for DERIVE); the physical planner composes the
    algebra operators on top per execution.
    """

    source: str
    inputs: tuple[RetrieveNode, ...]
    join: JoinSpec | None = None
    items: tuple[SelectItem, ...] = ()
    group_by: tuple[ColumnRef, ...] = ()
    order_by: tuple[OrderItem, ...] = ()
    #: LIMIT/OFFSET counts; a :class:`~repro.query.ast.Param` placeholder
    #: survives planning so the cached plan binds per execution.
    limit: int | Param | None = None
    offset: int | Param = 0

    @property
    def legs(self) -> tuple[RetrieveNode, ...]:
        """Every retrieval leg: the source's, then the join side's."""
        return self.inputs + (self.join.inputs if self.join else ())


@dataclass(frozen=True)
class StatementNode(PlanNode):
    """A pass-through plan for DDL / RUN / SHOW / LINEAGE statements."""

    statement: Statement


@dataclass(frozen=True)
class ExplainNode(PlanNode):
    """An EXPLAIN wrapper: report the inner plan without executing it.

    Wraps the node of any explainable statement — SELECT and DERIVE
    plan to a :class:`QueryNode`, RUN to a :class:`StatementNode` the
    executor renders as a ``Run`` operator.
    """

    inner: PlanNode


@dataclass(frozen=True)
class CompiledPlan:
    """A compiled program: one executable plan node per statement.

    Nodes may still hold :class:`~repro.query.ast.Param` placeholders;
    :func:`repro.query.binding.bind_nodes` resolves them per execution.
    """

    fingerprint: str
    nodes: tuple[PlanNode, ...]
    cached: bool = False  # True when served from the plan cache


@dataclass
class PlanCache:
    """LRU cache of compiled retrieval plans, validated by schema version.

    A cached entry is only served while the kernel's schema version still
    matches the version it was planned under; DDL bumps the version, so
    stale plans are invalidated lazily on their next lookup.
    """

    maxsize: int = 128
    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    _entries: OrderedDict[str, tuple[tuple[Any, ...], tuple[PlanNode, ...]]] \
        = field(default_factory=OrderedDict)
    # `move_to_end` + eviction is a multi-step mutation of the shared
    # OrderedDict; two threads interleaving it corrupt the LRU order
    # (or KeyError on a concurrently evicted key), so every operation
    # — including the counter bumps — runs under this lock.
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        del state["_lock"]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: str,
               schema_version: tuple[Any, ...]) -> tuple[PlanNode, ...] | None:
        """The cached nodes for *key*, or None on miss/stale entry.

        Only hits and invalidations are counted here; misses are
        recorded by the caller when it stores a freshly planned program,
        so uncacheable statements (DDL, SHOW, EXPLAIN) do not distort
        the miss rate.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] != schema_version:
                del self._entries[key]
                self.invalidations += 1
                entry = None
            if entry is None:
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[1]

    def store(self, key: str, schema_version: tuple[Any, ...],
              nodes: tuple[PlanNode, ...]) -> None:
        """Insert *nodes* (counted as a miss), evicting the least
        recently used entry."""
        with self._lock:
            self.misses += 1
            self._entries[key] = (schema_version, nodes)
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


@dataclass
class Optimizer:
    """Plans statements against the current kernel state."""

    kernel: MetadataManager
    cache: PlanCache = field(default_factory=PlanCache)

    def compile(self, source: str) -> CompiledPlan:
        """Lex, parse and plan *source*, reusing the plan cache.

        Pure retrieval programs (SELECT/DERIVE statements only) are
        cached; DDL, RUN, SHOW and EXPLAIN always re-plan — their
        planning is trivial, and EXPLAIN output must reflect the current
        store contents.
        """
        key = fingerprint(source)
        version = self.kernel.schema_version()
        cached = self.cache.lookup(key, version)
        if cached is not None:
            return CompiledPlan(fingerprint=key, nodes=cached, cached=True)
        nodes = tuple(self.plan(statement) for statement in parse(source))
        if nodes and all(isinstance(n, QueryNode) for n in nodes):
            self.cache.store(key, version, nodes)
        return CompiledPlan(fingerprint=key, nodes=nodes)

    def plan(self, statement: Statement) -> PlanNode:
        """The plan node of *statement*."""
        if isinstance(statement, Select):
            return self._plan_select(statement)
        if isinstance(statement, Explain):
            return ExplainNode(inner=self.plan(statement.inner))
        if isinstance(statement, Derive):
            return QueryNode(
                source=statement.class_name,
                inputs=(RetrieveNode(
                    class_name=statement.class_name,
                    spatial=statement.spatial,
                    temporal=statement.temporal,
                    force_derivation=True,
                ),),
            )
        if isinstance(statement, (DefineClass, DefineProcess, DefineCompound,
                                  DefineConcept, RunProcess, Show,
                                  LineageQuery, CreateIndex, DropIndex)):
            return StatementNode(statement=statement)
        raise PlanningError(
            f"no planning rule for {type(statement).__name__}"
        )

    def _retrieve_nodes(self, source: str, spatial: Any, temporal: Any,
                        filters: tuple[tuple[str, Any], ...],
                        ranges: tuple[tuple[str, str, Any], ...],
                        projection: tuple[str, ...] = ()
                        ) -> list[RetrieveNode]:
        """One planned retrieval per target class of *source*."""
        return [
            RetrieveNode(
                class_name=class_name,
                spatial=spatial,
                temporal=temporal,
                concept=source if source != class_name else None,
                filters=filters,
                ranges=ranges,
                projection=projection,
            )
            for class_name in self._resolve_source(source)
        ]

    def _plan_select(self, select: Select) -> QueryNode:
        """Plan a SELECT — plain, projected or using the algebra
        clauses — into one QueryNode."""
        join = select.join
        if join is not None and join.source == select.source:
            raise PlanningError(
                "a join needs two distinct sources (self-joins are not "
                "supported)"
            )
        left_filters = list(select.filters)
        left_ranges = list(select.ranges)
        right_filters: list[tuple[str, Any]] = []
        right_ranges: list[tuple[str, str, Any]] = []

        def side_for(qualifier: str) -> tuple[list, list]:
            if qualifier == select.source:
                return left_filters, left_ranges
            if join is not None and qualifier == join.source:
                return right_filters, right_ranges
            raise PlanningError(
                f"predicate qualifier {qualifier!r} names neither "
                f"{select.source!r} nor the join source"
            )

        for qualifier, attr, value in select.qualified_filters:
            side_for(qualifier)[0].append((attr, value))
        for qualifier, attr, op, value in select.qualified_ranges:
            side_for(qualifier)[1].append((attr, op, value))

        inputs = tuple(self._retrieve_nodes(
            select.source, select.spatial, select.temporal,
            tuple(left_filters), tuple(left_ranges),
            self._covering_columns(select),
        ))
        join_spec = None
        if join is not None:
            left_ref, right_ref = self._orient_join(select.source, join)
            self._validate_ref(left_ref, select.source, join)
            self._validate_ref(right_ref, select.source, join)
            join_spec = JoinSpec(
                source=join.source,
                inputs=tuple(self._retrieve_nodes(
                    join.source, None, None,
                    tuple(right_filters), tuple(right_ranges),
                )),
                left_ref=left_ref,
                right_ref=right_ref,
            )
        self._validate_query_shape(select, join_spec)
        return QueryNode(
            source=select.source,
            inputs=inputs,
            join=join_spec,
            items=select.items,
            group_by=select.group_by,
            order_by=select.order_by,
            limit=select.limit,
            offset=select.offset,
        )

    @staticmethod
    def _covering_columns(select: Select) -> tuple[str, ...]:
        """The attributes the statement reads of its FROM source's rows,
        when a covering scan could supply them all: a select list of
        stored attributes of the source (bare or source-qualified), and
        no join, GROUP BY, ORDER BY or aggregate reading anything else.
        LIMIT and OFFSET read no column; whether the predicates are
        covered too is the access path's call.  Empty otherwise."""
        if select.join is not None or select.group_by or select.order_by:
            return ()
        attrs = tuple(
            item.expr.attr for item in select.items
            if isinstance(item.expr, ColumnRef)
            and item.expr.qualifier in (None, select.source)
            and item.expr.attr != "oid"
        )
        return attrs if len(attrs) == len(select.items) else ()

    def _orient_join(self, left_source: str, join: JoinClause
                     ) -> tuple[ColumnRef, ColumnRef]:
        """``(left_ref, right_ref)`` whichever way the ON was written."""
        quals = (join.on_left.qualifier, join.on_right.qualifier)
        if quals == (left_source, join.source):
            return join.on_left, join.on_right
        if quals == (join.source, left_source):
            return join.on_right, join.on_left
        raise PlanningError(
            f"JOIN ON must relate {left_source!r} to {join.source!r}, "
            f"got qualifiers {quals[0]!r} and {quals[1]!r}"
        )

    def _validate_ref(self, ref: ColumnRef, left_source: str,
                      join: JoinSpec | JoinClause | None) -> None:
        """A column reference must name a real attribute of its side
        (``oid`` is the always-present surrogate)."""
        if ref.attr == "oid":
            if ref.qualifier is not None and join is not None \
                    and ref.qualifier not in (left_source, join.source):
                raise PlanningError(
                    f"unknown qualifier {ref.qualifier!r} in "
                    f"{ref.describe()!r}"
                )
            return
        if ref.qualifier is None:
            sources = [left_source] + ([join.source] if join else [])
        elif ref.qualifier == left_source:
            sources = [left_source]
        elif join is not None and ref.qualifier == join.source:
            sources = [join.source]
        else:
            raise PlanningError(
                f"unknown qualifier {ref.qualifier!r} in {ref.describe()!r}"
            )
        for source in sources:
            for class_name in self._resolve_source(source):
                try:
                    self.kernel.classes.get(class_name).type_of(ref.attr)
                    return
                except DerivationError:
                    continue
        raise PlanningError(
            f"no source class has attribute {ref.attr!r} "
            f"(in {ref.describe()!r})"
        )

    def _validate_value_expr(self, expr: Any, left_source: str,
                             join: JoinSpec | None) -> None:
        if isinstance(expr, ColumnRef):
            self._validate_ref(expr, left_source, join)
        elif isinstance(expr, OpCall):
            if expr.operator not in self.kernel.operators:
                raise PlanningError(
                    f"unknown operator {expr.operator!r} in projection — "
                    "see SHOW OPERATORS"
                )
            for arg in expr.args:
                self._validate_value_expr(arg, left_source, join)
        elif isinstance(expr, AggCall) and expr.arg is not None:
            self._validate_value_expr(expr.arg, left_source, join)

    def _validate_query_shape(self, select: Select,
                              join: JoinSpec | None) -> None:
        items = select.items
        aggregate = bool(select.group_by) or any(
            isinstance(item.expr, AggCall) for item in items
        )
        if aggregate and not items:
            raise PlanningError("GROUP BY needs a select list")
        group_keys = {ref.describe() for ref in select.group_by}
        for ref in select.group_by:
            self._validate_ref(ref, select.source, join)
        for item in items:
            self._validate_value_expr(item.expr, select.source, join)
            if aggregate and not isinstance(item.expr, AggCall):
                if not (isinstance(item.expr, ColumnRef)
                        and item.expr.describe() in group_keys):
                    raise PlanningError(
                        f"select item {item.alias!r} must be an aggregate "
                        "or a GROUP BY key"
                    )
        aliases = {item.alias for item in items}
        for order in select.order_by:
            if isinstance(order.key, int):
                if not items or not 1 <= order.key <= len(items):
                    raise PlanningError(
                        f"ORDER BY ordinal {order.key} is out of range"
                    )
            elif aggregate:
                if order.key.describe() not in aliases \
                        and order.key.describe() not in group_keys:
                    raise PlanningError(
                        f"ORDER BY {order.key.describe()!r} is neither a "
                        "select item nor a GROUP BY key"
                    )
            else:
                self._validate_ref(order.key, select.source, join)

    def _resolve_source(self, source: str) -> list[str]:
        """A SELECT source is a class name or a concept name.

        Concepts expand to their member classes, transitively through the
        ISA hierarchy — a query on DESERT covers every desert derivation.
        """
        if source in self.kernel.classes:
            return [source]
        if source in self.kernel.concepts:
            classes = sorted(
                self.kernel.concepts.classes_of(source, transitive=True)
            )
            if not classes:
                raise PlanningError(
                    f"concept {source!r} has no member classes"
                )
            return classes
        raise PlanningError(f"unknown class or concept {source!r}")
