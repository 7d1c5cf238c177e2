"""The physical planner: logical plan nodes → operator trees.

The logical plan (what the LRU plan cache stores, keyed on source
fingerprints) is one node per statement: a
:class:`~repro.query.optimizer.QueryNode` for SELECT/DERIVE, a
:class:`~repro.query.optimizer.StatementNode` otherwise.  This module
compiles those nodes into :mod:`.operators` trees per execution:

* each retrieval leg becomes scan → extent filter → predicate filter
  under a :class:`~.operators.FallbackSwitch` whose one
  :class:`~.operators.Fallback` leaf hands §2.1.5 steps 2–3 to the
  retrieval planner when nothing stored covers the extents;
* a ``DERIVE`` leg becomes a :class:`~.operators.Derive` root;
* a concept source's legs are one :class:`~.operators.ConceptUnion`
  ordered by estimated cost, sharing a single
  :class:`~.operators.ExecutionContext`;
* the algebra clauses (join / aggregate / order / limit) compose on
  top, under one :class:`~.operators.ExprProject` for a select list;
* ``RUN`` becomes a :class:`~.operators.Run` leaf.

Building a tree prices the access paths from O(1) statistics but never
scans data, so EXPLAIN can render any statement's tree without side
effects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..core.classes import NonPrimitiveClass
from ..core.metadata_manager import MetadataManager
from ..errors import BindError, DerivationError
from ..storage.access import AccessPath
from .ast import AggCall, ColumnRef, Param, RunProcess
from .expressions import compile_extent_mask, compile_predicate_mask
from .operators import (
    ConceptUnion,
    Derive,
    ExecutionContext,
    ExprProject,
    Fallback,
    FallbackSwitch,
    Filter,
    HashAggregate,
    HashJoin,
    HeapScan,
    IndexNestedLoopJoin,
    IndexOnlyScan,
    IndexScan,
    Limit,
    PhysicalOperator,
    Run,
    Sort,
)
from .optimizer import (
    JoinSpec,
    PlanNode,
    QueryNode,
    RetrieveNode,
    StatementNode,
)

__all__ = ["PhysicalPlanner"]


@dataclass
class PhysicalPlanner:
    """Compiles logical plan nodes into physical operator trees.

    ``batch_size`` is the ceiling of the scans' batch row counts, which
    start at 64 and double (``None``: the storage layer's default); tests
    shrink it to reach batch-edge cases.
    """

    kernel: MetadataManager
    batch_size: int | None = None

    def context(self) -> ExecutionContext:
        """A fresh execution context (per statement or union)."""
        return ExecutionContext(kernel=self.kernel)

    # -- retrievals ----------------------------------------------------------

    def build_retrieve(self, node: RetrieveNode,
                       ctx: ExecutionContext | None = None,
                       sort_keys: tuple[tuple[Any, bool], ...] | None = None,
                       path: AccessPath | None = None) -> PhysicalOperator:
        """The operator tree of one (bound) retrieval node, down *path*
        or else the access path current statistics price cheapest.

        *sort_keys* is set when an ordered index scan (*path*) replaced
        an explicit Sort (sort avoidance): the fallback leaf — whose
        output order the index cannot guarantee — gets a Sort of its
        own, so the tree's order contract holds on every path.
        """
        ctx = ctx or self.context()
        store = self.kernel.store
        cls = self.kernel.classes.get(node.class_name)
        filters, ranges = store.normalize_predicates(
            cls, node.filters, node.ranges
        )
        if node.force_derivation:
            return self._attr_filter(
                Derive(ctx, node.class_name, node.spatial, node.temporal),
                filters, ranges)

        path = path or store.choose_path(
            node.class_name, spatial=node.spatial, temporal=node.temporal,
            filters=filters, ranges=ranges, projection=node.projection,
        )
        if path.index_only:
            stored: PhysicalOperator = IndexOnlyScan(
                ctx, node.class_name, path, batch_size=self.batch_size,
            )
        else:
            scan_cls = HeapScan if path.kind == "full-scan" else IndexScan
            stored = scan_cls(ctx, node.class_name, path,
                              spatial=node.spatial, temporal=node.temporal,
                              filters=filters, ranges=ranges,
                              batch_size=self.batch_size)
            stored = self._extent_filter(stored, cls, node)
        return FallbackSwitch(
            stored=self._attr_filter(stored, filters, ranges),
            extent_counter=stored if path.observes_extents else None,
            fallback=Fallback(ctx, node.class_name, node.spatial,
                              node.temporal, filters, ranges),
            sort_keys=sort_keys,
        )

    def _extent_filter(self, child: PhysicalOperator,
                       cls: NonPrimitiveClass, node: RetrieveNode
                       ) -> PhysicalOperator:
        """Extent re-check over a raw scan (grid cells are approximate,
        full scans see everything); pass-through when the query has no
        extent predicates."""
        parts = []
        if node.spatial is not None and cls.spatial_attr is not None:
            parts.append(f"{cls.spatial_attr} overlaps {node.spatial}")
        if node.temporal is not None and cls.temporal_attr is not None:
            parts.append(f"{cls.temporal_attr}={node.temporal}")
        if not parts:
            return child
        return Filter(
            child,
            mask_fn=compile_extent_mask(cls, node.spatial, node.temporal),
            description=" AND ".join(parts),
        )

    @staticmethod
    def _attr_filter(child: PhysicalOperator,
                     filters: tuple[tuple[str, Any], ...],
                     ranges: tuple[tuple[str, str, Any], ...]
                     ) -> PhysicalOperator:
        """Attribute predicate re-check, compiled to one boolean-mask
        evaluation per batch; pass-through without predicates."""
        if not (filters or ranges):
            return child
        parts = [f"{attr}={value!r}" for attr, value in filters]
        parts += [f"{attr}{op}{value!r}" for attr, op, value in ranges]
        selectivity = 0.5 ** (len(filters) + len(ranges))
        return Filter(
            child,
            mask_fn=compile_predicate_mask(filters, ranges),
            description=" AND ".join(parts),
            selectivity=max(0.1, selectivity),
        )

    def build(self, node: PlanNode, ctx: ExecutionContext | None = None
              ) -> PhysicalOperator | None:
        """The tree for one statement's plan node (None for statements
        that have no operator form, e.g. DDL and SHOW)."""
        if isinstance(node, QueryNode):
            return self.build_query(node, ctx)
        if isinstance(node, StatementNode) \
                and isinstance(node.statement, RunProcess):
            return self.build_run(node.statement, ctx)
        return None

    # -- queries (legs / join / aggregate / order / limit) -------------------

    def build_query(self, node: QueryNode,
                    ctx: ExecutionContext | None = None
                    ) -> PhysicalOperator:
        """The operator tree of one SELECT or DERIVE.

        Composition order: inputs → join → aggregate → sort → limit →
        projection.  Sorting runs *before* projection, so an
        ORDER BY may reference projected-out attributes; after an
        aggregate, sort keys resolve against the aggregate's output
        aliases instead.  A Sort under a Limit keeps only the first K
        rows, and when a single ORDER BY key rides a B-tree-indexed
        attribute the cost model may replace the Sort entirely with an
        ordered index scan (sort avoidance, visible in EXPLAIN).
        """
        if isinstance(node.limit, Param) or isinstance(node.offset, Param):
            raise BindError(
                "query has unbound LIMIT/OFFSET parameters — supply bind "
                "values (cursor.execute(source, params))"
            )
        ctx = ctx or self.context()
        operators = self.kernel.operators
        aggregate = bool(node.group_by) or any(
            isinstance(item.expr, AggCall) for item in node.items
        )
        top_k = None
        if node.limit is not None:
            top_k = node.limit + node.offset
        keys = self._order_keys(node)

        need_sort = bool(keys)
        if (not aggregate and node.join is None and len(node.inputs) == 1
                and len(keys) == 1 and isinstance(keys[0][0], ColumnRef)
                and keys[0][0].qualifier in (None, node.source)):
            # Single-key order over one class: the ordered tree already
            # carries whichever of {ordered index scan, explicit Sort}
            # priced cheaper.
            tree = self._order_tree(node.inputs[0], keys, top_k, ctx)
            need_sort = False
        else:
            tree = self._inputs_tree(node.source, node.inputs, ctx)
        if node.join is not None:
            tree = self._join_tree(node, tree, ctx)
        if aggregate:
            tree = HashAggregate(tree, node.group_by, node.items, operators)
        if need_sort:
            tree = Sort(tree, keys, operators, top_k=top_k)
        if node.limit is not None or node.offset:
            tree = Limit(tree, node.limit, node.offset)
        if node.items and not aggregate:
            tree = ExprProject(tree, node.items, operators)
        return tree

    def _order_keys(self, node: QueryNode
                    ) -> tuple[tuple[Any, bool], ...]:
        """ORDER BY keys as evaluable ``(expr, descending)`` pairs.

        Ordinals resolve to the select item's expression; a compiled
        key looks its rendered alias up first, so the same pair works
        below an aggregate and on the aggregate's output.
        """
        keys: list[tuple[Any, bool]] = []
        for order in node.order_by:
            if isinstance(order.key, int):
                expr: Any = node.items[order.key - 1].expr
            else:
                expr = order.key
            keys.append((expr, order.descending))
        return tuple(keys)

    def _inputs_tree(self, source: str,
                     inputs: tuple[RetrieveNode, ...],
                     ctx: ExecutionContext) -> PhysicalOperator:
        """One side's tree: a retrieval, or a union of concept members."""
        if len(inputs) == 1:
            return self.build_retrieve(inputs[0], ctx)
        members = tuple(self.build_retrieve(member, ctx)
                        for member in inputs)
        return ConceptUnion(concept=source, members=members)

    def _order_tree(self, node: RetrieveNode,
                    keys: tuple[tuple[Any, bool], ...],
                    top_k: int | None,
                    ctx: ExecutionContext) -> PhysicalOperator:
        """The ordered tree for a single-key ORDER BY over one class.

        Prices an explicit Sort over the cost-chosen scan (bounded by
        ``top_k`` when a LIMIT sits above — the Sort operator's own
        estimate) against a key-order B-tree walk that needs no Sort at
        all (sort avoidance).  Whichever tree prices cheaper is
        returned.
        """
        base = self.build_retrieve(node, ctx)
        explicit = Sort(base, keys, self.kernel.operators, top_k=top_k)
        ref, descending = keys[0]
        if ref.attr == "oid":
            return explicit
        try:
            ordered = self.kernel.store.ordered_path(
                node.class_name, ref.attr, descending=descending,
                filters=node.filters, ranges=node.ranges,
                limit_hint=top_k,
            )
        except DerivationError:
            # ``type_of``: the class has no such attribute, so no index
            # orders by it.  Storage errors propagate.
            return explicit
        if ordered is None:
            return explicit
        ordered_tree = self.build_retrieve(node, ctx, sort_keys=keys,
                                           path=ordered)
        if ordered_tree.estimated_cost < explicit.estimated_cost:
            return ordered_tree
        return explicit

    def _join_tree(self, node: QueryNode, left: PhysicalOperator,
                   ctx: ExecutionContext) -> PhysicalOperator:
        """The join operator over *left*: hash join vs. index
        nested-loop join, decided by estimated cost."""
        join = node.join
        store = self.kernel.store
        engine = self.kernel.engine
        left_attrs = self._side_attrs(node.inputs)
        inlj: IndexNestedLoopJoin | None = None
        if len(join.inputs) == 1:
            right_node = join.inputs[0]
            attr = join.right_ref.attr
            relation = store.relation_for(right_node.class_name)
            per_probe: float | None = None
            if attr == "oid":
                per_probe = 1.0  # surrogate fetch: at most one object
            elif engine.has_index(relation, attr):
                stats = engine.access_info(
                    relation, histogram_columns=()
                )["btrees"].get(attr)
                if stats is not None:
                    per_probe = (stats["entries"]
                                 / max(1, stats["distinct"]))
            if per_probe is not None:
                cls = self.kernel.classes.get(right_node.class_name)
                filters, ranges = store.normalize_predicates(
                    cls, right_node.filters, right_node.ranges
                )
                inlj = IndexNestedLoopJoin(
                    ctx, left, join.left_ref, right_node.class_name,
                    join.right_ref, node.source, join.source,
                    spatial=right_node.spatial,
                    temporal=right_node.temporal,
                    filters=filters, ranges=ranges,
                    per_probe_rows=per_probe, left_attrs=left_attrs,
                )
        right = self._inputs_tree(join.source, join.inputs, ctx)
        hash_join = HashJoin(left, right, join.left_ref, join.right_ref,
                             node.source, join.source,
                             left_attrs, self._side_attrs(join.inputs))
        if inlj is not None and inlj.estimated_cost < hash_join.estimated_cost:
            return inlj
        return hash_join

    def _side_attrs(self, inputs: tuple[RetrieveNode, ...]
                    ) -> tuple[str, ...]:
        """Every attribute a join side's rows can carry: the union over
        its member classes."""
        return tuple(dict.fromkeys(
            name for member in inputs
            for name, _ in self.kernel.classes.get(member.class_name).attributes
        ))

    # -- process execution ---------------------------------------------------

    def build_run(self, statement: RunProcess,
                  ctx: ExecutionContext | None = None) -> Run:
        """The operator form of ``RUN process WITH ...``."""
        return Run(ctx or self.context(), statement.process,
                   statement.bindings)
