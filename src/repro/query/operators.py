"""Physical operators: one iterator-tree representation for every query.

The Volcano-style layer between the logical plan (:mod:`.optimizer`
nodes, which the plan cache stores) and the storage substrate.  Every
statement — retrieval, ``DERIVE``, ``RUN``, concept queries — compiles
to a tree of these operators (see :mod:`.physical`); execution drives
the root's :meth:`~PhysicalOperator.run` iterator and EXPLAIN renders
the same tree with per-operator cost estimates via :func:`render_tree`.

The operators:

* :class:`HeapScan` / :class:`IndexScan` / :class:`IndexOnlyScan` —
  the stored-data scans, wrapping
  :meth:`ClassStore.iter_scan_batches` (or the covering key-only
  stream) down one cost-chosen
  :class:`~repro.storage.access.AccessPath`;
* :class:`Filter` — extent and attribute predicate re-checks, with
  row counters the fallback decision reads;
* :class:`ExprProject` — the select list: attributes, operator calls
  (plain dict rows);
* :class:`Sort` / :class:`Limit` / :class:`HashAggregate` — the
  ORDER BY / LIMIT / GROUP BY algebra;
* :class:`HashJoin` / :class:`IndexNestedLoopJoin` — two-source
  equi-joins;
* :class:`FallbackSwitch` — one stored scan; only when the retrieval
  planner's verdict on it is "nothing stored here" does its
  :class:`Fallback` leaf make the one
  :meth:`~repro.core.planner.RetrievalPlanner.run_fallbacks` call
  (§2.1.5 steps 2–3 live in :mod:`repro.core.planner`, not here);
* :class:`Derive` — the forced ``DERIVE`` statement;
* :class:`ConceptUnion` — one plan for a concept query: member
  subtrees ordered by estimated cost, sharing one execution context
  (and so one derivation-marking probe cache);
* :class:`Run` — process execution (``RUN``) as a leaf operator.

Operator instances are built fresh per execution and are stateful:
after a drain, counters (``rows_out``) and the §2.1.5 outcome record
(``result``, a :class:`~repro.core.planner.RetrievalResult`) describe
what actually happened.

There is one execution engine: every operator implements
:meth:`~PhysicalOperator.run_batches`, streaming columnar
:class:`~repro.query.batch.Batch` slabs, and nothing else.
:meth:`PhysicalOperator.run` — defined once, on the base class — lazily
flattens the root's batches into rows for the client fetch path, which
needs row-at-a-time DB-API semantics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

from ..core.metadata_manager import MetadataManager
from ..core.planner import MarkingCache, RetrievalResult
from ..errors import UnderivableError, UnknownClassError
from ..spatial.box import Box
from ..storage.access import AccessPath, INDEX_PROBE_COST, INDEX_ROW_COST
from ..temporal.abstime import AbsTime
from .ast import AggCall, ColumnRef, SelectItem
from .batch import (Batch, JoinKeys, group_rows, object_column,
                    order_by_keys)
from .expressions import (
    Accumulator,
    VectorExpr,
    compile_column,
    compile_extent_mask,
    compile_predicate_mask,
    compile_vector_expr,
    nulls_in_band,
)

__all__ = [
    "ExecutionContext",
    "PhysicalOperator",
    "HeapScan",
    "IndexScan",
    "IndexOnlyScan",
    "Filter",
    "ExprProject",
    "Sort",
    "Limit",
    "HashAggregate",
    "HashJoin",
    "IndexNestedLoopJoin",
    "Derive",
    "Fallback",
    "FallbackSwitch",
    "ConceptUnion",
    "Run",
    "render_tree",
    "DERIVE_COST",
    "FILTER_ROW_COST",
    "SORT_ROW_COST",
    "HASH_ROW_COST",
    "JOIN_ROW_COST",
]

#: Cost guess for the planner-answered leaves: derivation is dominated
#: by process execution, far above any scan — the constant only needs
#: to order alternatives sensibly in plan dumps.
DERIVE_COST = 400.0
# Per-row costs of the array-at-a-time operators, in the access paths'
# units (one sequentially scanned row = 1.0): a whole batch shares one
# trip through the interpreter.

#: Re-checking residual predicates / evaluating projection items.
FILTER_ROW_COST = 0.00625
#: Per comparison of an explicit sort (multiplied by n·log n, or
#: n·log k under a LIMIT k).
SORT_ROW_COST = 0.0025
#: Grouping a row into its aggregation segment.
HASH_ROW_COST = 0.00625
#: Hashing a row into / probing a join's hash table — one Python dict
#: operation per row, unlike the array-level costs above.
JOIN_ROW_COST = 0.05


@dataclass
class ExecutionContext:
    """Shared state of one query execution (one tree drain).

    The marking cache lets several :class:`Fallback` leaves under one
    tree (a concept union whose members all fall back) share the
    backward-planning supply probes; a firing drops what it produced.
    """

    kernel: MetadataManager
    marking_cache: MarkingCache = field(default_factory=dict)


class PhysicalOperator:
    """Base of all physical operators.

    Subclasses set ``estimated_rows`` / ``estimated_cost`` at build
    time and stream columnar batches from :meth:`run_batches`, counting
    what they actually produce in ``rows_out``.  :meth:`run` is the row
    view of that stream and is never overridden
    (``tools/lint_vectorized.py`` enforces it).  ``result`` is the
    §2.1.5 outcome record of a drained retrieval — set by
    :class:`FallbackSwitch` and :class:`Derive`, None everywhere else.
    """

    estimated_rows: float = 0.0
    estimated_cost: float = 0.0
    rows_out: int = 0
    result: RetrievalResult | None = None

    @property
    def children(self) -> tuple["PhysicalOperator", ...]:
        return ()

    def label(self) -> str:
        """One-line rendering for plan dumps (no cost suffix)."""
        raise NotImplementedError

    def run_batches(self) -> Iterator[Batch]:
        """Stream this operator's batches (stateful; drive once)."""
        raise NotImplementedError

    def run(self) -> Iterator[Any]:
        """Stream this operator's rows: the batches, lazily flattened."""
        for batch in self.run_batches():
            yield from batch.to_rows()


def render_tree(op: PhysicalOperator, prefix: str = "",
                is_last: bool = True, is_root: bool = True) -> list[str]:
    """Pretty-print an operator tree with per-operator estimates."""
    line = (f"{op.label()} "
            f"[rows~{op.estimated_rows:.0f} cost~{op.estimated_cost:.1f}]")
    if is_root:
        lines = [line]
        child_prefix = ""
    else:
        connector = "└─ " if is_last else "├─ "
        lines = [prefix + connector + line]
        child_prefix = prefix + ("   " if is_last else "│  ")
    kids = op.children
    for index, child in enumerate(kids):
        lines.extend(render_tree(child, child_prefix,
                                 is_last=index == len(kids) - 1,
                                 is_root=False))
    return lines


# -- stored-data scans --------------------------------------------------------


class _StoreScan(PhysicalOperator):
    """Common base of the stored-row scans: one recorded scan event.

    Batches come straight off the storage layer
    (:meth:`ClassStore.iter_scan_batches`), which is handed the
    predicates the physical planner already normalized and the access
    path it already validated; per-row ``SciObject`` materialization is
    deferred to whoever drains the tree.
    """

    def __init__(self, ctx: ExecutionContext, class_name: str,
                 path: AccessPath,
                 spatial: Box | None = None,
                 temporal: AbsTime | None = None,
                 filters: tuple[tuple[str, Any], ...] = (),
                 ranges: tuple[tuple[str, str, Any], ...] = (),
                 batch_size: int | None = None):
        self.ctx = ctx
        self.class_name = class_name
        self.path = path
        self.spatial = spatial
        self.temporal = temporal
        self.filters = filters
        self.ranges = ranges
        self.batch_size = batch_size
        self.estimated_rows = path.estimated_rows
        self.estimated_cost = path.cost

    @property
    def relation(self) -> str:
        return self.ctx.kernel.store.relation_for(self.class_name)

    def run_batches(self) -> Iterator[Batch]:
        for batch in self.ctx.kernel.store.iter_scan_batches(
            self.class_name, spatial=self.spatial, temporal=self.temporal,
            filters=self.filters, ranges=self.ranges, access_path=self.path,
            batch_size=self.batch_size,
        ):
            self.rows_out += batch.length
            yield batch


class HeapScan(_StoreScan):
    """Full heap scan of one class relation."""

    def label(self) -> str:
        return f"HeapScan({self.relation}) {self.path.describe()}"


class IndexScan(_StoreScan):
    """Index-driven scan: B-tree probe/range, grid cell or timeline."""

    def label(self) -> str:
        return (f"IndexScan({self.relation}.{self.path.column}) "
                f"{self.path.describe()}")


class IndexOnlyScan(PhysicalOperator):
    """Covering scan: rows come straight off the B-tree keys.

    Yields ``{column: key}`` dict rows; the heap values are never
    fetched (only version headers, for visibility).  Only planned when
    the key supplies every projected attribute and every predicate.
    """

    def __init__(self, ctx: ExecutionContext, class_name: str,
                 path: AccessPath, batch_size: int | None = None):
        self.ctx = ctx
        self.class_name = class_name
        self.path = path
        self.batch_size = batch_size
        self.estimated_rows = path.estimated_rows
        self.estimated_cost = path.cost

    def label(self) -> str:
        relation = self.ctx.kernel.store.relation_for(self.class_name)
        return (f"IndexOnlyScan({relation}.{self.path.column}) "
                f"{self.path.describe()}")

    def run_batches(self) -> Iterator[Batch]:
        for batch in self.ctx.kernel.store.iter_index_only_batches(
            self.class_name, self.path, batch_size=self.batch_size,
        ):
            self.rows_out += batch.length
            yield batch


# -- row transforms -----------------------------------------------------------


class Filter(PhysicalOperator):
    """Predicate re-check: one boolean-mask evaluation per batch, with
    row accounting.

    ``mask_fn`` is a compiled batch-level predicate (see
    :func:`~repro.query.expressions.compile_predicate_mask` /
    ``compile_extent_mask``).
    """

    def __init__(self, child: PhysicalOperator,
                 mask_fn: Callable[[Batch], np.ndarray],
                 description: str, selectivity: float = 1.0):
        self.child = child
        self.mask_fn = mask_fn
        self.description = description
        self.estimated_rows = max(1.0, child.estimated_rows * selectivity)
        self.estimated_cost = child.estimated_cost \
            + child.estimated_rows * FILTER_ROW_COST

    @property
    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def label(self) -> str:
        return f"Filter({self.description})"

    def run_batches(self) -> Iterator[Batch]:
        for batch in self.child.run_batches():
            mask = self.mask_fn(batch)
            out = batch if bool(mask.all()) else batch.take(mask)
            if out.length == 0:
                continue
            self.rows_out += out.length
            yield out


class ExprProject(PhysicalOperator):
    """The select list: evaluate each item per batch.

    Column references, and registered ADT operator calls resolved
    through the kernel's :class:`~repro.adt.operators.OperatorRegistry`
    (``SELECT area(extent) FROM ...``); rows come out as plain dicts
    keyed by the item aliases.  A bare column passes through untouched,
    its explicit null mask with it: nothing scans an object column for
    NULLs it already carries in-band.
    """

    def __init__(self, child: PhysicalOperator,
                 items: tuple[SelectItem, ...], operators: Any):
        self.child = child
        self.items = items
        self.item_fns = tuple(
            (item.alias,
             compile_column(item.expr, explicit_nulls=True)
             if isinstance(item.expr, ColumnRef)
             else compile_vector_expr(item.expr, operators))
            for item in items
        )
        self.estimated_rows = child.estimated_rows
        self.estimated_cost = child.estimated_cost \
            + child.estimated_rows * FILTER_ROW_COST

    @property
    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def label(self) -> str:
        return f"ExprProject({', '.join(i.alias for i in self.items)})"

    def run_batches(self) -> Iterator[Batch]:
        aliases = tuple(alias for alias, _ in self.item_fns)
        for batch in self.child.run_batches():
            columns: dict[str, np.ndarray] = {}
            masks: dict[str, np.ndarray] = {}
            for alias, fn in self.item_fns:
                values, null = fn(batch)
                columns[alias] = values
                if null is not None and null.any():
                    masks[alias] = null
            out = Batch(length=batch.length, columns=columns, masks=masks,
                        order=aliases)
            self.rows_out += out.length
            yield out


class Sort(PhysicalOperator):
    """Explicit sort; keeps only the first k rows when a Limit sits above.

    ``keys`` pairs each key expression with its direction.  A pipeline
    breaker: the input concatenates into one slab and a stable
    ``np.argsort`` per key orders it (NULLs last, ties in input order —
    see :func:`~repro.query.batch.order_by_keys`).  ``top_k`` is pushed
    down from ``LIMIT k [OFFSET m]`` as ``k+m``; then each incoming
    batch is cut, with one ``np.partition``, to the rows whose primary
    key can still reach the first k — every row tied with the k-th key
    stays — so at most k + ties + one batch rows are ever held
    (``held_peak`` records the most).
    """

    held_peak: int = 0

    def __init__(self, child: PhysicalOperator,
                 keys: tuple[tuple[Any, bool], ...], operators: Any,
                 top_k: int | None = None):
        self.child = child
        self.keys = keys
        self.top_k = top_k
        self.key_fns = tuple(
            compile_vector_expr(expr, operators) for expr, _ in keys
        )
        n = max(1.0, child.estimated_rows)
        held = n if top_k is None else min(n, float(max(1, top_k)))
        self.estimated_rows = child.estimated_rows if top_k is None \
            else min(child.estimated_rows, float(top_k))
        self.estimated_cost = child.estimated_cost \
            + n * math.log2(max(2.0, held)) * SORT_ROW_COST

    @property
    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def label(self) -> str:
        rendered = []
        for expr, descending in self.keys:
            head = expr.describe() if hasattr(expr, "describe") else str(expr)
            rendered.append(f"{head} DESC" if descending else head)
        suffix = f" top-{self.top_k}" if self.top_k is not None else ""
        return f"Sort({', '.join(rendered)}{suffix})"

    def _contenders(self, batch: Batch, cut: Any = None
                    ) -> tuple[np.ndarray, Any]:
        """``(mask, cut)``: the rows whose primary key is ahead of or
        tied with *cut* — by default the k-th smallest (DESC: largest)
        key of *batch* — and that cut.  NULLs sort last and NaN as the
        largest value, as in :func:`~repro.query.batch.order_by_keys`.
        The cut is None when every row stays: the k-th key is NULL, or
        NaN objects make the order inconsistent."""
        k, descending = max(1, self.top_k), self.keys[0][1]
        values, null = self.key_fns[0](batch)
        live = np.flatnonzero(~null)
        keys = values[live]
        if keys.dtype.kind == "f":
            keys = np.where(np.isnan(keys), np.inf, keys)
        elif keys.dtype == object and bool((keys != keys).any()):
            return np.ones(batch.length, dtype=bool), None
        if cut is None:
            if live.size < k:
                return np.ones(batch.length, dtype=bool), None
            at = live.size - k if descending else k - 1
            cut = np.partition(keys, at)[at]
        keep = np.zeros(batch.length, dtype=bool)
        keep[live[keys >= cut if descending else keys <= cut]] = True
        return keep, cut

    def run_batches(self) -> Iterator[Batch]:
        batches: list[Batch] = []
        held, cut = 0, None
        for batch in self.child.run_batches():
            self.held_peak = max(self.held_peak, held + batch.length)
            if self.top_k is None:
                batches.append(batch)
                held += batch.length
                continue
            if cut is not None:
                # Only rows that beat or tie the held k-th key can enter.
                ahead, _ = self._contenders(batch, cut)
                if not ahead.any():
                    continue
                batch = batch.take(ahead)
            staged = Batch.concat(batches + [batch])
            keep, cut = self._contenders(staged)
            batches = [staged.take(keep)]
            held = batches[0].length
        if not batches:
            return
        big = Batch.concat(batches)
        key_specs = []
        for fn, (_, descending) in zip(self.key_fns, self.keys):
            values, null = fn(big)
            key_specs.append((values, null, descending))
        order = order_by_keys(key_specs, big.length)
        if self.top_k is not None:
            order = order[:self.top_k]
        out = big.take(order)
        self.rows_out += out.length
        if out.length:
            yield out


class Limit(PhysicalOperator):
    """``LIMIT n [OFFSET m]``: stop the child stream after n rows."""

    def __init__(self, child: PhysicalOperator,
                 limit: int | None = None, offset: int = 0):
        self.child = child
        self.limit = limit
        self.offset = offset
        remaining = max(0.0, child.estimated_rows - offset)
        self.estimated_rows = remaining if limit is None \
            else min(remaining, float(limit))
        self.estimated_cost = child.estimated_cost

    @property
    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def label(self) -> str:
        parts = []
        if self.limit is not None:
            parts.append(str(self.limit))
        if self.offset:
            parts.append(f"OFFSET {self.offset}")
        return f"Limit({' '.join(parts)})"

    def run_batches(self) -> Iterator[Batch]:
        # Batch slicing: offset rows are dropped and the final batch is
        # cut at the limit boundary; the child stops being driven as
        # soon as the quota is filled.
        if self.limit == 0:
            return
        to_skip = self.offset
        for batch in self.child.run_batches():
            if to_skip:
                if batch.length <= to_skip:
                    to_skip -= batch.length
                    continue
                batch = batch.slice_rows(to_skip)
                to_skip = 0
            if self.limit is not None:
                remaining = self.limit - self.rows_out
                if batch.length > remaining:
                    batch = batch.slice_rows(0, remaining)
            if batch.length == 0:
                continue
            self.rows_out += batch.length
            yield batch
            if self.limit is not None and self.rows_out >= self.limit:
                return


class HashAggregate(PhysicalOperator):
    """Grouping + aggregate accumulation over the whole input.

    Output rows are dicts keyed by the select-item aliases, in
    first-seen group order.  A scalar aggregate (no GROUP BY) over an
    empty input still yields its one row — ``count`` 0, other
    aggregates None.
    """

    def __init__(self, child: PhysicalOperator,
                 group_refs: tuple[ColumnRef, ...],
                 items: tuple[SelectItem, ...], operators: Any):
        self.child = child
        self.group_refs = group_refs
        self.items = items
        self.group_fns = tuple(
            compile_vector_expr(ref, operators) for ref in group_refs
        )
        # (alias, kind, fn): kind is the aggregate function,
        # "count_star", or "expr" for a bare group-key item.
        self.item_specs: tuple[tuple[str, str, VectorExpr | None], ...] = \
            tuple(self._item_spec(item, operators) for item in items)
        n = child.estimated_rows
        self.estimated_rows = max(1.0, math.sqrt(n)) if group_refs else 1.0
        self.estimated_cost = child.estimated_cost + n * HASH_ROW_COST

    @staticmethod
    def _item_spec(item: SelectItem, operators: Any
                   ) -> tuple[str, str, VectorExpr | None]:
        expr = item.expr
        if not isinstance(expr, AggCall):
            return item.alias, "expr", compile_vector_expr(expr, operators)
        if expr.arg is None:
            return item.alias, "count_star", None
        return item.alias, expr.func, compile_vector_expr(expr.arg, operators)

    @property
    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def label(self) -> str:
        groups = ", ".join(ref.describe() for ref in self.group_refs)
        aggs = ", ".join(item.alias for item in self.items
                         if isinstance(item.expr, AggCall))
        if groups:
            return f"HashAggregate({groups}; {aggs})"
        return f"HashAggregate({aggs})"

    @staticmethod
    def _segment_reduce(kind: str, values: np.ndarray, null: np.ndarray,
                        order: np.ndarray, starts: np.ndarray) -> list:
        """One aggregate column over the grouped slab, as a Python list.

        Typed numeric columns reduce with ``np.add.reduceat`` /
        ``minimum.reduceat`` over NULL-filled copies; object-dtype (and
        bool) columns run an :class:`Accumulator` per segment,
        preserving exact Python arithmetic semantics either way.
        """
        sorted_vals = values[order]
        sorted_null = null[order]
        counts = np.add.reduceat((~sorted_null).astype(np.int64), starts)
        if kind == "count":
            return counts.tolist()
        numeric = sorted_vals.dtype != object \
            and sorted_vals.dtype != np.bool_
        if not numeric:
            ends = np.append(starts[1:], order.shape[0])
            out = []
            for lo, hi in zip(starts.tolist(), ends.tolist()):
                accumulator = Accumulator(kind)
                vals = sorted_vals[lo:hi].tolist()
                nulls = sorted_null[lo:hi].tolist()
                for v, is_null in zip(vals, nulls):
                    accumulator.add(None if is_null else v)
                out.append(accumulator.result())
            return out
        is_int = np.issubdtype(sorted_vals.dtype, np.integer)
        counts_list = counts.tolist()
        if kind in ("sum", "avg"):
            filled = np.where(sorted_null, 0, sorted_vals)
            totals = np.add.reduceat(filled, starts)
            if kind == "sum":
                raw = totals.tolist()
                return [None if c == 0 else v
                        for v, c in zip(raw, counts_list)]
            raw = totals.tolist()
            return [None if c == 0 else v / c
                    for v, c in zip(raw, counts_list)]
        if kind == "min":
            sentinel = np.iinfo(np.int64).max if is_int else np.inf
            filled = np.where(sorted_null, sentinel, sorted_vals)
            raw = np.minimum.reduceat(filled, starts).tolist()
        else:  # max
            sentinel = np.iinfo(np.int64).min if is_int else -np.inf
            filled = np.where(sorted_null, sentinel, sorted_vals)
            raw = np.maximum.reduceat(filled, starts).tolist()
        return [None if c == 0 else v for v, c in zip(raw, counts_list)]

    def run_batches(self) -> Iterator[Batch]:
        big = Batch.concat(list(self.child.run_batches()))
        n = big.length
        names = tuple(alias for alias, _, _ in self.item_specs)
        if n == 0:
            if self.group_refs:
                return
            # Scalar aggregate over nothing: one row of empty results.
            columns = {
                alias: object_column([0 if kind.startswith("count") else None])
                for alias, kind, _ in self.item_specs
            }
            self.rows_out += 1
            yield Batch(length=1, columns=columns, order=names)
            return
        order, starts, first_seen = group_rows(
            [fn(big) for fn in self.group_fns], n
        )
        # Emit groups in first-encountered order.
        emit = np.argsort(first_seen, kind="stable")
        counts_all = np.append(starts[1:], n) - starts
        columns: dict[str, np.ndarray] = {}
        for alias, kind, fn in self.item_specs:
            if kind == "count_star":
                columns[alias] = object_column(counts_all[emit].tolist())
                continue
            values, null = fn(big)
            if kind == "expr":
                sample = first_seen[emit]
                picked = values[sample].tolist()
                picked_null = null[sample].tolist()
                columns[alias] = object_column(
                    [None if m else v for v, m in zip(picked, picked_null)]
                )
                continue
            reduced = self._segment_reduce(kind, values, null, order, starts)
            columns[alias] = object_column([reduced[i] for i in emit.tolist()])
        out = Batch(length=int(starts.shape[0]), columns=columns, order=names)
        self.rows_out += out.length
        yield out


# -- joins --------------------------------------------------------------------


class HashJoin(PhysicalOperator):
    """Two-source equi-join: hash the smaller input, probe the other.

    Output rows are dicts keyed ``source.attr`` (see
    :meth:`Batch.joined`); ``left_attrs`` / ``right_attrs`` are the
    attributes each source can have, so a concept member lacking one
    still gets the column, as NULL.  Rows whose join key is NULL never
    match (SQL NULL semantics).
    """

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator,
                 left_ref: ColumnRef, right_ref: ColumnRef,
                 left_name: str, right_name: str,
                 left_attrs: tuple[str, ...] = (),
                 right_attrs: tuple[str, ...] = ()):
        self.left = left
        self.right = right
        self.left_ref = left_ref
        self.right_ref = right_ref
        self.left_key = compile_column(left_ref)
        self.right_key = compile_column(right_ref)
        self.left_name = left_name
        self.right_name = right_name
        self.left_attrs = left_attrs
        self.right_attrs = right_attrs
        l_rows = left.estimated_rows
        r_rows = right.estimated_rows
        # Equi-join heuristic without key statistics: FK-shaped joins
        # return about as many rows as the bigger side.
        self.estimated_rows = max(l_rows, r_rows)
        self.estimated_cost = left.estimated_cost + right.estimated_cost \
            + (l_rows + r_rows) * JOIN_ROW_COST

    @property
    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        return (f"HashJoin({self.left_name}.{self.left_ref.attr} = "
                f"{self.right_name}.{self.right_ref.attr})")

    def run_batches(self) -> Iterator[Batch]:
        build_left = self.left.estimated_rows < self.right.estimated_rows
        if build_left:
            build_op, probe_op = self.left, self.right
            build_key, probe_key = self.left_key, self.right_key
        else:
            build_op, probe_op = self.right, self.left
            build_key, probe_key = self.right_key, self.left_key
        # The build side may be a concept union over several classes:
        # concat aligns the member layouts into one slab.
        build = Batch.concat(list(build_op.run_batches()))
        table = JoinKeys(*build_key(build))
        for batch in probe_op.run_batches():
            probe_rows, build_rows = table.pairs(*probe_key(batch))
            if not probe_rows.size:
                continue
            probed, built = batch.take(probe_rows), build.take(build_rows)
            left, right = (built, probed) if build_left else (probed, built)
            out = Batch.joined(left, right, self.left_name, self.right_name,
                               self.left_attrs, self.right_attrs)
            self.rows_out += out.length
            yield out


class IndexNestedLoopJoin(PhysicalOperator):
    """Equi-join driven by index probes on the right class, a run of
    left rows at a time.

    Each non-NULL left row of a run opens one B-tree equality probe of
    the right class, the right side's own predicates pushed in; the
    run's candidates are fetched once (:meth:`ClassStore.probe_batch`),
    re-checked with compiled masks and paired with the run's keys by
    :class:`~repro.query.batch.JoinKeys`.  The runs start at one row
    and double, so a ``Limit`` above stops the probing within twice the
    probes a row-at-a-time loop would have made.  A join on the ``oid``
    pseudo-attribute (imagery → derivation provenance) fetches each
    key's object instead.  Chosen over :class:`HashJoin` when the left
    side is small and the right side probes cheaply.  ``left_attrs`` is
    :class:`HashJoin`'s (the right rows are whole objects of one class).
    """

    def __init__(self, ctx: ExecutionContext, left: PhysicalOperator,
                 left_ref: ColumnRef, right_class: str,
                 right_ref: ColumnRef, left_name: str, right_name: str,
                 spatial: Box | None = None,
                 temporal: AbsTime | None = None,
                 filters: tuple[tuple[str, Any], ...] = (),
                 ranges: tuple[tuple[str, str, Any], ...] = (),
                 per_probe_rows: float = 1.0,
                 left_attrs: tuple[str, ...] = ()):
        self.ctx = ctx
        self.left = left
        self.left_ref = left_ref
        self.left_key = compile_column(left_ref)
        self.right_class = right_class
        self.right_ref = right_ref
        self.right_key = compile_column(right_ref)
        self.left_name = left_name
        self.right_name = right_name
        self.left_attrs = left_attrs
        self.spatial = spatial
        self.temporal = temporal
        self.filters = filters
        self.ranges = ranges
        self.per_probe_rows = per_probe_rows
        self._checks: tuple[Callable[[Batch], np.ndarray], ...] = ()
        if spatial is not None or temporal is not None or filters or ranges:
            self._checks = (
                compile_extent_mask(ctx.kernel.classes.get(right_class),
                                    spatial, temporal),
                compile_predicate_mask(filters, ranges),
            )
        # §2.1.5 on the probe side: the first probe miss triggers one
        # interpolate/derive attempt for the right class at the join's
        # extents; produced objects answer this and later misses.
        self.probe_fallback: str | None = None
        self._fallback_tried = False
        self._fallback: tuple[Batch, JoinKeys] | None = None
        l_rows = left.estimated_rows
        self.estimated_rows = max(1.0, l_rows * per_probe_rows)
        self.estimated_cost = left.estimated_cost + l_rows * (
            INDEX_PROBE_COST + per_probe_rows * INDEX_ROW_COST
        )

    @property
    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.left,)

    def label(self) -> str:
        return (f"IndexNestedLoopJoin({self.left_name}.{self.left_ref.attr}"
                f" = {self.right_name}.{self.right_ref.attr})"
                f" probe={self.right_class}.{self.right_ref.attr}")

    def _right_rows(self, keys: list[Any]) -> Batch:
        """The right class's candidate rows for a run's non-NULL *keys*."""
        store = self.ctx.kernel.store
        if self.right_ref.attr != "oid":
            return store.probe_batch(
                self.right_class, self.right_ref.attr, keys,
                spatial=self.spatial, temporal=self.temporal,
                filters=self.filters, ranges=self.ranges)
        found = []
        for key in dict.fromkeys(keys):
            try:
                obj = store.get(key)
            except UnknownClassError:
                continue
            if obj.class_name == self.right_class:
                found.append(obj)
        return Batch.from_objects(
            found, self.ctx.kernel.classes.get(self.right_class))

    def _checked(self, right: Batch) -> Batch:
        """*right* less the rows failing the extents, then the attribute
        predicates: a :class:`FallbackSwitch`'s stored-branch filters."""
        if not self._checks:
            return right
        extent, predicate = self._checks
        right = right.take(extent(right))
        return right.take(predicate(right))

    def _attempt_probe_fallback(self) -> None:
        """One-shot §2.1.5 for probe misses.  A miss is an unsatisfied
        predicate unless nothing stored covers the join's extents; only
        then do steps 2–3 run for the right class.  Their objects are
        kept aside and matched by key on this and later misses, with no
        re-probe through storage."""
        self._fallback_tried = True
        planner = self.ctx.kernel.planner
        if planner.stored_answers(self.right_class, self.spatial,
                                  self.temporal, has_predicates=True,
                                  found=0):
            return
        try:
            result = planner.run_fallbacks(
                self.right_class, self.spatial, self.temporal,
                filters=self.filters, ranges=self.ranges,
                marking_cache=self.ctx.marking_cache,
            )
        except UnderivableError:
            return
        self.probe_fallback = result.path
        if result.objects:
            produced = Batch.from_objects(
                result.objects, self.ctx.kernel.classes.get(self.right_class))
            self._fallback = (produced, JoinKeys(*self.right_key(produced)))

    def _join_run(self, batch: Batch, start: int, values: np.ndarray,
                  null: np.ndarray, keys: list[Any]) -> Batch | None:
        """One run's output: the left rows ``start:start+len(keys)`` of
        *batch* paired with their right rows (None when nothing pairs)."""
        live = [key for key in keys if key is not None]
        if not live:
            return None
        right = self._checked(self._right_rows(live))
        probe_rows, build_rows = JoinKeys(*self.right_key(right)).pairs(
            values, null)
        paired = np.zeros(len(keys), dtype=bool)
        paired[probe_rows] = True
        missed = np.flatnonzero(~null & ~paired)
        if missed.size and not self._fallback_tried:
            self._attempt_probe_fallback()
        if missed.size and self._fallback is not None:
            produced, produced_keys = self._fallback
            more, found = produced_keys.pairs(values[missed], null[missed])
            if right.length:
                found = found + right.length
                produced = Batch.concat([right, produced])
            right = produced
            probe_rows = np.concatenate([probe_rows, missed[more]])
            build_rows = np.concatenate([build_rows, found])
            order = np.argsort(probe_rows, kind="stable")
            probe_rows, build_rows = probe_rows[order], build_rows[order]
        if not probe_rows.size:
            return None
        return Batch.joined(batch.take(probe_rows + start),
                            right.take(build_rows), self.left_name,
                            self.right_name, self.left_attrs)

    def run_batches(self) -> Iterator[Batch]:
        span = 1  # left rows probed per output batch; doubles
        for batch in self.left.run_batches():
            values, null = self.left_key(batch)
            keys = nulls_in_band(values, null).tolist()
            start = 0
            while start < batch.length:
                stop = min(batch.length, start + span)
                out = self._join_run(batch, start, values[start:stop],
                                     null[start:stop], keys[start:stop])
                start = stop
                span *= 2
                if out is not None:
                    self.rows_out += out.length
                    yield out


# -- planner-answered leaves and the fallback switch --------------------------


class _PlannerLeaf(PhysicalOperator):
    """A leaf the retrieval planner answers: one
    :class:`~repro.core.planner.RetrievalResult`, kept as ``result``,
    whose objects stream as one batch."""

    def __init__(self, ctx: ExecutionContext, class_name: str,
                 spatial: Box | None, temporal: AbsTime | None):
        self.ctx = ctx
        self.class_name = class_name
        self.spatial = spatial
        self.temporal = temporal
        self.estimated_rows = 1.0
        self.estimated_cost = DERIVE_COST

    def label(self) -> str:
        return f"{type(self).__name__}({self.class_name})"

    def _ask_planner(self) -> RetrievalResult:
        raise NotImplementedError

    def run_batches(self) -> Iterator[Batch]:
        self.result = self._ask_planner()
        if self.result.objects:
            self.rows_out += len(self.result.objects)
            yield Batch.from_objects(
                self.result.objects,
                self.ctx.kernel.classes.get(self.class_name),
            )


class Derive(_PlannerLeaf):
    """The forced ``DERIVE`` statement: Petri-net backward derivation
    even when matching data is already stored."""

    def _ask_planner(self) -> RetrievalResult:
        return self.ctx.kernel.planner.derive(
            self.class_name, spatial=self.spatial, temporal=self.temporal,
            marking_cache=self.ctx.marking_cache,
        )


class Fallback(_PlannerLeaf):
    """§2.1.5 steps 2–3 for a retrieval whose stored scan found nothing
    at the extents: one ``run_fallbacks`` call, which walks the
    planner's fallback order, lets the derivation inherit the scan's
    emptiness instead of re-scanning, and re-checks the (normalized)
    attribute predicates."""

    def __init__(self, ctx: ExecutionContext, class_name: str,
                 spatial: Box | None, temporal: AbsTime | None,
                 filters: tuple[tuple[str, Any], ...],
                 ranges: tuple[tuple[str, str, Any], ...]):
        super().__init__(ctx, class_name, spatial, temporal)
        self.filters = filters
        self.ranges = ranges

    def _ask_planner(self) -> RetrievalResult:
        return self.ctx.kernel.planner.run_fallbacks(
            self.class_name, self.spatial, self.temporal,
            filters=self.filters, ranges=self.ranges,
            marking_cache=self.ctx.marking_cache,
        )


#: The outcome record of a retrieval its stored scan answered (the rows
#: themselves only ever stream as batches).
_STORED = RetrievalResult(objects=(), path="retrieve")


class FallbackSwitch(PhysicalOperator):
    """Stored retrieval with §2.1.5 fallbacks, scan-once semantics.

    Streams the stored child; only when it is exhausted *empty* does
    the switch hand the scan's own counters to the retrieval planner's
    step-1 verdict (``RetrievalPlanner.stored_answers``): "predicates
    rejected everything" is an empty answer, "nothing stored at these
    extents" runs the :class:`Fallback` leaf.  ``extent_counter`` is the operator whose
    ``rows_out`` counts the scan's extent matches — None when the
    access path prunes by attribute before extents are seen.  With
    *sort_keys* (an ordered index scan replaced the statement's Sort)
    the leaf — whose output the index cannot order — gets a Sort of its
    own, so the order contract holds on every path.
    """

    def __init__(self, stored: PhysicalOperator,
                 extent_counter: PhysicalOperator | None,
                 fallback: Fallback,
                 sort_keys: tuple[tuple[Any, bool], ...] | None = None):
        self.stored = stored
        self.extent_counter = extent_counter
        self.fallback = fallback
        self.fallback_tree: PhysicalOperator = fallback
        if sort_keys is not None:
            self.fallback_tree = Sort(fallback, sort_keys,
                                      fallback.ctx.kernel.operators)
        self.estimated_rows = stored.estimated_rows
        self.estimated_cost = stored.estimated_cost

    @property
    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.stored, self.fallback_tree)

    def label(self) -> str:
        return f"FallbackSwitch({self.fallback.class_name})"

    def run_batches(self) -> Iterator[Batch]:
        for batch in self.stored.run_batches():
            if batch.length:
                self.rows_out += batch.length
                yield batch
        asked = self.fallback
        counter = self.extent_counter
        if asked.ctx.kernel.planner.stored_answers(
                asked.class_name, asked.spatial, asked.temporal,
                bool(asked.filters or asked.ranges), self.rows_out,
                None if counter is None else counter.rows_out):
            self.result = _STORED
            return
        batches = list(self.fallback_tree.run_batches())
        self.result = asked.result
        for batch in batches:
            self.rows_out += batch.length
            yield batch


class ConceptUnion(PhysicalOperator):
    """Union of a concept's member subtrees, cheapest first.

    One shared :class:`ExecutionContext` means the members' fallback
    derivations share supply probes; the cost ordering means cheap
    (indexed, small) members stream before expensive ones.  Members of
    different classes stream their own batch layouts; a pipeline
    breaker above aligns them (:meth:`Batch.concat`).
    """

    def __init__(self, concept: str,
                 members: tuple[PhysicalOperator, ...]):
        self.concept = concept
        self.members = tuple(sorted(members,
                                    key=lambda op: op.estimated_cost))
        self.estimated_rows = sum(m.estimated_rows for m in self.members)
        self.estimated_cost = sum(m.estimated_cost for m in self.members)

    @property
    def children(self) -> tuple[PhysicalOperator, ...]:
        return self.members

    def label(self) -> str:
        return (f"ConceptUnion({self.concept}: "
                f"{len(self.members)} members)")

    def run_batches(self) -> Iterator[Batch]:
        for member in self.members:
            for batch in member.run_batches():
                self.rows_out += batch.length
                yield batch


# -- process execution --------------------------------------------------------


class Run(PhysicalOperator):
    """``RUN process WITH arg = (oids)`` as a leaf operator."""

    def __init__(self, ctx: ExecutionContext, process: str,
                 bindings: tuple[tuple[str, tuple[int, ...]], ...]):
        self.ctx = ctx
        self.process = process
        self.bindings = bindings
        self.task_id: str | None = None
        self.reused = False
        oid_count = sum(len(oids) for _, oids in bindings)
        self.estimated_rows = 1.0
        # Bound-object fetches plus one firing (dominated by the
        # process body, like Derive).
        self.estimated_cost = DERIVE_COST / 4 + oid_count

    def label(self) -> str:
        bound = ", ".join(
            f"{arg}=({', '.join(map(str, oids))})"
            for arg, oids in self.bindings
        )
        return f"Run({self.process}{' WITH ' + bound if bound else ''})"

    def run_batches(self) -> Iterator[Batch]:
        kernel = self.ctx.kernel
        derivations = kernel.derivations
        if self.process in derivations.compounds:
            spec_args = derivations.compounds.get(self.process).arguments
        else:
            spec_args = derivations.processes.get(self.process).arguments
        given = dict(self.bindings)
        bindings: dict[str, Any] = {}
        for arg in spec_args:
            if arg.name not in given:
                raise UnderivableError(
                    f"RUN {self.process}: argument {arg.name!r} unbound"
                )
            objects = [kernel.store.get(oid) for oid in given[arg.name]]
            bindings[arg.name] = objects if arg.is_set else objects[0]
        if self.process in derivations.compounds:
            result = derivations.execute_compound(self.process, bindings)
        else:
            result = derivations.execute_process(self.process, bindings)
        self.task_id = result.task.task_id
        self.reused = result.reused
        self.rows_out += 1
        yield Batch.from_objects(
            [result.output], kernel.classes.get(result.output.class_name)
        )
