"""Value-expression compilation for the extended SELECT algebra.

The parser builds :class:`~repro.query.ast.ColumnRef` /
:class:`~repro.query.ast.OpCall` / :class:`~repro.query.ast.AggCall`
trees; this module compiles them — and the retrieval predicates — into
functions over a :class:`~repro.query.batch.Batch`, whatever the batch
carries: class objects off a scan, projection/aggregate output, or a
join's ``side.attr`` columns.  It also supplies the per-group
:class:`Accumulator` ``HashAggregate`` uses for object-valued columns.

``OpCall`` dispatches through the kernel's
:class:`~repro.adt.operators.OperatorRegistry` (type-checked apply), so
the GIS layer's named operators are directly queryable:
``SELECT area(extent) FROM ...``.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

import numpy as np

from ..adt.operators import OperatorRegistry
from ..core.classes import COMPARISONS
from ..errors import DerivationError
from .ast import AggCall, ColumnRef, OpCall
from .batch import Batch, null_mask

__all__ = ["Accumulator", "nulls_in_band", "compile_column",
           "compile_vector_expr", "compile_predicate_mask",
           "compile_extent_mask"]


class Accumulator:
    """One aggregate's running state (per group)."""

    def __init__(self, func: str):
        self.func = func
        self.count = 0
        self.total: Any = None
        self.low: Any = None
        self.high: Any = None

    def add(self, value: Any) -> None:
        if value is None:
            return  # SQL-style: NULLs don't feed aggregates
        self.count += 1
        if self.func in ("sum", "avg"):
            self.total = value if self.total is None else self.total + value
        elif self.func == "min":
            if self.low is None or value < self.low:
                self.low = value
        elif self.func == "max":
            if self.high is None or value > self.high:
                self.high = value

    def result(self) -> Any:
        if self.func == "count":
            return self.count
        if self.func == "sum":
            return self.total
        if self.func == "avg":
            return None if self.count == 0 else self.total / self.count
        if self.func == "min":
            return self.low
        return self.high


# ----------------------------------------------------------------------
# Expression compilation
# ----------------------------------------------------------------------
#
# ``compile_vector_expr`` turns any value expression into a function over
# a :class:`Batch` returning ``(values, null_mask)`` arrays.  Column
# references are array lookups; a registry operator call is a ufunc
# (``np.frompyfunc``) over the type-checked ``OperatorRegistry.apply``,
# so every registered operator — whatever its Python body — keeps its
# per-element semantics, NULL arguments included.

#: ``fn(batch) -> (values, null_mask)`` — a compiled vector expression.
VectorExpr = Callable[[Batch], tuple[np.ndarray, np.ndarray]]


def _first_column(batch: Batch, names: Iterable[str],
                  explicit_nulls: bool = False
                  ) -> tuple[np.ndarray, np.ndarray | None]:
    """The first of *names* the batch has as a column.  With
    *explicit_nulls* its mask is only the batch's explicit one (None:
    any NULLs are in-band), never computed."""
    for name in names:
        arr = batch.column(name)
        if arr is not None:
            if explicit_nulls:
                return arr, batch.masks.get(name)
            return arr, batch.mask(name)
    # A column the rows do not have reads as NULL.
    return (np.full(batch.length, None, dtype=object),
            np.ones(batch.length, dtype=bool))


def _literal_vector(value: Any) -> VectorExpr:
    def broadcast(batch: Batch) -> tuple[np.ndarray, np.ndarray]:
        arr = np.full(batch.length, value, dtype=object) \
            if not isinstance(value, (int, float, bool)) or value is None \
            else np.full(batch.length, value)
        null = np.full(batch.length, value is None, dtype=bool)
        return arr, null

    return broadcast


def nulls_in_band(values: np.ndarray, null: np.ndarray) -> np.ndarray:
    """*values* with masked slots as ``None`` — what per-element Python
    code (an operator application, a join's hash table) must see: the
    mask's filler is not a value."""
    if values.dtype == object or not null.any():
        return values
    out = values.astype(object)
    out[null] = None
    return out


def compile_column(ref: ColumnRef,
                   explicit_nulls: bool = False) -> VectorExpr:
    """Column lookup for *ref*.

    On a join's output every column is ``side.attr``: a qualified
    reference reads that side's column and nothing else (NULL when the
    side has no such attribute), an unqualified one the left side's,
    else the right's.  Anywhere else the rendered name comes first —
    an aggregate output's alias — then the bare attribute.  With
    *explicit_nulls* the mask may be None (see :func:`_first_column`):
    for a consumer that passes the column on rather than reading it.
    """
    rendered = ref.describe()

    def fetch(batch: Batch) -> tuple[np.ndarray, np.ndarray | None]:
        if batch.sides is None:
            names: Iterable[str] = (rendered, ref.attr)
        elif ref.qualifier is None:
            names = (f"{side}.{ref.attr}" for side in batch.sides)
        else:
            names = (rendered,)
        return _first_column(batch, names, explicit_nulls)

    return fetch


def compile_vector_expr(expr: Any, operators: OperatorRegistry) -> VectorExpr:
    """Compile *expr* to a batch-level evaluator."""
    if isinstance(expr, ColumnRef):
        return compile_column(expr)
    if isinstance(expr, OpCall):
        name = expr.operator
        if not any(isinstance(arg, (ColumnRef, OpCall, AggCall))
                   for arg in expr.args):
            # Constant folding: evaluate once at compile time, broadcast.
            return _literal_vector(operators.apply(name, *expr.args))
        arg_fns = [compile_vector_expr(arg, operators) for arg in expr.args]
        ufunc = np.frompyfunc(
            lambda *vals: operators.apply(name, *vals), len(arg_fns), 1
        )

        def run(batch: Batch) -> tuple[np.ndarray, np.ndarray]:
            arg_arrays = [nulls_in_band(*fn(batch)) for fn in arg_fns]
            out = ufunc(*arg_arrays) if batch.length else \
                np.empty(0, dtype=object)
            out = np.asarray(out, dtype=object)
            return out, null_mask(out)

        return run
    if isinstance(expr, AggCall):
        # Post-aggregate batches carry the computed value under the
        # call's rendered alias.
        alias = expr.describe()
        return lambda batch: _first_column(batch, (alias,))
    return _literal_vector(expr)


def compile_predicate_mask(
    filters: tuple[tuple[str, Any], ...],
    ranges: tuple[tuple[str, str, Any], ...],
) -> Callable[[Batch], np.ndarray]:
    """A batch-level predicate mask with :func:`matches_predicates`'s exact
    semantics: equality filters first (NULL matches only a NULL literal),
    then range predicates evaluated only on still-passing rows (a NULL
    satisfies none), raising :class:`DerivationError` on incomparable
    stored values."""

    def predicate(batch: Batch) -> np.ndarray:
        keep = np.ones(batch.length, dtype=bool)
        for attr, value in filters:
            arr = batch.column(attr)
            if arr is None:
                arr = np.full(batch.length, None, dtype=object)
            mask = batch.mask(attr)
            if mask is None:
                mask = np.zeros(batch.length, dtype=bool)
            if value is None:
                keep &= mask
            else:
                try:
                    eq = np.asarray(arr == value, dtype=bool)
                except (TypeError, ValueError):
                    eq = np.fromiter((v == value for v in arr.tolist()),
                                     dtype=bool, count=batch.length)
                if eq.shape != keep.shape:  # non-broadcastable comparison
                    eq = np.fromiter((v == value for v in arr.tolist()),
                                     dtype=bool, count=batch.length)
                keep &= eq & ~mask
        for attr, op, value in ranges:
            if not keep.any():
                break
            arr = batch.column(attr)
            if arr is None:
                arr = np.full(batch.length, None, dtype=object)
            mask = batch.mask(attr)
            keep &= ~(null_mask(arr) if mask is None else mask)
            live = np.flatnonzero(keep)
            candidates = arr[live]
            try:
                if arr.dtype == object:
                    comparator = COMPARISONS[op]
                    passed = np.fromiter(
                        (comparator(v, value) for v in candidates.tolist()),
                        dtype=bool, count=candidates.shape[0],
                    )
                else:
                    passed = np.asarray(
                        COMPARISONS[op](candidates, value), dtype=bool
                    )
            except TypeError as exc:
                bad = [v for v in candidates.tolist()
                       if _incomparable(op, v, value)]
                offender = bad[0] if bad else candidates.tolist()[0]
                raise DerivationError(
                    f"range predicate {attr} {op} {value!r} is not "
                    f"comparable with stored value {offender!r}"
                ) from exc
            keep[live[~passed]] = False
        return keep

    return predicate


def _incomparable(op: str, stored: Any, literal: Any) -> bool:
    try:
        COMPARISONS[op](stored, literal)
        return False
    except TypeError:
        return True


def compile_extent_mask(cls: Any, spatial: Any,
                        temporal: Any) -> Callable[[Batch], np.ndarray]:
    """Batch-level spatio-temporal extent mask (``matches_extents``
    semantics: overlap for space, exact match for time)."""
    spatial_attr = cls.spatial_attr if spatial is not None else None
    temporal_attr = cls.temporal_attr if temporal is not None else None
    overlaps = np.frompyfunc(lambda e: e.overlaps(spatial), 1, 1) \
        if spatial_attr is not None else None

    def extent(batch: Batch) -> np.ndarray:
        keep = np.ones(batch.length, dtype=bool)
        if overlaps is not None and batch.length:
            extents = batch.column(spatial_attr)
            keep &= overlaps(extents).astype(bool)
        if temporal_attr is not None and batch.length:
            stamps = batch.column(temporal_attr)
            keep &= np.asarray(stamps == temporal, dtype=bool)
        return keep

    return extent
