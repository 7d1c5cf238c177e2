"""Columnar batches: the unit of query execution.

A :class:`Batch` is a fixed-length slab of rows stored column-wise as NumPy
arrays.  Numeric attribute types (``int4``/``float4``/``float8``/``bool``)
become typed arrays with an optional boolean *null mask* (``True`` marks a
SQL NULL); every other type — ``char16``/``text`` strings and the ADTs
(``Box``, ``AbsTime``, ``Image``, matrices) — is carried in an
``object``-dtype array holding the original Python objects, so a round trip
through a batch is exact.

Batches flow between the physical operators (see ``query/operators.py``);
every operator consumes and produces them.  ``to_rows()`` is the consumer
edge: it rebuilds :class:`~repro.core.classes.SciObject` rows (when the
batch is class-backed) or plain dict rows (projection/aggregate/join
output) one final time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

import numpy as np

# The column builders live with the stored columns they build.
from repro.storage.columns import (NUMERIC_DTYPES, Column, build_column,
                                   build_columns, object_column)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.classes import NonPrimitiveClass, SciObject

DEFAULT_BATCH_SIZE = 1024

OID_TYPE = "int4"


def null_mask(values: np.ndarray) -> np.ndarray:
    """True where *values* holds an in-band NULL (``None``); typed arrays
    carry their NULLs in a separate mask and read all-False here."""
    if values.dtype == object:
        return np.fromiter((v is None for v in values), dtype=bool,
                           count=values.shape[0])
    return np.zeros(values.shape[0], dtype=bool)


@dataclass
class Batch:
    """A columnar slab of rows.

    ``columns`` maps column name → array of length ``length``.  ``masks``
    holds null masks for typed columns only (object columns carry ``None``
    in-band).  ``class_name`` is set when the rows are full objects of one
    class — then an ``oid`` column is present and ``to_rows`` yields
    ``SciObject`` instances; otherwise rows are plain dicts.

    A batch concatenated from several classes (a concept union reaching a
    pipeline breaker) has ``row_classes`` — each row's class name — and
    ``class_attrs`` — each class's own attribute list — instead of one
    ``class_name``, so every row still comes back as an object of its own
    class carrying only its own attributes.

    A join's output (:meth:`joined`) names every column ``source.attr``
    and records the two source names in ``sides``: that is what tells a
    column lookup that a qualified reference names one side only.
    """

    length: int
    columns: dict[str, np.ndarray]
    masks: dict[str, np.ndarray] = field(default_factory=dict)
    class_name: str | None = None
    order: tuple[str, ...] | None = None  # column order for dict rows
    row_classes: np.ndarray | None = None
    class_attrs: dict[str, tuple[str, ...]] | None = None
    sides: tuple[str, str] | None = None  # join output: (left, right) names

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_columns(
        cls,
        class_name: str,
        attributes: Sequence[tuple[str, str]],
        columns: Sequence[Column],
    ) -> "Batch":
        """Batch from stored columns (``oid``, then *attributes*), each a
        ``(values, null mask)`` pair."""
        batch = cls(length=len(columns[0][0]), columns={}, masks={},
                    class_name=class_name)
        for (name, _), (arr, mask) in zip((("oid", OID_TYPE), *attributes),
                                          columns):
            batch.columns[name] = arr
            if mask is not None:
                batch.masks[name] = mask
        return batch

    @classmethod
    def from_values(
        cls,
        class_name: str,
        attributes: Sequence[tuple[str, str]],
        rows: Sequence[tuple],
    ) -> "Batch":
        """Batch from raw storage value tuples ``(_oid, attr0, attr1, ...)``."""
        types = [OID_TYPE] + [type_name for _, type_name in attributes]
        return cls.from_columns(class_name, attributes,
                                build_columns(types, rows))

    @classmethod
    def from_objects(cls, objects: Sequence["SciObject"], klass: "NonPrimitiveClass") -> "Batch":
        """Batch from materialized objects (fallback-path re-batching)."""
        rows = [
            (obj.oid,) + tuple(obj.values.get(name) for name, _ in klass.attributes)
            for obj in objects
        ]
        return cls.from_values(klass.name, klass.attributes, rows)

    @classmethod
    def from_dict_rows(cls, names: Sequence[str], rows: Sequence[dict]) -> "Batch":
        """Batch of plain dict rows (projection shapes), object dtype columns."""
        columns = {
            name: object_column([row.get(name) for row in rows]) for name in names
        }
        return cls(length=len(rows), columns=columns, order=tuple(names))

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def column(self, name: str) -> np.ndarray | None:
        return self.columns.get(name)

    def mask(self, name: str) -> np.ndarray | None:
        """Null mask for *name*: True where NULL (never None once computed).

        Computed lazily and memoized — repeat callers (filter, sort,
        aggregate over the same column) pay the object-column scan once.
        """
        existing = self.masks.get(name)
        if existing is not None:
            return existing
        arr = self.columns.get(name)
        if arr is None:
            return None
        mask = self.masks[name] = null_mask(arr)
        return mask

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    def take(self, selector: np.ndarray | slice) -> "Batch":
        """Row subset/reorder by boolean mask, index array or slice."""
        columns = {name: arr[selector] for name, arr in self.columns.items()}
        masks = {name: arr[selector] for name, arr in self.masks.items()}
        length = next(iter(columns.values())).shape[0] if columns else 0
        return Batch(
            length=int(length),
            columns=columns,
            masks=masks,
            class_name=self.class_name,
            order=self.order,
            row_classes=None if self.row_classes is None
            else self.row_classes[selector],
            class_attrs=self.class_attrs,
            sides=self.sides,
        )

    def slice_rows(self, start: int, stop: int | None = None) -> "Batch":
        return self.take(slice(start, stop))

    def _aligned(self, name: str, dtype: np.dtype
                 ) -> tuple[np.ndarray, np.ndarray | None]:
        """Column *name* as *dtype*, ready to concatenate, plus its explicit
        null mask (``None``: any NULLs are in-band).  A column this batch
        lacks is all NULL; a dtype change carries the values as objects."""
        arr = self.columns.get(name)
        if arr is None:
            if dtype == object:
                return np.full(self.length, None, dtype=object), None
            return (np.zeros(self.length, dtype=dtype),
                    np.ones(self.length, dtype=bool))
        mask = self.masks.get(name)
        if arr.dtype == dtype:
            return arr, mask
        arr = arr.astype(object)
        if mask is not None:
            arr[mask] = None
        return arr, None

    @classmethod
    def concat(cls, batches: Sequence["Batch"]) -> "Batch":
        """Concatenate batches into one (sort/aggregate/join-build staging).

        Layouts may differ — a concept union streams one layout per member
        class: a column a batch lacks reads NULL for its rows, a column
        whose dtype differs between batches is carried as Python objects,
        and batches of different classes keep each row's class and each
        class's own attribute list (``row_classes`` / ``class_attrs``).
        """
        if not batches:
            return cls(length=0, columns={}, masks={})
        first = batches[0]
        if len(batches) == 1:
            return first
        columns: dict[str, np.ndarray] = {}
        masks: dict[str, np.ndarray] = {}
        for name in dict.fromkeys(n for b in batches for n in b.columns):
            dtypes = {b.columns[name].dtype
                      for b in batches if name in b.columns}
            dtype = dtypes.pop() if len(dtypes) == 1 else np.dtype(object)
            pieces = [b._aligned(name, dtype) for b in batches]
            columns[name] = np.concatenate([values for values, _ in pieces])
            if any(mask is not None for _, mask in pieces):
                masks[name] = np.concatenate([
                    null_mask(values) if mask is None else mask
                    for values, mask in pieces
                ])
        out = cls(
            length=sum(b.length for b in batches),
            columns=columns,
            masks=masks,
            class_name=first.class_name,
            order=None if first.order is None else tuple(
                dict.fromkeys(n for b in batches for n in b.order)
            ),
            sides=first.sides,
        )
        if any(b.class_name != first.class_name or b.row_classes is not None
               for b in batches):
            out.class_name = None
            out.class_attrs = {}
            for b in batches:
                out.class_attrs.update(b.class_attrs or {
                    b.class_name: tuple(n for n in b.columns if n != "oid")
                })
            out.row_classes = np.concatenate([
                np.full(b.length, b.class_name, dtype=object)
                if b.row_classes is None else b.row_classes
                for b in batches
            ])
        return out

    @classmethod
    def joined(cls, left: "Batch", right: "Batch",
               left_name: str, right_name: str,
               left_attrs: Sequence[str] = (),
               right_attrs: Sequence[str] = ()) -> "Batch":
        """Pair two equal-length batches row by row: one join output slab.

        Every input column appears as ``side.attr`` and only so; rows
        come back as dicts keyed by those names (an object side's ``oid``
        stays a pseudo-attribute: addressable as ``side.oid``, not part
        of the row).  ``left_attrs`` / ``right_attrs`` name the
        attributes each source can have: one these rows lack — a concept
        member without it — is an all-NULL column, so every slab of one
        join has the same layout whichever member its rows came from.
        """
        columns: dict[str, np.ndarray] = {}
        masks: dict[str, np.ndarray] = {}
        order: list[str] = []
        for side, batch, attrs in ((left_name, left, left_attrs),
                                   (right_name, right, right_attrs)):
            is_object = batch.class_name is not None \
                or batch.row_classes is not None
            for name in dict.fromkeys((*batch.columns, *attrs)):
                qualified = f"{side}.{name}"
                arr = batch.columns.get(name)
                if arr is None:
                    arr = np.full(batch.length, None, dtype=object)
                columns[qualified] = arr
                if name in batch.masks:
                    masks[qualified] = batch.masks[name]
                if not (is_object and name == "oid"):
                    order.append(qualified)
        return cls(length=left.length, columns=columns, masks=masks,
                   order=tuple(order), sides=(left_name, right_name))

    # ------------------------------------------------------------------
    # consumer edge
    # ------------------------------------------------------------------
    def to_rows(self) -> Iterator[Any]:
        """Rebuild row objects — the one place batches become Python rows."""
        if self.length == 0:
            return
        lists: dict[str, list] = {}
        for name, arr in self.columns.items():
            values = arr.tolist()
            mask = self.masks.get(name)
            if mask is not None and mask.any():
                values = [None if m else v for v, m in zip(values, mask.tolist())]
            lists[name] = values
        if self.row_classes is not None:
            from repro.core.classes import SciObject

            rows = zip(self.row_classes.tolist(), lists["oid"])
            for i, (class_name, oid) in enumerate(rows):
                yield SciObject(
                    class_name=class_name,
                    oid=oid,
                    values={name: lists[name][i]
                            for name in self.class_attrs[class_name]},
                )
        elif self.class_name is not None:
            from repro.core.classes import SciObject

            oids = lists.pop("oid")
            names = tuple(lists)
            value_lists = tuple(lists[name] for name in names)
            for i, oid in enumerate(oids):
                yield SciObject(
                    class_name=self.class_name,
                    oid=oid,
                    values={name: vals[i] for name, vals in zip(names, value_lists)},
                )
        else:
            names = self.order if self.order is not None else tuple(lists)
            value_lists = tuple(lists[name] for name in names)
            for i in range(self.length):
                yield {name: vals[i] for name, vals in zip(names, value_lists)}


# ----------------------------------------------------------------------
# ordering helpers (shared by Sort and HashAggregate)
# ----------------------------------------------------------------------
def stable_argsort(values: np.ndarray, descending: bool = False) -> np.ndarray:
    """Stable argsort; ties keep input order even when descending."""
    if not descending:
        return np.argsort(values, kind="stable")
    # Stable descending: sort the reversed array ascending, then mirror the
    # positions back — equal keys keep their original relative order.
    n = values.shape[0]
    return (n - 1 - np.argsort(values[::-1], kind="stable"))[::-1]


def fill_nulls(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Replace NULL slots with an in-dtype filler so comparisons never see None.

    Callers must pair this with a mask-ordering pass; the filler value itself
    is arbitrary (first non-null element, or zero for all-null columns).
    """
    if not mask.any():
        return values
    out = values.copy()
    non_null = np.flatnonzero(~mask)
    filler: Any = values[non_null[0]] if non_null.size else 0
    out[mask] = filler
    return out


def order_by_keys(
    keys: Sequence[tuple[np.ndarray, np.ndarray, bool]],
    length: int,
) -> np.ndarray:
    """Row order for ``keys`` = [(values, null_mask, descending), ...].

    The ORDER BY contract: keys compared left to right, NULLs sort after
    everything regardless of direction, ties keep input order (stable).
    Implemented as successive stable argsorts from the least-significant
    key to the most-significant one.
    """
    order = np.arange(length)
    for values, mask, descending in reversed(list(keys)):
        filled = fill_nulls(values, mask)
        by_value = stable_argsort(filled[order], descending)
        order = order[by_value]
        if mask.any():
            # NULLs last regardless of direction, stable among themselves.
            by_mask = np.argsort(mask[order], kind="stable")
            order = order[by_mask]
    return order


def group_rows(
    keys: Sequence[tuple[np.ndarray, np.ndarray]],
    length: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group rows by key columns ``[(values, null_mask), ...]``.

    Returns ``(order, starts, first_seen)`` where ``order`` sorts rows so
    equal keys are adjacent, ``starts`` indexes segment starts within
    ``order``, and ``first_seen`` gives, per segment, the smallest original
    row index — used to emit groups in first-encountered order.  NULL keys
    form their own group (SQL GROUP BY semantics: NULLs group together).
    """
    if length == 0:
        empty = np.array([], dtype=np.int64)
        return empty, empty, empty
    if not keys:
        # Single global group.
        order = np.arange(length)
        return order, np.array([0]), np.array([0])
    order = np.arange(length)
    filled_cols = []
    for values, mask in keys:
        filled = fill_nulls(values, mask)
        filled_cols.append((filled, mask))
    for filled, mask in reversed(filled_cols):
        order = order[stable_argsort(filled[order], False)]
        if mask.any():
            order = order[np.argsort(mask[order], kind="stable")]
    # Segment boundaries: adjacent sorted rows differing in any key column
    # (treating two NULLs as equal).
    boundary = np.zeros(length, dtype=bool)
    boundary[0] = True
    for filled, mask in filled_cols:
        sorted_vals = filled[order]
        sorted_mask = mask[order]
        differs = sorted_vals[1:] != sorted_vals[:-1]
        differs |= sorted_mask[1:] != sorted_mask[:-1]
        # Two NULLs are equal even if fillers differ (they never do, but be
        # explicit): a pair that is NULL on both sides does not differ.
        both_null = sorted_mask[1:] & sorted_mask[:-1]
        differs &= ~both_null
        boundary[1:] |= differs.astype(bool)
    starts = np.flatnonzero(boundary)
    first_seen = np.minimum.reduceat(order, starts)
    return order, starts, first_seen


# ----------------------------------------------------------------------
# the equi-join kernel (shared by HashJoin and IndexNestedLoopJoin)
# ----------------------------------------------------------------------
#: Typed key columns that match as arrays once widened: one kind each.
_KEY_DTYPES = {"i": np.int64, "f": np.float64, "b": np.bool_}


def _join_keys(values: np.ndarray, null: np.ndarray, domain: Any,
               code: Callable[[Any], int]) -> tuple[np.ndarray, np.ndarray]:
    """``(keys, valid)``: *values* widened to *domain*, or mapped to int
    codes by *code* when it is None (-1: matches nothing); invalid keys
    are NULL or NaN."""
    if domain is None:
        keys = np.fromiter((code(v) for v in values.tolist()),
                           dtype=np.int64, count=values.shape[0])
        return keys, ~null & (keys >= 0)
    keys = values.astype(domain, copy=False)
    return keys, ~null & ~np.isnan(keys) if domain is np.float64 else ~null


class JoinKeys:
    """A join's build-side key column ``(values, null mask)``, sorted
    once; :meth:`pairs` matches a probe key column against it.

    Keys match under Python equality; NULL and NaN match nothing.  Typed
    columns of one kind (int, float or bool) match as arrays; any other
    pairing — object keys, int against float — first maps both sides to
    int codes through one dict, so ``1`` still meets ``1.0``.
    """

    def __init__(self, values: np.ndarray, null: np.ndarray):
        self.values, self.null = values, null
        self._codes: dict[Any, int] = {}
        self._runs: dict[Any, tuple[np.ndarray, np.ndarray]] = {}

    def _run(self, domain: Any) -> tuple[np.ndarray, np.ndarray]:
        """``(build rows, their keys)`` in key order, equal keys in
        build order — once per key domain."""
        if domain not in self._runs:
            table = self._codes
            keys, valid = _join_keys(
                self.values, self.null, domain,
                lambda v: table.setdefault(v, len(table)) if v == v else -1)
            rows = np.flatnonzero(valid)
            order = rows[np.argsort(keys[rows], kind="stable")]
            self._runs[domain] = (order, keys[order])
        return self._runs[domain]

    def pairs(self, values: np.ndarray, null: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
        """``(probe rows, build rows)`` of every matching pair: probe
        order first, then build order within equal keys — a dict of
        build-row lists probed row by row, without the rows."""
        domain = _KEY_DTYPES.get(values.dtype.kind)
        if domain is not _KEY_DTYPES.get(self.values.dtype.kind):
            domain = None
        order, sorted_keys = self._run(domain)
        get = self._codes.get
        keys, valid = _join_keys(values, null, domain, lambda v: get(v, -1))
        rows = np.flatnonzero(valid)
        probe = keys[rows]
        lo = np.searchsorted(sorted_keys, probe, "left")
        counts = np.searchsorted(sorted_keys, probe, "right") - lo
        ends = np.cumsum(counts)
        at = np.arange(int(ends[-1]) if ends.size else 0) \
            + np.repeat(lo - ends + counts, counts)
        return np.repeat(rows, counts), order[at]


MaskFn = Callable[[Batch], np.ndarray]
