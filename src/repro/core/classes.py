"""Non-primitive classes and scientific objects (paper §2.1.1–§2.1.2).

A *non-primitive class* is the derivation-layer unit: a named set of
attributes typed by primitive classes, plus the two orthogonal extents
(``SPATIAL EXTENT`` / ``TEMPORAL EXTENT``) and an optional ``DERIVED BY``
process reference.  The paper's example::

    CLASS landcover (
      ATTRIBUTES:
        area = char16; ref_system = char16; ...
        data = image;
      SPATIAL EXTENT:  spatialextent = box;
      TEMPORAL EXTENT: timestamp = abstime;
      DERIVED BY: unsupervised-classification
    )

Classes whose objects come from outside the system are *base*; all others
are "solely defined by their derivation process" (§2.1.2).

The :class:`ClassStore` materializes each class as a storage relation
(with an ``_oid`` surrogate column) and provides the automatically defined
retrieval functions (``area(landcover)``-style accessors).  Which
transaction and snapshot a read or a store uses is decided in one place:
the current context's :class:`View`.
"""

from __future__ import annotations

import itertools
import operator
import threading
import weakref
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Iterator

from ..adt.registry import TypeRegistry
from ..errors import (
    ClassAlreadyDefinedError,
    DerivationError,
    StorageError,
    TupleNotFoundError,
    UnknownClassError,
)
from ..spatial.box import Box
from ..storage.access import AccessPath, choose_access_path, choose_ordered_path
from ..storage.catalog import IndexDef
from ..storage.columns import build_column
from ..storage.engine import StorageEngine, batch_sizes
from ..storage.transactions import Snapshot, Transaction
from ..storage.tuples import TID
from ..temporal.abstime import AbsTime

__all__ = ["NonPrimitiveClass", "SciObject", "ClassRegistry", "ClassStore",
           "View", "COMPARISONS", "matches_predicates", "matches_extents"]

OID_COLUMN = "_oid"

#: The view the current context reads and writes under, and whether it
#: was held (else entered).  A
#: :class:`~contextvars.ContextVar` rather than a thread-local so each
#: server worker thread (and each task, under an event loop) carries its
#: own.  Note PEP 567's generator caveat: a view entered *inside* a
#: generator leaks across its yields, so consumers enter it around each
#: *batch* pull (see ``query.client.Cursor._stream``) and leave it
#: before they yield.
_VIEW: ContextVar[tuple["View | None", bool]] = ContextVar(
    "repro_view", default=(None, False))

#: Value tuples the row views (:meth:`ClassStore.iter_scan` and what
#: rides it) ask the engine for at a time: small, so a consumer that
#: stops at its first row has fetched little.
_ROW_VIEW_CHUNK = 64

#: Comparison operators usable in range predicates (GaeaQL WHERE).
COMPARISONS: dict[str, Callable[[Any, Any], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def matches_predicates(obj: "SciObject",
                       filters: tuple[tuple[str, Any], ...],
                       ranges: tuple[tuple[str, str, Any], ...]) -> bool:
    """Whether *obj* satisfies every equality filter and range predicate.

    The single definition of attribute-predicate semantics, shared by
    the streaming scan (:meth:`ClassStore.iter_find`), the executor's
    DERIVE post-filter, and the planner's fallback filter — so the
    paths cannot diverge.  An incomparable literal (e.g. ``name > 5``
    on a string attribute) raises a typed :class:`DerivationError`
    rather than leaking a bare ``TypeError`` out of a row stream.
    """
    if any(obj.get(attr) != value for attr, value in filters):
        return False
    for attr, op, value in ranges:
        try:
            if not COMPARISONS[op](obj.get(attr), value):
                return False
        except TypeError as exc:
            raise DerivationError(
                f"range predicate {attr} {op} {value!r} is not "
                f"comparable with stored value {obj.get(attr)!r}"
            ) from exc
    return True


def matches_extents(obj: "SciObject", cls: "NonPrimitiveClass",
                    spatial: Box | None, temporal: AbsTime | None,
                    spatial_coverage: bool = False) -> bool:
    """Whether *obj* satisfies the spatio-temporal extent predicates.

    The single definition of extent semantics (overlap for space, exact
    match for time), shared by the streaming scan filters and the
    planner's derivation-output collection.  With *spatial_coverage* the
    object's extent must *contain* the query box, not merely overlap it.
    """
    if spatial is not None and cls.spatial_attr is not None:
        extent = obj[cls.spatial_attr]
        if spatial_coverage:
            if not extent.contains(spatial):
                return False
        elif not extent.overlaps(spatial):
            return False
    if temporal is not None and cls.temporal_attr is not None \
            and obj[cls.temporal_attr] != temporal:
        return False
    return True


@dataclass(frozen=True)
class NonPrimitiveClass:
    """Definition of a non-primitive (scientific object) class."""

    name: str
    attributes: tuple[tuple[str, str], ...]  # (attr name, primitive type)
    spatial_attr: str | None = "spatialextent"
    temporal_attr: str | None = "timestamp"
    derived_by: str | None = None  # process name; None => base class
    doc: str = ""

    def __post_init__(self) -> None:
        names = [name for name, _ in self.attributes]
        if len(names) != len(set(names)):
            raise DerivationError(f"duplicate attributes in class {self.name!r}")
        for extent in (self.spatial_attr, self.temporal_attr):
            if extent is not None and extent not in names:
                raise DerivationError(
                    f"class {self.name!r} declares extent attribute "
                    f"{extent!r} but does not define it"
                )

    @property
    def is_base(self) -> bool:
        """Base classes hold data from outside the system (paper §1)."""
        return self.derived_by is None

    @cached_property
    def attribute_names(self) -> tuple[str, ...]:
        """Attribute names in declaration order (computed once: the
        definition is frozen)."""
        return tuple(name for name, _ in self.attributes)

    def type_of(self, attr: str) -> str:
        """Primitive-class name of *attr*."""
        for name, type_name in self.attributes:
            if name == attr:
                return type_name
        raise DerivationError(f"class {self.name!r} has no attribute {attr!r}")

    def describe(self) -> str:
        """Render the definition in the paper's CLASS syntax."""
        lines = [f"CLASS {self.name} ("]
        lines.append("  ATTRIBUTES:")
        for name, type_name in self.attributes:
            if name in (self.spatial_attr, self.temporal_attr):
                continue
            lines.append(f"    {name} = {type_name};")
        if self.spatial_attr is not None:
            lines.append("  SPATIAL EXTENT:")
            lines.append(
                f"    {self.spatial_attr} = {self.type_of(self.spatial_attr)};"
            )
        if self.temporal_attr is not None:
            lines.append("  TEMPORAL EXTENT:")
            lines.append(
                f"    {self.temporal_attr} = {self.type_of(self.temporal_attr)};"
            )
        if self.derived_by is not None:
            lines.append(f"  DERIVED BY: {self.derived_by}")
        lines.append(")")
        return "\n".join(lines)


@dataclass(frozen=True)
class SciObject:
    """One scientific data object: an instance of a non-primitive class."""

    class_name: str
    oid: int
    values: dict[str, Any]

    def __getitem__(self, attr: str) -> Any:
        try:
            return self.values[attr]
        except KeyError:
            raise DerivationError(
                f"object {self.oid} of {self.class_name!r} has no "
                f"attribute {attr!r}"
            ) from None

    def get(self, attr: str, default: Any = None) -> Any:
        """Attribute value with a default."""
        return self.values.get(attr, default)


@dataclass
class ClassRegistry:
    """Registry of non-primitive class definitions."""

    types: TypeRegistry
    _classes: dict[str, NonPrimitiveClass] = field(default_factory=dict)

    def define(self, cls: NonPrimitiveClass) -> NonPrimitiveClass:
        """Register *cls*, validating its attribute types."""
        if cls.name in self._classes:
            raise ClassAlreadyDefinedError(cls.name)
        for _, type_name in cls.attributes:
            self.types.get(type_name)
        self._classes[cls.name] = cls
        return cls

    def get(self, name: str) -> NonPrimitiveClass:
        """The class called *name*."""
        try:
            return self._classes[name]
        except KeyError:
            raise UnknownClassError(name) from None

    def __contains__(self, name: str) -> bool:
        return name in self._classes

    def __iter__(self) -> Iterator[NonPrimitiveClass]:
        return iter(self._classes.values())

    def names(self) -> list[str]:
        """All class names, in definition order."""
        return list(self._classes)

    def base_classes(self) -> list[NonPrimitiveClass]:
        """Classes holding externally supplied data."""
        return [cls for cls in self._classes.values() if cls.is_base]

    def derived_classes(self) -> list[NonPrimitiveClass]:
        """Classes defined solely by their derivation process."""
        return [cls for cls in self._classes.values() if not cls.is_base]


class View:
    """What a connection's statements read and write under: a snapshot
    plus the writes made under it.

    Stores join the writer transaction *tx*, or auto-commit without one.
    Reads see the work committed when the view opened plus the view's
    own writes: the writer's xid and each auto-commit store's.  So a
    derivation sees what it and earlier statements of the view derived,
    and nothing another view has not committed.  A connection keeps one
    view per transaction and opens one per auto-commit statement;
    ``begin()`` also :meth:`hold`\\ s a writer's view, so direct
    :meth:`ClassStore.store` calls until commit join the transaction.
    """

    __slots__ = ("store", "tx", "snapshot", "_outer", "_held")

    def __init__(self, store: "ClassStore", tx: Transaction | None = None):
        self.store = store
        self.tx = tx
        self.snapshot: Snapshot = store.engine.snapshot(tx)
        self._outer: tuple[View | None, bool] = (None, False)
        self._held = False

    def wrote(self, xid: int) -> None:
        """Count the auto-committed *xid* among the view's own writes."""
        self.snapshot.own_commits.add(xid)

    @contextmanager
    def entered(self) -> Iterator[None]:
        """Make this the view of every read and store in the block."""
        token = _VIEW.set((self, False))
        try:
            yield
        finally:
            _VIEW.reset(token)

    def hold(self) -> None:
        """Make this the calling context's ambient view until
        :meth:`release`."""
        self._outer, self._held = _ambient(), True
        _VIEW.set((self, True))

    def release(self) -> None:
        """End the view's transaction: later stores under it (a cursor
        still draining) auto-commit; the calling context lets go of it
        now, other contexts that held it at their next read or store."""
        self.tx, self._held = None, False
        view, held = _VIEW.get()
        if view is self and held:
            _VIEW.set(self._outer)


def _ambient() -> tuple[View | None, bool]:
    """The current context's ``(view, held)`` pair, skipping the views
    held here but released since."""
    view, held = _VIEW.get()
    while held and not view._held:
        view, held = view._outer
    return view, held


@dataclass
class ClassStore:
    """Object storage for non-primitive classes, backed by the engine.

    Each defined class gets a relation ``cls_<name>`` whose first column
    is the ``_oid`` surrogate, followed by the class attributes.  Spatial
    and temporal indexes are attached to the extent attributes when a
    universe is supplied.
    """

    engine: StorageEngine
    registry: ClassRegistry
    universe: Box | None = None
    _oid_counter: Iterator[int] = field(default_factory=lambda: itertools.count(1))
    _oid_index: dict[int, tuple[str, Any]] = field(default_factory=dict)
    #: Called with the purged oids after a rollback (the task log
    #: forgets their tasks).  Held weakly, so an owner and this store
    #: form no reference cycle; not pickled: owners re-register on load.
    _rollback_hooks: list[weakref.WeakMethod] = field(
        default_factory=list, repr=False, compare=False)
    #: Stored-data scans started, per class (cheap, always on).
    scan_counts: dict[str, int] = field(default_factory=dict)
    #: When set (e.g. by a test fixture) every scan appends
    #: ``(class_name, spatial, temporal, filters, ranges)`` — the
    #: instrument behind the "fallbacks never re-scan" guarantee.
    scan_log: list[tuple] | None = field(default=None)
    # Scan counters/log are shared across every connection; a plain
    # dict read-modify-write would drop counts under contention.
    _stats_lock: threading.Lock = field(default_factory=threading.Lock,
                                        repr=False, compare=False)

    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        del state["_stats_lock"]
        del state["_rollback_hooks"]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._stats_lock = threading.Lock()
        self._rollback_hooks = []

    @staticmethod
    def relation_for(class_name: str) -> str:
        """Storage relation name backing *class_name*."""
        return f"cls_{class_name}"

    # -- transactions (append-only MVCC under the objects) ---------------------

    def begin_transaction(self) -> Transaction:
        """Start a writer transaction for the caller to hold.  Stores
        join it under a :class:`View` over it; any number run at once
        (storage is append-only, so writers have nothing to conflict
        over)."""
        return self.engine.begin()

    def commit_transaction(self, tx: Transaction) -> None:
        """Commit *tx*; its objects become visible to later views."""
        self.engine.commit(tx)

    def rollback_transaction(self, tx: Transaction) -> None:
        """Abort *tx*; its object versions stay dead forever (append-only
        storage).  The oids of the rows the engine purged leave the
        object index, so later lookups fail with the documented
        :class:`UnknownClassError` instead of pointing at permanently
        invisible row versions, and the rollback hooks drop what was
        recorded about them."""
        dropped = [values[0] for _, values in self.engine.abort(tx)]
        for oid in dropped:
            self._oid_index.pop(oid, None)
        for ref in self._rollback_hooks:
            if (hook := ref()) is not None:
                hook(dropped)

    def on_rollback(self, hook: Callable[[list[int]], None]) -> None:
        """Register the bound method *hook* to run, with the oids a
        rolled-back transaction had stored, after every rollback while
        its object lives."""
        self._rollback_hooks.append(weakref.WeakMethod(hook))

    def _view(self) -> View | None:
        """The current context's view, when it is one over this store."""
        view = _ambient()[0]
        return view if view is not None and view.store is self else None

    def _snapshot(self) -> Snapshot | None:
        """What reads see: the current view's snapshot, else (None, the
        engine default) everything committed."""
        view = self._view()
        return None if view is None else view.snapshot

    def materialize(self, cls: NonPrimitiveClass) -> None:
        """Create the backing relation (and extent indexes) for *cls*."""
        relation = self.relation_for(cls.name)
        columns = [(OID_COLUMN, "int4")] + list(cls.attributes)
        self.engine.create_relation(relation, columns)
        self.engine.create_index(relation, OID_COLUMN)
        if cls.spatial_attr is not None and self.universe is not None:
            self.engine.create_spatial_index(relation, cls.spatial_attr,
                                             universe=self.universe)
        if cls.temporal_attr is not None:
            self.engine.create_temporal_index(relation, cls.temporal_attr)

    def store(self, class_name: str, values: dict[str, Any]) -> SciObject:
        """Insert an object of *class_name*; returns it with a fresh oid.

        Under a view with a writer transaction the object joins it;
        otherwise it auto-commits, and a view it was made under counts
        it among its own writes."""
        names = self.registry.get(class_name).attribute_names
        missing = [a for a in names if a not in values]
        if missing:
            raise DerivationError(
                f"object of {class_name!r} is missing attribute(s): {missing}"
            )
        extra = [a for a in values if a not in names]
        if extra:
            raise DerivationError(
                f"object of {class_name!r} has unknown attribute(s): {extra}"
            )
        oid = next(self._oid_counter)
        row = (oid,) + tuple(values[a] for a in names)
        relation = self.relation_for(class_name)
        view = self._view()
        tx = None if view is None else view.tx
        if tx is not None:
            tid = self.engine.insert(relation, row, tx)
        else:
            tid = self.engine.insert_row(relation, row)
        self._oid_index[oid] = (class_name, tid)
        # The object is the normalized tuple the engine just stored —
        # read off the heap, whatever the view's snapshot.
        stored = self.engine._state(relation).heap.get(tid)
        if view is not None and tx is None:
            view.wrote(stored.xmin)
        return SciObject(class_name=class_name, oid=oid,
                         values=dict(zip(names, stored.values[1:])))

    def get(self, oid: int) -> SciObject:
        """The object with surrogate id *oid*."""
        try:
            class_name, tid = self._oid_index[oid]
        except KeyError:
            raise UnknownClassError(f"no object with oid {oid}") from None
        try:
            row = self.engine.fetch(self.relation_for(class_name), tid,
                                    self._snapshot())
        except TupleNotFoundError:
            # The backing version is invisible under this snapshot (e.g.
            # its transaction rolled back): to callers the object simply
            # does not exist.
            raise UnknownClassError(
                f"no object with oid {oid} (version not visible)"
            ) from None
        names = self.registry.get(class_name).attribute_names
        return SciObject(class_name=class_name, oid=oid,
                         values={a: row[a] for a in names})

    def objects(self, class_name: str) -> list[SciObject]:
        """All stored objects of *class_name*."""
        return list(self.iter_scan(class_name))

    def count(self, class_name: str) -> int:
        """Number of stored objects of *class_name*."""
        self.registry.get(class_name)
        return sum(map(len, self.engine.value_batches(
            self.relation_for(class_name), self._snapshot())))

    # -- secondary attribute indexes -------------------------------------------

    def create_attribute_index(self, class_name: str, attr: str,
                               name: str | None = None) -> IndexDef:
        """Build a B-tree over a scalar attribute of *class_name*.

        Extent attributes are rejected: the grid index and timeline
        already cover them (attached at :meth:`materialize` time).
        """
        cls = self.registry.get(class_name)
        cls.type_of(attr)  # raises when the attribute does not exist
        if attr in (cls.spatial_attr, cls.temporal_attr):
            raise StorageError(
                f"{class_name}.{attr} is an extent attribute — it is "
                "indexed automatically (grid index / timeline)"
            )
        return self.engine.create_index(self.relation_for(class_name), attr,
                                        name=name)

    def drop_attribute_index(self, class_name: str, attr: str) -> None:
        """Drop the B-tree on ``class_name.attr``."""
        self.registry.get(class_name)
        if attr == OID_COLUMN:
            raise StorageError(
                "the OID index is automatic and cannot be dropped"
            )
        self.engine.drop_index(self.relation_for(class_name), attr)

    def drop_index_named(self, name: str) -> IndexDef:
        """Drop a secondary attribute index by its catalog name.

        The automatic structures — the OID B-tree (object fetch) and
        the extent grid/timeline (spatial retrieval, interpolation) —
        are load-bearing and cannot be dropped.
        """
        index = self.engine.catalog.index_named(name)
        if index.kind != "btree" or index.column == OID_COLUMN:
            raise StorageError(
                f"index {name!r} is automatic ({index.kind} on "
                f"{index.relation}.{index.column}) and cannot be dropped"
            )
        return self.engine.drop_index_named(name)

    def indexes_of(self, class_name: str) -> list[IndexDef]:
        """Catalog entries of every index on *class_name*'s relation."""
        self.registry.get(class_name)
        return self.engine.catalog.indexes_of(self.relation_for(class_name))

    # -- retrieval (paper §2.1.5 step 1) ---------------------------------------

    def _coerce(self, cls: NonPrimitiveClass, attr: str, value: Any) -> Any:
        """Parse date strings for abstime-typed attributes so range and
        equality predicates compare like with like."""
        if isinstance(value, str):
            try:
                if cls.type_of(attr) == "abstime":
                    return AbsTime.parse(value)
            except DerivationError:
                pass
        return value

    def normalize_predicates(
        self, cls: NonPrimitiveClass,
        filters: tuple[tuple[str, Any], ...],
        ranges: tuple[tuple[str, str, Any], ...],
    ) -> tuple[tuple[tuple[str, Any], ...], tuple[tuple[str, str, Any], ...]]:
        filters = tuple(
            (attr, self._coerce(cls, attr, value)) for attr, value in filters
        )
        ranges = tuple(
            (attr, op, self._coerce(cls, attr, value))
            for attr, op, value in ranges
        )
        for attr, op, _ in ranges:
            cls.type_of(attr)  # raises for unknown attributes
            if op not in COMPARISONS:
                raise DerivationError(f"unknown comparison operator {op!r}")
        return filters, ranges

    def choose_path(self, class_name: str,
                    spatial: Box | None = None,
                    temporal: AbsTime | None = None,
                    filters: tuple[tuple[str, Any], ...] = (),
                    ranges: tuple[tuple[str, str, Any], ...] = (),
                    projection: tuple[str, ...] = ()
                    ) -> AccessPath:
        """Cost-based access path for one retrieval (shared with the
        GaeaQL optimizer, so EXPLAIN shows exactly what will run).

        A non-empty *projection* names the only attributes the consumer
        wants, enabling covering index-only scans when an attribute
        B-tree supplies them all.
        """
        cls = self.registry.get(class_name)
        filters, ranges = self.normalize_predicates(cls, filters, ranges)
        spatial_q = spatial if (
            spatial is not None and cls.spatial_attr is not None
            and self.universe is not None
        ) else None
        temporal_q = temporal if (
            temporal is not None and cls.temporal_attr is not None
        ) else None
        return choose_access_path(
            self.engine, self.relation_for(class_name),
            spatial=spatial_q, temporal=temporal_q,
            equals=filters, ranges=ranges,
            needed_columns=tuple(projection) or None,
        )

    def ordered_path(self, class_name: str, attr: str,
                     descending: bool = False,
                     filters: tuple[tuple[str, Any], ...] = (),
                     ranges: tuple[tuple[str, str, Any], ...] = (),
                     limit_hint: int | None = None) -> AccessPath | None:
        """An index-order scan over ``class_name.attr`` (sort avoidance),
        or None when no B-tree backs the attribute.

        The physical planner compares this path's cost against
        scan-plus-explicit-Sort and keeps the cheaper plan.
        """
        cls = self.registry.get(class_name)
        cls.type_of(attr)
        filters, ranges = self.normalize_predicates(cls, filters, ranges)
        return choose_ordered_path(
            self.engine, self.relation_for(class_name), attr,
            descending=descending, equals=filters, ranges=ranges,
            limit_hint=limit_hint,
        )

    def _record_scan(self, class_name: str, spatial: Box | None,
                     temporal: AbsTime | None,
                     filters: tuple[tuple[str, Any], ...],
                     ranges: tuple[tuple[str, str, Any], ...]) -> None:
        with self._stats_lock:
            self.scan_counts[class_name] = \
                self.scan_counts.get(class_name, 0) + 1
            if self.scan_log is not None:
                self.scan_log.append(
                    (class_name, spatial, temporal, filters, ranges)
                )

    def validated_path(self, class_name: str,
                       spatial: Box | None = None,
                       temporal: AbsTime | None = None,
                       filters: tuple[tuple[str, Any], ...] = (),
                       ranges: tuple[tuple[str, str, Any], ...] = (),
                       access_path: AccessPath | None = None
                       ) -> AccessPath:
        """*access_path* if still current, else a freshly chosen path.

        A path chosen earlier (when an operator tree was built) is only
        trusted while the catalog's index version still matches:
        CREATE/DROP INDEX since means the choice may name a structure
        that no longer exists (or miss one that now would win).
        """
        if access_path is not None \
                and access_path.index_version \
                == self.engine.catalog.index_version:
            return access_path
        return self.choose_path(class_name, spatial=spatial,
                                temporal=temporal, filters=filters,
                                ranges=ranges)

    def _open_scan(self, class_name: str,
                   spatial: Box | None, temporal: AbsTime | None,
                   filters: tuple[tuple[str, Any], ...],
                   ranges: tuple[tuple[str, str, Any], ...],
                   access_path: AccessPath | None
                   ) -> tuple[str, Snapshot | None, Iterator[TID] | None]:
        """The stored-read path's start: one scan's relation, snapshot
        and TID stream (None for a full scan).

        Every stored row or batch stream starts here, the only code that
        normalizes the predicates, re-validates the access path, records
        the scan event (exactly one per call) and turns the path into a
        TID stream.  Rows come straight off the path with **no predicate
        re-checks**: pushdown only prunes the candidates, consumers
        re-check.
        """
        cls = self.registry.get(class_name)
        filters, ranges = self.normalize_predicates(cls, filters, ranges)
        relation = self.relation_for(class_name)
        snapshot = self._snapshot()
        path = self.validated_path(class_name, spatial=spatial,
                                   temporal=temporal, filters=filters,
                                   ranges=ranges, access_path=access_path)
        self._record_scan(class_name, spatial, temporal, filters, ranges)
        if path.kind == "index-eq":
            tids = self.engine.iter_lookup_tids(relation, path.column,
                                                path.argument)
        elif path.kind == "index-range":
            lo, hi = path.argument
            tids = self.engine.iter_range_tids(relation, path.column, lo, hi,
                                               reverse=path.descending)
        elif path.kind == "spatial-probe":
            tids = self.engine.iter_spatial_tids(relation, path.argument)
        elif path.kind == "temporal-probe":
            tids = self.engine.iter_temporal_tids(relation, path.argument)
        else:
            tids = None  # full scan
        return relation, snapshot, tids

    def _stored_objects(self, class_name: str,
                        spatial: Box | None, temporal: AbsTime | None,
                        filters: tuple[tuple[str, Any], ...],
                        ranges: tuple[tuple[str, str, Any], ...],
                        access_path: AccessPath | None,
                        chunk_rows: int) -> Iterator[SciObject]:
        """One object per visible value tuple of :meth:`_open_scan`'s
        path (``_oid`` first, then the attributes in declaration order),
        fetched in chunks that ramp up to *chunk_rows*."""
        names = self.registry.get(class_name).attribute_names
        relation, snapshot, tids = self._open_scan(
            class_name, spatial, temporal, filters, ranges, access_path)
        for chunk in self.engine.value_batches(relation, snapshot,
                                               chunk_rows, tids):
            for values in chunk:
                yield SciObject(class_name=class_name, oid=values[0],
                                values=dict(zip(names, values[1:])))

    def iter_scan(self, class_name: str,
                  spatial: Box | None = None,
                  temporal: AbsTime | None = None,
                  filters: tuple[tuple[str, Any], ...] = (),
                  ranges: tuple[tuple[str, str, Any], ...] = (),
                  access_path: AccessPath | None = None
                  ) -> Iterator[SciObject]:
        """The raw candidate stream of one stored-data scan, one
        :class:`SciObject` per stored row (see :meth:`_open_scan`:
        re-validated path, one scan event, no predicate re-checks)."""
        return self._stored_objects(class_name, spatial, temporal, filters,
                                    ranges, access_path, _ROW_VIEW_CHUNK)

    def iter_scan_batches(self, class_name: str,
                          spatial: Box | None = None,
                          temporal: AbsTime | None = None,
                          filters: tuple[tuple[str, Any], ...] = (),
                          ranges: tuple[tuple[str, str, Any], ...] = (),
                          access_path: AccessPath | None = None,
                          batch_size: int | None = None) -> Iterator["Batch"]:
        """The columnar view of :meth:`iter_scan`: the same raw candidate
        stream, in the same order, as :class:`~repro.query.batch.Batch`
        slabs.  A full scan reads :meth:`StorageEngine.column_batches`,
        every TID path :meth:`StorageEngine.value_batches`."""
        from repro.query.batch import DEFAULT_BATCH_SIZE, Batch

        attributes = self.registry.get(class_name).attributes
        size = batch_size or DEFAULT_BATCH_SIZE
        relation, snapshot, tids = self._open_scan(
            class_name, spatial, temporal, filters, ranges, access_path)
        if tids is None:
            for columns in self.engine.column_batches(relation, snapshot,
                                                      batch_size=size):
                yield Batch.from_columns(class_name, attributes, columns)
        else:
            for chunk in self.engine.value_batches(relation, snapshot, size,
                                                   tids):
                yield Batch.from_values(class_name, attributes, chunk)

    def probe_batch(self, class_name: str, attr: str, keys: list[Any],
                    spatial: Box | None = None,
                    temporal: AbsTime | None = None,
                    filters: tuple[tuple[str, Any], ...] = (),
                    ranges: tuple[tuple[str, str, Any], ...] = ()
                    ) -> "Batch":
        """The raw candidates of one B-tree ``attr = key`` probe per key
        (one scan event each, see :meth:`_open_scan`) as one
        :class:`~repro.query.batch.Batch`: the TIDs of each distinct key
        are fetched once, in the order the probes stream them."""
        from repro.query.batch import DEFAULT_BATCH_SIZE, Batch

        streams: dict[Any, Iterator[TID]] = {}
        for key in keys:
            path = AccessPath(kind="index-eq", column=attr, argument=key,
                              index_version=self.engine.catalog.index_version)
            relation, snapshot, tids = self._open_scan(
                class_name, spatial, temporal, filters + ((attr, key),),
                ranges, path)
            streams.setdefault(key, tids)  # equal keys: the same TIDs
        rows = [values for chunk in self.engine.value_batches(
            relation, snapshot, DEFAULT_BATCH_SIZE,
            itertools.chain.from_iterable(streams.values()))
            for values in chunk]
        return Batch.from_values(
            class_name, self.registry.get(class_name).attributes, rows)

    def iter_index_only_batches(self, class_name: str, path: AccessPath,
                                batch_size: int | None = None
                                ) -> Iterator["Batch"]:
        """Covering scan: the B-tree keys as single-column batches on the
        stored scans' ramp (:func:`~repro.storage.engine.batch_sizes`),
        never fetching heap values (one scan event recorded).

        Only valid for an ``index_only`` path (the planner guarantees
        the key covers every requested attribute and every predicate).
        """
        from repro.query.batch import DEFAULT_BATCH_SIZE, Batch

        if not path.index_only or path.column is None:
            raise StorageError(
                "an index-only scan needs an index-only access path"
            )
        column = path.column
        type_name = "int4" if column == OID_COLUMN \
            else self.registry.get(class_name).type_of(column)
        self._record_scan(class_name, None, None, (), ())
        eq, lo, hi = (path.argument, None, None) \
            if path.kind == "index-eq" else (None, *path.argument)
        pairs = self.engine.iter_index_keys(
            self.relation_for(class_name), column, eq=eq, lo=lo, hi=hi,
            snapshot=self._snapshot(),
        )
        sizes = batch_sizes(batch_size or DEFAULT_BATCH_SIZE)
        while keys := [key for key, _ in itertools.islice(pairs, next(sizes))]:
            arr, mask = build_column(type_name, keys)
            yield Batch(length=len(keys), columns={column: arr},
                        masks={} if mask is None else {column: mask},
                        order=(column,))

    def iter_index_only(self, class_name: str, path: AccessPath
                        ) -> Iterator[dict[str, Any]]:
        """Row view of :meth:`iter_index_only_batches`: ``{column: key}``
        dicts."""
        for batch in self.iter_index_only_batches(class_name, path):
            yield from batch.to_rows()

    def iter_find(self, class_name: str,
                  spatial: Box | None = None,
                  temporal: AbsTime | None = None,
                  filters: tuple[tuple[str, Any], ...] = (),
                  ranges: tuple[tuple[str, str, Any], ...] = (),
                  access_path: AccessPath | None = None
                  ) -> Iterator[SciObject]:
        """Stream matching objects through the cheapest access path.

        :meth:`iter_scan` (driven by *access_path* — a plan-time choice,
        re-chosen automatically when stale, i.e. when indexes were
        created or dropped since — or by :meth:`choose_path`) with every
        predicate re-checked per row, so pushdown only prunes the
        candidate stream, never changes the result.
        """
        cls = self.registry.get(class_name)
        filters, ranges = self.normalize_predicates(cls, filters, ranges)
        for obj in self.iter_scan(class_name, spatial, temporal, filters,
                                  ranges, access_path):
            if matches_extents(obj, cls, spatial, temporal) \
                    and matches_predicates(obj, filters, ranges):
                yield obj

    def find(self, class_name: str,
             spatial: Box | None = None,
             temporal: AbsTime | None = None,
             filters: tuple[tuple[str, Any], ...] = (),
             ranges: tuple[tuple[str, str, Any], ...] = (),
             access_path: AccessPath | None = None) -> list[SciObject]:
        """Spatio-temporal retrieval (paper §2.1.5 step 1), materialized:
        :meth:`iter_find` drained into a list."""
        return list(self.iter_find(class_name, spatial, temporal, filters,
                                   ranges, access_path))

    def _matching_values(self, class_name: str, spatial: Box | None,
                         temporal: AbsTime | None, chunk_rows: int
                         ) -> Iterator[tuple]:
        """Value tuples of the stored objects matching the extent
        predicates: :func:`matches_extents` read off the raw tuples, for
        callers that want oids or a verdict and no :class:`SciObject`."""
        cls = self.registry.get(class_name)
        names = cls.attribute_names
        box_at = names.index(cls.spatial_attr) + 1 \
            if spatial is not None and cls.spatial_attr is not None else 0
        time_at = names.index(cls.temporal_attr) + 1 \
            if temporal is not None and cls.temporal_attr is not None else 0
        relation, snapshot, tids = self._open_scan(
            class_name, spatial, temporal, (), (), None)
        for chunk in self.engine.value_batches(relation, snapshot,
                                               chunk_rows, tids):
            for values in chunk:
                if (not box_at or values[box_at].overlaps(spatial)) \
                        and (not time_at or values[time_at] == temporal):
                    yield values

    def find_oids(self, class_name: str,
                  spatial: Box | None = None,
                  temporal: AbsTime | None = None) -> list[int]:
        """Oids of the objects :meth:`find` would return, in the same
        order, without building them — what a supply count or an
        exclusion set needs."""
        return [values[0] for values in self._matching_values(
            class_name, spatial, temporal, _ROW_VIEW_CHUNK)]

    def exists(self, class_name: str,
               spatial: Box | None = None,
               temporal: AbsTime | None = None) -> bool:
        """Whether any stored object matches the extent predicates.

        Pulls one row at a time and stops at the first match — the cheap
        existence probe the planner uses to distinguish "predicates
        filtered everything out" from "nothing stored at these
        extents"."""
        return next(self._matching_values(class_name, spatial, temporal, 1),
                    None) is not None

    # -- automatically defined retrieval functions (paper §2.1.2) -------------

    def accessor(self, class_name: str, attr: str) -> Callable[[SciObject], Any]:
        """The auto-defined retrieval function ``attr(class)``.

        'The retrieval functions such as area(landcover) and
        timestamp(landcover) are automatically defined.'
        """
        cls = self.registry.get(class_name)
        cls.type_of(attr)  # raises when the attribute does not exist

        def access(obj: SciObject) -> Any:
            if obj.class_name != class_name:
                raise DerivationError(
                    f"{attr}({class_name}) applied to an object of "
                    f"{obj.class_name!r}"
                )
            return obj[attr]

        access.__name__ = f"{attr}_{class_name}"
        access.__doc__ = f"Auto-defined retrieval function {attr}({class_name})."
        return access
