"""The storage engine facade — Gaea's POSTGRES substitute.

Ties together the catalog, heap files, B-tree / spatial / temporal
indexes, the transaction manager, and the write-ahead log.  The API is
deliberately the slice Gaea needs:

* ``create_relation`` / ``insert`` / ``scan`` with snapshot visibility.
  Storage is append-only, like the immutable objects it holds:
  ``insert`` is the only write, a version is visible to the snapshots
  that see its creator, and only an aborted insert leaves a dead one,
  stamped ``ABORTED`` by the abort,
* secondary indexes on scalar columns (B-tree), the spatial extent
  (grid index) and the temporal extent (timeline),
* ``recover`` — rebuild an engine by replaying a WAL.

The auto-commit wrapper `insert_row` keeps simple callers out of
explicit transaction plumbing.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from ..adt.registry import TypeRegistry
from ..errors import StorageError, TupleNotFoundError, UnknownRelationError
from ..spatial.box import Box
from ..spatial.grid_index import GridIndex
from ..temporal.abstime import AbsTime
from ..temporal.timeline import Timeline
from .btree import BTree
from .catalog import Catalog, IndexDef, Schema
from .columns import (Column, ColumnImage, build_columns, concat_columns,
                      stop_page, take_columns)
from .heap import HeapFile
from .transactions import (ABORTED, Snapshot, Transaction,
                           TransactionManager, visible)
from .tuples import TID, TupleVersion
from .wal import LogKind, WriteAheadLog

__all__ = ["StorageEngine", "Row", "batch_sizes"]

#: Rows in a scan's first batch: a consumer that wants one row waits
#: for this many, not for a full batch.
FIRST_BATCH_ROWS = 64


def batch_sizes(batch_size: int) -> Iterator[int]:
    """Every stored scan's batch sizes: 64 rows first, then doubling up
    to *batch_size*, which repeats from there on.  A *batch_size* under
    64 applies from the first batch."""
    size = min(FIRST_BATCH_ROWS, batch_size)
    while True:
        yield size
        size = min(2 * size, batch_size)


def _visible_values(versions: list[TupleVersion], snap: Snapshot
                    ) -> list[tuple]:
    """The values of the *versions* visible under *snap*.

    :func:`~repro.storage.transactions.visible` inlined: the per-row
    function-call overhead would dominate a scan that does nothing else
    per row.  ``xmin`` is read twice, and an abort may stamp it
    ``ABORTED`` in between: testing ``in_flight`` first hides a version
    read as its in-flight creator and then as ``ABORTED``, where
    ``< horizon`` first would pass both tests.
    """
    horizon = snap.horizon
    in_flight = snap.in_flight
    own = snap.own_xid
    own_commits = snap.own_commits
    return [v.values for v in versions
            if v.xmin not in in_flight and v.xmin < horizon
            or v.xmin == own or v.xmin in own_commits]


@dataclass(frozen=True)
class Row:
    """A visible tuple returned by scans: its TID plus named values."""

    relation: str
    tid: TID
    values: dict[str, Any]

    def __getitem__(self, column: str) -> Any:
        return self.values[column]


@dataclass
class _RelationState:
    heap: HeapFile
    image: ColumnImage = field(default_factory=ColumnImage)
    btrees: dict[str, BTree] = field(default_factory=dict)
    spatial: GridIndex | None = None
    spatial_column: str | None = None
    temporal: Timeline | None = None
    temporal_column: str | None = None


def _orders(tree: BTree, *keys: Any) -> bool:
    """Whether *tree*'s key domain orders every probe key in *keys*
    (``None`` is an open bound).  Index keys are type-validated on
    insert, so comparing against one stored key decides it; an empty
    tree compares nothing and so orders anything."""
    bounds = tree.key_bounds()
    if bounds is None:
        return True
    try:
        for key in keys:
            if key is not None:
                key < bounds[0]  # noqa: B015 - evaluated for its TypeError
    except TypeError:
        return False
    return True


@dataclass
class StorageEngine:
    """In-memory append-only storage engine with WAL-based recovery."""

    types: TypeRegistry
    catalog: Catalog = field(init=False)
    transactions: TransactionManager = field(default_factory=TransactionManager)
    wal: WriteAheadLog = field(default_factory=WriteAheadLog)
    _relations: dict[str, _RelationState] = field(default_factory=dict)
    # Per-transaction undo log: one ``(relation, tid)`` per inserted
    # row.  An abort stamps each version ``ABORTED``, reads the keys off
    # it and removes the TID from whatever indexes the relation has by
    # then, so no index ever keeps pointers to rolled-back row versions.
    _undo_log: dict[int, list[tuple[str, TID]]] = field(default_factory=dict)
    # Serializes all mutating paths (DDL, DML, commit/abort, WAL
    # appends).  Readers never take it: they work off an immutable
    # `Snapshot` plus structures that are individually safe to read
    # while written (append-only heap, internally locked indexes), so a
    # reader is never blocked by the writer.  Reentrant because
    # `insert_row` composes begin/insert/commit.  Lock order: engine
    # lock, then the transaction manager's or an index's internal lock —
    # never the reverse.
    _write_lock: threading.RLock = field(default_factory=threading.RLock,
                                         repr=False, compare=False)

    def __post_init__(self) -> None:
        self.catalog = Catalog(types=self.types)

    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        del state["_write_lock"]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._write_lock = threading.RLock()

    # -- DDL -----------------------------------------------------------------

    def create_relation(self, name: str, columns: list[tuple[str, str]],
                        tx: Transaction | None = None) -> Schema:
        """Create a relation; logs the DDL."""
        with self._write_lock:
            schema = self.catalog.create(name, columns)
            self._relations[name] = _RelationState(heap=HeapFile(name=name))
            self.wal.append(
                LogKind.CREATE_RELATION,
                xid=tx.xid if tx else 0,
                payload={"relation": name, "columns": list(columns)},
            )
            return schema

    def _buildable_versions(self, state: _RelationState
                            ) -> Iterator[tuple[TID, TupleVersion]]:
        """Heap versions an index build should load: all but the aborted
        ones, which are dead forever.  Versions of still-active
        transactions are loaded too — their rows are in the undo log, so
        a later rollback purges them from this index like from any
        other."""
        for tid, version in state.heap.scan():
            if version.xmin != ABORTED:
                yield tid, version

    def create_index(self, relation: str, column: str, order: int = 32,
                     name: str | None = None) -> IndexDef:
        """Build a B-tree on *column*, loading existing live keys.

        The index is registered in the catalog (bumping the index
        version, which invalidates cached plans) and maintained by every
        subsequent insert and rollback.
        """
        with self._write_lock:
            state = self._state(relation)
            schema = self.catalog.get(relation)
            position = schema.index_of(column)
            if column in state.btrees:
                raise StorageError(
                    f"index on {relation}.{column} already exists")
            index = self.catalog.add_index(relation, column, "btree",
                                           name=name)
            tree = BTree(order=order)
            for tid, version in self._buildable_versions(state):
                tree.insert(version.values[position], tid)
            state.btrees[column] = tree
            return index

    def create_spatial_index(self, relation: str, column: str,
                             universe: Box, nx: int = 16, ny: int = 16,
                             name: str | None = None) -> IndexDef:
        """Attach a grid index over a box-typed column."""
        with self._write_lock:
            state = self._state(relation)
            schema = self.catalog.get(relation)
            if schema.type_of(column) != "box":
                raise StorageError(f"{relation}.{column} is not box-typed")
            index = self.catalog.add_index(relation, column, "spatial",
                                           name=name)
            state.spatial = GridIndex(universe=universe, nx=nx, ny=ny)
            state.spatial_column = column
            position = schema.index_of(column)
            for tid, version in self._buildable_versions(state):
                state.spatial.insert(tid, version.values[position])
            return index

    def create_temporal_index(self, relation: str, column: str,
                              name: str | None = None) -> IndexDef:
        """Attach a timeline over an abstime-typed column."""
        with self._write_lock:
            state = self._state(relation)
            schema = self.catalog.get(relation)
            if schema.type_of(column) != "abstime":
                raise StorageError(
                    f"{relation}.{column} is not abstime-typed")
            index = self.catalog.add_index(relation, column, "temporal",
                                           name=name)
            state.temporal = Timeline()
            state.temporal_column = column
            position = schema.index_of(column)
            for tid, version in self._buildable_versions(state):
                state.temporal.add(version.values[position], tid)
            return index

    def drop_index(self, relation: str, column: str) -> None:
        """Drop the B-tree on ``relation.column`` (catalog + structure)."""
        with self._write_lock:
            self._btree(relation, column)  # raises when there is none
            self.drop_index_named(
                self.catalog.find_index(relation, column, "btree").name)

    def drop_index_named(self, name: str) -> IndexDef:
        """Drop any secondary index by its catalog name."""
        with self._write_lock:
            index = self.catalog.index_named(name)
            state = self._state(index.relation)
            self.catalog.drop_index(name)
            if index.kind == "btree":
                state.btrees.pop(index.column, None)
            elif index.kind == "spatial":
                state.spatial = None
                state.spatial_column = None
            else:
                state.temporal = None
                state.temporal_column = None
            return index

    def has_index(self, relation: str, column: str) -> bool:
        """Whether a B-tree exists on ``relation.column``."""
        return column in self._state(relation).btrees

    def _state(self, relation: str) -> _RelationState:
        try:
            return self._relations[relation]
        except KeyError:
            raise UnknownRelationError(relation) from None

    def relations(self) -> list[str]:
        """All relation names."""
        return self.catalog.relations()

    # -- transactions ------------------------------------------------------------

    def begin(self) -> Transaction:
        """Start a transaction (logged)."""
        with self._write_lock:
            tx = self.transactions.begin()
            self.wal.append(LogKind.BEGIN, xid=tx.xid)
            return tx

    def commit(self, tx: Transaction) -> None:
        """Commit (logged — the commit record is the durability point)."""
        with self._write_lock:
            self.wal.append(LogKind.COMMIT, xid=tx.xid)
            self.transactions.commit(tx)
            # Committed rows are permanent: drop their undo entries.
            self._undo_log.pop(tx.xid, None)

    def abort(self, tx: Transaction) -> list[tuple[str, tuple]]:
        """Abort (logged); the transaction's versions stay dead forever
        and leave the secondary indexes.  Returns the purged rows as
        ``(relation, values)``, in insert order."""
        with self._write_lock:
            self.wal.append(LogKind.ABORT, xid=tx.xid)
            purged = self._purge_aborted_inserts(tx.xid)
            # Only now may the xid leave the in-flight set: from then on
            # a snapshot's horizon covers it, and the stamps hide its rows.
            self.transactions.abort(tx)
            return purged

    def _purge_aborted_inserts(self, xid: int) -> list[tuple[str, tuple]]:
        """Stamp every row inserted under *xid* ``ABORTED`` and remove it
        from the indexes its relation has now, reading the keys off the
        heap version.  Readers do not mind when: the version is invisible
        with or without its index entries.  (The membership tests cover a
        row whose insert failed part-way through index maintenance.)"""
        purged = []
        for relation, tid in self._undo_log.pop(xid, ()):
            state = self._state(relation)
            schema = self.catalog.get(relation)
            version = state.heap.get(tid)
            with state.image.lock:  # shared with the image's extension
                version.xmin = ABORTED
                state.image.stamp_aborted(tid)
            values = version.values
            purged.append((relation, values))
            for column, tree in state.btrees.items():
                key = values[schema.index_of(column)]
                if tid in tree.search(key):
                    tree.delete(key, tid)
            if state.spatial is not None and tid in state.spatial:
                state.spatial.remove(tid)
            if state.temporal is not None:
                at = values[schema.index_of(state.temporal_column)]
                if tid in state.temporal.at(at):
                    state.temporal.remove(at, tid)
        return purged

    def snapshot(self, tx: Transaction | None = None) -> Snapshot:
        """Current snapshot, optionally for an in-flight transaction."""
        return self.transactions.snapshot(for_tx=tx)

    # -- DML -----------------------------------------------------------------------

    def insert(self, relation: str, values: tuple[Any, ...],
               tx: Transaction) -> TID:
        """Insert a row version under *tx*; maintains all indexes."""
        with self._write_lock:
            state = self._state(relation)
            normalized = self.catalog.validate_row(relation, values)
            version = TupleVersion(values=normalized, xmin=tx.xid)
            tid = state.heap.insert(version)
            # Undo first: a version missing from the undo log would
            # escape the abort's stamp and show once its xid finished.
            self._undo_log.setdefault(tx.xid, []).append((relation, tid))
            self.wal.append(
                LogKind.INSERT, xid=tx.xid,
                payload={"relation": relation, "tid": tid,
                         "values": normalized},
            )
            schema = self.catalog.get(relation)
            for column, tree in state.btrees.items():
                tree.insert(normalized[schema.index_of(column)], tid)
            if state.spatial is not None:
                state.spatial.insert(
                    tid, normalized[schema.index_of(state.spatial_column)])
            if state.temporal is not None:
                state.temporal.add(
                    normalized[schema.index_of(state.temporal_column)], tid)
            return tid

    # -- reads -----------------------------------------------------------------------

    def fetch(self, relation: str, tid: TID,
              snapshot: Snapshot | None = None) -> Row:
        """The visible row at *tid* (error when invisible/absent)."""
        snap = snapshot or self.snapshot()
        state = self._state(relation)
        version = state.heap.get(tid)
        if not visible(version, snap):
            raise TupleNotFoundError(f"{relation}{tid} not visible")
        schema = self.catalog.get(relation)
        return Row(relation=relation, tid=tid,
                   values=schema.as_dict(version.values))

    def scan(self, relation: str, snapshot: Snapshot | None = None
             ) -> Iterator[Row]:
        """All visible rows, in TID order."""
        snap = snapshot or self.snapshot()
        state = self._state(relation)
        schema = self.catalog.get(relation)
        for tid, version in state.heap.scan():
            if visible(version, snap):
                yield Row(relation=relation, tid=tid,
                          values=schema.as_dict(version.values))

    def _iter_visible_tids(self, relation: str, tids: Iterator[TID],
                           snap: Snapshot) -> Iterator[Row]:
        """Stream visible rows for *tids*, skipping invisible versions."""
        for tid in tids:
            try:
                yield self.fetch(relation, tid, snap)
            except TupleNotFoundError:
                continue

    def value_batches(self, relation: str,
                      snapshot: Snapshot | None = None,
                      batch_size: int = 1024,
                      tids: Iterator[TID] | None = None
                      ) -> Iterator[list[tuple]]:
        """Visible raw value tuples (schema order, ``_oid`` first) in
        batches that ramp up to *batch_size* (:func:`batch_sizes`) — the
        columnar scan surface.

        No :class:`Row` dicts are built: the version value tuples are
        handed out by reference (sound under append-only storage — a
        version's values never mutate).  With *tids* given,
        rows are fetched in that order, skipping invisible versions —
        this is how index paths batch; the TID streams ride the chunked
        B-tree ``range_scan`` (≤256 pairs per lock acquisition), so
        batch assembly adds no extra copies.  Without *tids*, the whole
        heap is walked in TID order like :meth:`scan`.
        """
        snap = snapshot or self.snapshot()
        state = self._state(relation)
        out: list[tuple] = []
        sizes = batch_sizes(batch_size)
        size = next(sizes)
        if tids is None:
            for versions in state.heap.iter_version_lists():
                out.extend(_visible_values(versions, snap))
                while len(out) >= size:
                    yield out[:size]
                    out = out[size:]
                    size = next(sizes)
        else:
            heap = state.heap
            for tid in tids:
                version = heap.get(tid)  # index TIDs never dangle
                if visible(version, snap):
                    out.append(version.values)
                    if len(out) >= size:
                        yield out
                        out = []
                        size = next(sizes)
        if out:
            yield out

    def column_batches(self, relation: str,
                       snapshot: Snapshot | None = None,
                       batch_size: int = 1024) -> Iterator[list[Column]]:
        """The full scan of :meth:`value_batches` as columns: the same
        visible rows in the same batches, each one read-only ``(values,
        null mask)`` pair per schema column (``_oid`` first).

        The sealed pages are slices (or index-takes) of the relation's
        :class:`~repro.storage.columns.ColumnImage`, first extended over
        every page sealed now, with visibility one
        :meth:`Snapshot.sees_each` mask per segment; the unsealed tail is
        walked tuple by tuple, like every page in :meth:`value_batches`.
        """
        snap = snapshot or self.snapshot()
        state = self._state(relation)
        types = [col.type_name for col in self.catalog.get(relation).columns]
        segments = state.image.extend(state.heap, types)

        def runs() -> Iterator[tuple[list[Column], np.ndarray]]:
            # (columns, visible rows) in TID order; the tail built last
            for seg in segments:
                yield seg.columns, np.flatnonzero(snap.sees_each(seg.xmin))
            tail = [values for versions in state.heap.iter_version_lists(
                        stop_page(segments))
                    for values in _visible_values(versions, snap)]
            yield build_columns(types, tail), np.arange(len(tail))

        sizes = batch_sizes(batch_size)
        size = next(sizes)
        pieces: list[list[Column]] = []  # the next batch, so far
        held = 0
        for columns, rows in runs():
            while len(rows):
                need = size - held
                pieces.append(take_columns(columns, rows[:need]))
                held += min(need, len(rows))
                rows = rows[need:]
                if held == size:
                    yield concat_columns(pieces)
                    pieces, held = [], 0
                    size = next(sizes)
        if pieces:
            yield concat_columns(pieces)

    def _btree(self, relation: str, column: str) -> BTree:
        tree = self._state(relation).btrees.get(column)
        if tree is None:
            raise StorageError(f"no index on {relation}.{column}")
        return tree

    def _range_buckets(self, relation: str, column: str, lo: Any, hi: Any,
                       reverse: bool) -> Iterator[tuple[Any, set[TID]]]:
        """``(key, TIDs)`` per key in ``[lo, hi]``, in (reversed) key
        order, riding the chunked snapshot ``range_scan``."""
        tree = self._btree(relation, column)
        if not _orders(tree, lo, hi):
            # A bound the key domain cannot order prunes nothing: the
            # consumer's residual re-check then answers (or raises its
            # typed error) exactly as it would over a full scan, so the
            # index's presence never changes the result.
            lo = hi = None
        return tree.range_scan(lo, hi, reverse=reverse)

    def iter_lookup_tids(self, relation: str, column: str, key: Any
                         ) -> Iterator[TID]:
        """TID stream of one equality probe, ascending (visibility
        unchecked — the fetch layer checks it).  A key the tree's key
        domain cannot order equals no stored key: the stream is empty,
        as the same equality over a full scan would be."""
        tree = self._btree(relation, column)
        if _orders(tree, key):
            yield from sorted(tree.search(key))

    def iter_range_tids(self, relation: str, column: str, lo: Any, hi: Any,
                        reverse: bool = False) -> Iterator[TID]:
        """TID stream of one range probe in key order (descending with
        *reverse*); ``None`` bounds are open-ended.  Key-ordered
        streaming is the substrate of sort avoidance: an ``ORDER BY``
        over an indexed column rides this instead of an explicit Sort."""
        for _, bucket in self._range_buckets(relation, column, lo, hi,
                                             reverse):
            yield from sorted(bucket)

    def iter_spatial_tids(self, relation: str, query: Box) -> Iterator[TID]:
        """TID stream of a spatial-grid probe: extents overlapping
        *query*'s grid cells."""
        state = self._state(relation)
        if state.spatial is None:
            raise StorageError(f"no spatial index on {relation}")
        yield from sorted(state.spatial.query(query))

    def iter_temporal_tids(self, relation: str, at: AbsTime) -> Iterator[TID]:
        """TID stream of a timeline probe: rows stamped exactly *at*."""
        state = self._state(relation)
        if state.temporal is None:
            raise StorageError(f"no temporal index on {relation}")
        yield from sorted(state.temporal.at(at))

    # The ``Row`` views of the four probes: the same TID streams, fetched
    # one visible row at a time (a consumer that stops early does no
    # further work).

    def iter_lookup(self, relation: str, column: str, key: Any,
                    snapshot: Snapshot | None = None) -> Iterator[Row]:
        """Stream the visible rows with ``column == key`` via the B-tree."""
        yield from self._iter_visible_tids(
            relation, self.iter_lookup_tids(relation, column, key),
            snapshot or self.snapshot())

    def iter_range(self, relation: str, column: str, lo: Any, hi: Any,
                   snapshot: Snapshot | None = None,
                   reverse: bool = False) -> Iterator[Row]:
        """Stream visible rows with ``lo <= column <= hi`` in key order
        (descending key order with *reverse*)."""
        yield from self._iter_visible_tids(
            relation,
            self.iter_range_tids(relation, column, lo, hi, reverse=reverse),
            snapshot or self.snapshot())

    def iter_spatial(self, relation: str, query: Box,
                     snapshot: Snapshot | None = None) -> Iterator[Row]:
        """Stream visible rows whose extent overlaps *query*."""
        yield from self._iter_visible_tids(
            relation, self.iter_spatial_tids(relation, query),
            snapshot or self.snapshot())

    def iter_temporal(self, relation: str, at: AbsTime,
                      snapshot: Snapshot | None = None) -> Iterator[Row]:
        """Stream visible rows stamped exactly *at*."""
        yield from self._iter_visible_tids(
            relation, self.iter_temporal_tids(relation, at),
            snapshot or self.snapshot())

    def iter_index_keys(self, relation: str, column: str,
                        eq: Any = None,
                        lo: Any = None, hi: Any = None,
                        snapshot: Snapshot | None = None,
                        reverse: bool = False
                        ) -> Iterator[tuple[Any, TID]]:
        """Stream ``(key, tid)`` pairs off the B-tree without touching
        heap values — the substrate of covering index-only scans.

        Visibility is still checked (the version *header* is read; the
        values are not materialized into a row dict).  With *eq* set,
        only that key's bucket is walked; otherwise ``[lo, hi]`` with
        ``None`` bounds open-ended.
        """
        snap = snapshot or self.snapshot()
        heap = self._state(relation).heap
        buckets = [(eq, self.iter_lookup_tids(relation, column, eq))] \
            if eq is not None \
            else self._range_buckets(relation, column, lo, hi, reverse)
        for key, bucket in buckets:
            for tid in sorted(bucket):
                if visible(heap.get(tid), snap):
                    yield key, tid

    def timeline_of(self, relation: str) -> Timeline:
        """The temporal index of *relation* (for interpolation planning)."""
        state = self._state(relation)
        if state.temporal is None:
            raise StorageError(f"no temporal index on {relation}")
        return state.temporal

    # -- auto-commit convenience ----------------------------------------------------------

    def insert_row(self, relation: str, values: tuple[Any, ...]) -> TID:
        """Insert inside a fresh, immediately committed transaction."""
        with self._write_lock:
            tx = self.begin()
            try:
                tid = self.insert(relation, values, tx)
            except Exception:
                self.abort(tx)
                raise
            self.commit(tx)
            return tid

    # -- statistics -------------------------------------------------------------------------

    def access_info(self, relation: str, spatial: Box | None = None,
                    temporal: AbsTime | None = None,
                    histogram_columns: tuple[str, ...] | None = None
                    ) -> dict[str, Any]:
        """Everything the cost model needs to price access paths: O(1)
        (histograms amortized — cached in the B-tree, rebuilt only after
        significant key churn).

        ``rows`` is the stored-version count (an upper bound on visible
        rows — dead versions only pad the full-scan cost, which is the
        honest direction to err).  When *spatial*/*temporal* probes are
        supplied, per-probe cardinality estimates are included.
        *histogram_columns* limits histogram (re)builds to the columns
        the query actually predicates on (None means all).
        """
        state = self._state(relation)
        btrees = {
            column: {
                "entries": len(tree),
                "distinct": tree.distinct_keys(),
                "bounds": tree.key_bounds(),
                "histogram": (
                    tree.histogram()
                    if histogram_columns is None
                    or column in histogram_columns else None
                ),
            }
            for column, tree in state.btrees.items()
        }
        spatial_estimate = None
        if state.spatial is not None and spatial is not None:
            spatial_estimate = state.spatial.estimate_matches(spatial)
        temporal_estimate = None
        if state.temporal is not None and temporal is not None:
            temporal_estimate = len(state.temporal.at(temporal))
        return {
            "rows": state.heap.version_count(),
            "index_version": self.catalog.index_version,
            "btrees": btrees,
            "spatial_column": state.spatial_column,
            "spatial_entries": (len(state.spatial)
                                if state.spatial is not None else None),
            "spatial_estimate": spatial_estimate,
            "temporal_column": state.temporal_column,
            "temporal_estimate": temporal_estimate,
        }

    def index_stats(self, relation: str, column: str) -> dict[str, Any]:
        """Statistics of the B-tree on ``relation.column``, for browsing
        (``SHOW INDEXES``) and plan dumps: why a path was priced the way
        it was.

        ``histogram_buckets`` is the bucket count of the cached
        equi-depth histogram (0 for non-numeric key domains).
        """
        tree = self._btree(relation, column)
        histogram = tree.histogram()
        return {
            "entries": len(tree),
            "distinct_keys": tree.distinct_keys(),
            "histogram_buckets": len(histogram) if histogram else 0,
            "depth": tree.depth(),
        }

    def stats(self, relation: str) -> dict[str, int]:
        """Physical statistics: pages, stored versions, visible rows."""
        state = self._state(relation)
        live = sum(1 for _ in self.scan(relation))
        return {
            "pages": state.heap.page_count,
            "versions": state.heap.version_count(),
            "visible_rows": live,
        }

    # -- recovery ------------------------------------------------------------------------------

    @staticmethod
    def recover(wal: WriteAheadLog, types: TypeRegistry) -> "StorageEngine":
        """Rebuild an engine by replaying *wal* (redo of committed work).

        DDL from any transaction is replayed (relations are never rolled
        back in this substrate); inserts are replayed only for committed
        xids, in log order, so the rows of aborted and unfinished
        transactions are simply not there (TIDs are re-derived by replay
        and may differ from the logged ones).
        """
        wal.verify()
        committed = wal.committed_xids()
        engine = StorageEngine(types=types)
        for record in wal:
            if record.kind is LogKind.CREATE_RELATION:
                name = record.payload["relation"]
                engine.catalog.create(name, record.payload["columns"])
                engine._relations[name] = _RelationState(heap=HeapFile(name=name))
            elif record.kind is LogKind.INSERT and record.xid in committed:
                engine._state(record.payload["relation"]).heap.insert(
                    TupleVersion(values=record.payload["values"],
                                 xmin=record.xid))
        engine.transactions.restore_xid_floor(max(committed, default=0) + 1)
        # The recovered engine starts a fresh log; history lives in `wal`.
        return engine
