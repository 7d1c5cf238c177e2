"""Property tests: a full scan read off the column image equals the
per-row ``visible()`` walk.

Hypothesis generates interleavings of begin / insert / commit / abort
over a relation of at least six pages, so that it has sealed pages (read
off the :class:`~repro.storage.columns.ColumnImage`) and an unsealed
tail (walked tuple by tuple).  Snapshots are taken at arbitrary points —
a reader's, each in-flight writer's own, and a holder's view that later
adds its own commits — and scanned at arbitrary later points, which
extends the image in several segments and lets aborts stamp rows
already imaged.  For every snapshot and batch size,
:meth:`StorageEngine.column_batches` must return exactly the values a
per-row ``visible()`` walk of the heap returns, in TID order, in batches
on the :func:`~repro.storage.engine.batch_sizes` ramp, as read-only
arrays.

A threaded test aborts transactions whose rows fill sealed pages while
another thread scans, extending the image: no aborted row may ever be
returned.
"""

from __future__ import annotations

import itertools
import threading

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.adt import make_standard_registries
from repro.core import open_kernel
from repro.core.classes import NonPrimitiveClass, View
from repro.storage import StorageEngine
from repro.storage.engine import batch_sizes
from repro.storage.transactions import visible

_RELATION = "t"
#: Seven rows to a page: the base history spans seven pages, four of
#: them the unsealed tail, and one insert step can seal a page.
_PAD = "x" * 1000
_BASE_ROWS = 49


def _engine():
    engine = StorageEngine(types=make_standard_registries()[0])
    engine.create_relation(_RELATION, [("k", "int4"), ("r", "float8"),
                                       ("s", "text")])
    return engine


def _insert(engine, tx, key):
    engine.insert(_RELATION, (key, key / 4, _PAD), tx)


def _expected(engine, snapshot):
    heap = engine._state(_RELATION).heap
    return [version.values for _, version in heap.scan()
            if visible(version, snapshot)]


def _ramp(total, batch_size):
    lengths = []
    for size in batch_sizes(batch_size):
        if total <= 0:
            return lengths
        lengths.append(min(size, total))
        total -= size


def _check(engine, snapshot, batch_size):
    batches = list(engine.column_batches(_RELATION, snapshot,
                                         batch_size=batch_size))
    rows = []
    for columns in batches:
        assert len(columns) == 3
        for values, mask in columns:
            assert not values.flags.writeable
            assert mask is None or not mask.flags.writeable
        rows.extend(zip(*(values.tolist() for values, _ in columns)))
    expected = _expected(engine, snapshot)
    assert rows == expected
    assert [len(columns[0][0]) for columns in batches] \
        == _ramp(len(expected), batch_size)


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["begin", "insert", "insert", "commit", "abort",
                         "snapshot", "scan"]),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=1, max_value=40),
    ),
    min_size=1, max_size=40,
)


@settings(deadline=None, max_examples=60)
@given(ops=_OPS, batch_size=st.sampled_from([1, 7, 64, 100, 1024]))
# a writer's rows imaged while it is in flight, then stamped by its abort
@example(ops=[("begin", 0, 1), ("insert", 0, 40), ("scan", 0, 1),
              ("abort", 0, 1)], batch_size=7)
# imaged rows a view sees through its own_commits only
@example(ops=[("begin", 0, 1), ("insert", 0, 40), ("commit", 0, 1)],
         batch_size=64)
def test_column_scan_equals_the_visible_walk(ops, batch_size):
    engine = _engine()
    keys = itertools.count()
    for _ in range(_BASE_ROWS):
        engine.insert_row(_RELATION, (next(keys), 0.5, _PAD))
    heap = engine._state(_RELATION).heap
    assert heap.page_count >= 6 and heap.sealed_page_count >= 2
    active = []
    snapshots = [engine.snapshot()]
    for op, pick, count in ops:
        if op == "begin":
            active.append(engine.begin())
        elif op == "snapshot":
            # a reader's, or an in-flight writer's own
            tx = active[pick % len(active)] if active and pick % 2 else None
            snapshots.append(engine.snapshot(tx))
        elif op == "scan":
            for snapshot in snapshots:
                _check(engine, snapshot, batch_size)
        elif active:
            tx = active[pick % len(active)]
            if op == "insert":
                for _ in range(count):
                    _insert(engine, tx, next(keys))
            elif op == "commit":
                engine.commit(tx)
                active.remove(tx)
                # a holder's view counts what it committed since
                snapshots[pick % len(snapshots)].own_commits.add(tx.xid)
            else:
                engine.abort(tx)
                active.remove(tx)
    snapshots.append(engine.snapshot())
    for snapshot in snapshots:
        _check(engine, snapshot, batch_size)


def test_an_abort_racing_image_extension_never_shows():
    """Aborted writers fill sealed pages while a reader scans; the image
    may be extended over their rows before or after the abort stamps
    them, and no scan ever returns one."""
    engine = _engine()
    for key in range(_BASE_ROWS):
        engine.insert_row(_RELATION, (key, 0.5, _PAD))
    done = threading.Event()
    seen_aborted: list[int] = []
    scans = 0

    def reader():
        nonlocal scans
        while not done.is_set():
            for columns in engine.column_batches(_RELATION):
                keys = columns[0][0]
                seen_aborted.extend(keys[keys < 0].tolist())
            scans += 1
            done.wait(0.0005)  # let the writer have the interpreter

    thread = threading.Thread(target=reader)
    thread.start()
    try:
        committed = _BASE_ROWS
        for _ in range(12):
            tx = engine.begin()
            # 20 pages of doomed rows: most of them get sealed (and
            # imaged) while their writer is still in flight
            for i in range(140):
                engine.insert(_RELATION, (-1 - i, 0.5, _PAD), tx)
            engine.abort(tx)
            for _ in range(10):
                engine.insert_row(_RELATION, (committed, 0.5, _PAD))
                committed += 1
    finally:
        done.set()
        thread.join()
    assert scans > 0
    assert seen_aborted == []
    rows = [row for columns in engine.column_batches(_RELATION)
            for row in columns[0][0].tolist()]
    assert rows == list(range(committed))


def test_class_batches_equal_the_row_view():
    """Through :class:`ClassStore`: a full scan's batches, imaged rows
    and tail alike, rebuild exactly the objects :meth:`iter_scan`
    streams, on the ramp."""
    kernel = open_kernel()
    kernel.derivations.define_class(NonPrimitiveClass(
        name="obs",
        attributes=(("code", "int4"), ("reading", "float8"),
                    ("note", "text")),
        spatial_attr=None, temporal_attr=None,
    ))
    store = kernel.store
    codes = itertools.count()

    def stored(count):
        for code in itertools.islice(codes, count):
            store.store("obs", {"code": code, "reading": code / 8,
                                "note": _PAD})

    stored(30)
    tx = store.begin_transaction()
    with View(store, tx).entered():
        stored(40)
        # the writer sees its own rows, and the scan images them
        assert sum(batch.length
                   for batch in store.iter_scan_batches("obs")) == 70
    store.rollback_transaction(tx)
    stored(30)
    heap = kernel.engine._state(store.relation_for("obs")).heap
    assert heap.sealed_page_count >= 6
    batches = list(store.iter_scan_batches("obs", batch_size=100))
    assert [batch.length for batch in batches] == _ramp(60, 100)
    rows = [obj for batch in batches for obj in batch.to_rows()]
    assert rows == list(store.iter_scan("obs"))
    assert [obj["code"] for obj in rows] == [*range(30), *range(70, 100)]
