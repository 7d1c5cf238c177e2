"""Property-based tests: MVCC snapshots see exactly what ``visible()``
promises.

Hypothesis generates arbitrary interleavings of begin / insert / commit /
abort — every operation the append-only engine has — against a real
:class:`StorageEngine`, alongside a plain Python model of the same
history (a version is seen exactly when its creator, ``xmin``, is).  After every step, snapshots taken from
arbitrary vantage points (no transaction, each in-flight transaction) must
see exactly the model's predicted row set — no phantom from an aborted or
in-flight writer, no missing committed row.

A second suite replays generated histories with the writer on one thread
and a pool of readers snapshotting concurrently: every observed result
set must equal the model's prediction for *some* prefix of the committed
history (snapshot atomicity — a reader may be early or late, never torn).
"""

from __future__ import annotations

import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adt import make_standard_registries
from repro.storage import StorageEngine
from repro.storage.transactions import visible

_RELATION = "t"


def _engine():
    engine = StorageEngine(types=make_standard_registries()[0])
    engine.create_relation(_RELATION, [("k", "int4")])
    return engine


class _Model:
    """The oracle: tuple versions plus transaction statuses, in pure
    Python, updated in lockstep with the engine."""

    def __init__(self):
        self.versions = []  # (key, xmin) in insert order
        self.committed: set[int] = set()
        self.active: list[int] = []

    def predict(self, committed: set[int], own: int | None) -> list[int]:
        """Keys a snapshot with *committed* (+ *own*) must see, sorted."""
        return sorted(key for key, xmin in self.versions
                      if xmin in committed or xmin == own)


# Opcodes reference transactions by index modulo the live count, so
# every generated sequence is valid by construction.
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["begin", "insert", "commit", "abort"]),
        st.integers(min_value=0, max_value=7),
    ),
    min_size=1, max_size=60,
)


def _apply(engine, model, txs, op, arg) -> None:
    """One step on both the engine and the model (no-op when illegal)."""
    if op == "begin":
        tx = engine.begin()
        txs[tx.xid] = tx
        model.active.append(tx.xid)
        return
    if not model.active:
        return
    xid = model.active[arg % len(model.active)]
    tx = txs[xid]
    if op == "insert":
        key = len(model.versions)
        engine.insert(_RELATION, (key,), tx)
        model.versions.append((key, xid))
    elif op == "commit":
        engine.commit(tx)
        model.active.remove(xid)
        model.committed.add(xid)
    elif op == "abort":
        engine.abort(tx)
        model.active.remove(xid)


def _seen_keys(engine, snapshot) -> list[int]:
    return sorted(row["k"] for row in engine.scan(_RELATION, snapshot))


class TestSequentialVisibility:
    @settings(deadline=None, max_examples=60)
    @given(ops=_OPS)
    def test_snapshots_match_model_after_every_step(self, ops):
        engine = _engine()
        model = _Model()
        txs = {}
        for op, arg in ops:
            _apply(engine, model, txs, op, arg)
            # A bystander snapshot: exactly the committed set.
            assert _seen_keys(engine, engine.snapshot()) == \
                model.predict(model.committed, None)
            # Every in-flight writer additionally sees its own work.
            for xid in model.active:
                snap = engine.snapshot(txs[xid])
                assert _seen_keys(engine, snap) == \
                    model.predict(model.committed, xid)

    @settings(deadline=None, max_examples=60)
    @given(ops=_OPS)
    def test_snapshot_is_frozen_at_begin(self, ops):
        """A snapshot taken early never changes meaning: replaying the
        visibility check later (after more commits) yields the same rows,
        because Snapshot.committed is a frozen set, not a live view."""
        engine = _engine()
        model = _Model()
        txs = {}
        early = engine.snapshot()
        early_prediction = model.predict(set(early.committed), None)
        for op, arg in ops:
            _apply(engine, model, txs, op, arg)
            assert _seen_keys(engine, early) == early_prediction

    @settings(deadline=None, max_examples=40)
    @given(ops=_OPS)
    def test_visible_agrees_with_scan(self, ops):
        """engine.scan is exactly heap-order filtering by visible()."""
        engine = _engine()
        model = _Model()
        txs = {}
        for op, arg in ops:
            _apply(engine, model, txs, op, arg)
        snap = engine.snapshot()
        state = engine._state(_RELATION)
        expected = [version.values[0]
                    for _tid, version in state.heap.scan()
                    if visible(version, snap)]
        assert [row["k"] for row in engine.scan(_RELATION, snap)] == expected


class TestThreadedVisibility:
    """The writer replays a generated history on one thread while reader
    threads snapshot+scan concurrently.  Without interleaving control,
    the checkable property is snapshot atomicity: every observed result
    set equals the model's prediction at one of the committed-set states
    the history passes through."""

    @settings(deadline=None, max_examples=15)
    @given(ops=_OPS)
    def test_concurrent_readers_see_consistent_prefixes(self, ops):
        engine = _engine()
        model = _Model()
        txs = {}

        # Precompute every state the committed set passes through, with
        # its predicted visible keys.  The model is replayed up front
        # (the engine is not), so readers can check against it live.
        shadow = _Model()
        legal_results: set[tuple[int, ...]] = {()}
        next_xid = engine.transactions._next_xid
        plan = list(ops)
        for op, arg in plan:
            if op == "begin":
                shadow.active.append(next_xid)
                next_xid += 1
                continue
            if not shadow.active:
                continue
            xid = shadow.active[arg % len(shadow.active)]
            if op == "insert":
                shadow.versions.append((len(shadow.versions), xid))
            elif op == "commit":
                shadow.active.remove(xid)
                shadow.committed.add(xid)
                legal_results.add(
                    tuple(shadow.predict(shadow.committed, None))
                )
            elif op == "abort":
                shadow.active.remove(xid)

        stop = threading.Event()
        failures: list[str] = []

        def reader():
            while not stop.is_set():
                seen = tuple(_seen_keys(engine, engine.snapshot()))
                if seen not in legal_results:
                    failures.append(f"torn read: {seen}")
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for op, arg in plan:
                _apply(engine, model, txs, op, arg)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not failures, failures[0]
        assert tuple(model.predict(model.committed, None)) in legal_results
