"""Tests for transactions and snapshot visibility."""

import pickle

import pytest

from repro.errors import TransactionError
from repro.storage import (
    ABORTED,
    Snapshot,
    StorageEngine,
    Transaction,
    TransactionManager,
    TupleVersion,
    visible,
)


class TestLifecycle:
    def test_begin_assigns_increasing_xids(self):
        mgr = TransactionManager()
        assert mgr.begin().xid < mgr.begin().xid

    def test_commit(self):
        mgr = TransactionManager()
        tx = mgr.begin()
        assert tx.xid in mgr.snapshot().in_flight
        mgr.commit(tx)
        assert tx.xid not in mgr.snapshot().in_flight
        assert mgr.snapshot().sees(tx.xid)

    def test_abort(self):
        mgr = TransactionManager()
        tx = mgr.begin()
        mgr.abort(tx)
        assert tx.xid not in mgr.snapshot().in_flight

    def test_double_commit_rejected(self):
        mgr = TransactionManager()
        tx = mgr.begin()
        mgr.commit(tx)
        with pytest.raises(TransactionError):
            mgr.commit(tx)

    def test_commit_after_abort_rejected(self):
        mgr = TransactionManager()
        tx = mgr.begin()
        mgr.abort(tx)
        with pytest.raises(TransactionError):
            mgr.commit(tx)

    def test_unknown_xid(self):
        with pytest.raises(TransactionError):
            TransactionManager().abort(Transaction(xid=99))

    def test_state_is_allocation_and_the_in_flight_set(self):
        mgr = TransactionManager()
        mgr.commit(mgr.begin())
        mgr.abort(mgr.begin())
        assert vars(mgr).keys() == {"_next_xid", "_in_flight", "_lock"}


class TestSnapshots:
    def test_snapshot_excludes_uncommitted(self):
        mgr = TransactionManager()
        tx = mgr.begin()
        snap = mgr.snapshot()
        assert not snap.sees(tx.xid)

    def test_snapshot_includes_committed(self):
        mgr = TransactionManager()
        tx = mgr.begin()
        mgr.commit(tx)
        assert mgr.snapshot().sees(tx.xid)

    def test_own_writes_visible(self):
        mgr = TransactionManager()
        tx = mgr.begin()
        snap = mgr.snapshot(for_tx=tx)
        assert snap.sees(tx.xid)

    def test_snapshot_is_frozen_in_time(self):
        mgr = TransactionManager()
        snap = mgr.snapshot()
        tx = mgr.begin()
        mgr.commit(tx)
        assert not snap.sees(tx.xid)  # committed after the snapshot

    def test_horizon_is_the_next_xid(self):
        mgr = TransactionManager()
        first, second = mgr.begin(), mgr.begin()
        mgr.commit(second)
        snap = mgr.snapshot()
        assert (snap.horizon, snap.in_flight) == (3, frozenset({1}))
        assert snap.sees(second.xid) and not snap.sees(first.xid)
        assert not snap.sees(snap.horizon)


class TestVisibility:
    def test_visible_when_creator_committed(self):
        version = TupleVersion(values=("a",), xmin=1)
        assert visible(version, Snapshot(horizon=2))

    def test_invisible_when_creator_uncommitted(self):
        version = TupleVersion(values=("a",), xmin=1)
        assert not visible(version,
                           Snapshot(horizon=2, in_flight=frozenset({1})))
        assert not visible(version, Snapshot(horizon=1))

    def test_own_insert_visible_to_self_only(self):
        version = TupleVersion(values=("a",), xmin=5)
        in_flight = frozenset({5, 6})
        assert visible(version,
                       Snapshot(horizon=7, in_flight=in_flight, own_xid=5))
        assert not visible(version,
                           Snapshot(horizon=7, in_flight=in_flight, own_xid=6))

    def test_aborted_stamp_is_above_every_horizon(self):
        version = TupleVersion(values=("a",), xmin=ABORTED)
        assert not visible(version, Snapshot(horizon=ABORTED))

    def test_later_commits_do_not_change_a_snapshot(self):
        version = TupleVersion(values=("a",), xmin=2)
        mgr = TransactionManager()
        first, second = mgr.begin(), mgr.begin()
        mgr.commit(first)
        before = mgr.snapshot()
        mgr.commit(second)
        assert not visible(version, before)
        assert visible(version, mgr.snapshot())

    def test_creator_is_the_only_stamp(self):
        """Append-only storage: a version carries no deleter."""
        assert not hasattr(TupleVersion(values=("a",), xmin=1), "xmax")


class TestRecoveryHooks:
    def test_restore_xid_floor(self):
        mgr = TransactionManager()
        mgr.restore_xid_floor(100)
        assert mgr.begin().xid >= 100
        assert mgr.snapshot().sees(99)


class TestBoundedBookkeeping:
    """Finished xids leave nothing behind: the manager's state and a
    snapshot's size do not grow with commit history."""

    @staticmethod
    def _cycles(engine, count):
        for _ in range(count):
            engine.commit(engine.begin())
            engine.abort(engine.begin())

    def test_bookkeeping_does_not_grow_with_history(self, types):
        engine = StorageEngine(types=types)
        self._cycles(engine, 10)
        small = len(pickle.dumps(engine.transactions))
        self._cycles(engine, 10_000)
        large = len(pickle.dumps(engine.transactions))
        # _next_xid's pickled int widens by a few bytes; nothing else grows
        assert large - small <= 8
        snap = engine.snapshot()
        assert snap.in_flight == frozenset()
        assert len(snap.committed) == 2 * 10_010
