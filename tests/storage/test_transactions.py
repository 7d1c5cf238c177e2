"""Tests for transactions and snapshot visibility."""

import pytest

from repro.errors import TransactionError
from repro.storage import (
    Snapshot,
    TransactionManager,
    TupleVersion,
    TxStatus,
    visible,
)


class TestLifecycle:
    def test_begin_assigns_increasing_xids(self):
        mgr = TransactionManager()
        assert mgr.begin().xid < mgr.begin().xid

    def test_commit(self):
        mgr = TransactionManager()
        tx = mgr.begin()
        mgr.commit(tx)
        assert tx.status is TxStatus.COMMITTED
        assert mgr.status_of(tx.xid) is TxStatus.COMMITTED

    def test_abort(self):
        mgr = TransactionManager()
        tx = mgr.begin()
        mgr.abort(tx)
        assert mgr.status_of(tx.xid) is TxStatus.ABORTED

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
            TransactionManager().status_of(99)


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


class TestVisibility:
    def test_visible_when_creator_committed(self):
        version = TupleVersion(values=("a",), xmin=1)
        assert visible(version, Snapshot(committed=frozenset({1})))

    def test_invisible_when_creator_uncommitted(self):
        version = TupleVersion(values=("a",), xmin=1)
        assert not visible(version, Snapshot(committed=frozenset()))

    def test_own_insert_visible_to_self_only(self):
        version = TupleVersion(values=("a",), xmin=5)
        assert visible(version, Snapshot(committed=frozenset({1}), own_xid=5))
        assert not visible(version,
                           Snapshot(committed=frozenset({1}), own_xid=6))

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
    def test_force_committed(self):
        mgr = TransactionManager()
        mgr.force_committed(10)
        assert mgr.status_of(10) is TxStatus.COMMITTED
        assert mgr.begin().xid > 10

    def test_restore_xid_floor(self):
        mgr = TransactionManager()
        mgr.restore_xid_floor(100)
        assert mgr.begin().xid >= 100
