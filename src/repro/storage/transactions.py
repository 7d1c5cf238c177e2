"""Transactions and snapshot visibility (append-only MVCC-lite).

The substrate keeps the slice of Postgres semantics Gaea needs: every
transaction gets a monotonically increasing xid; committed/aborted states
are tracked; a :class:`Snapshot` captures the set of transactions visible
at its creation, and :func:`visible` decides whether a stored tuple
version exists for that snapshot.  Versions are only ever inserted, so
that decision reads one stamp: the version's creator, ``xmin``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from ..errors import TransactionError
from .tuples import TupleVersion

__all__ = ["TxStatus", "Transaction", "Snapshot", "TransactionManager", "visible"]


class TxStatus(Enum):
    """Lifecycle states of a transaction."""

    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class Transaction:
    """A transaction handle issued by :class:`TransactionManager`."""

    xid: int
    status: TxStatus = TxStatus.ACTIVE


@dataclass(frozen=True)
class Snapshot:
    """The view of the database a reader holds.

    A transaction is *in* the snapshot when it committed before the
    snapshot was taken.  ``own_xid`` lets a transaction see its own
    uncommitted writes, ``own_commits`` (its holder adds to it) those
    its holder committed after taking it.
    """

    committed: frozenset[int]
    own_xid: int | None = None
    own_commits: set[int] = field(default_factory=set, compare=False)

    def sees(self, xid: int) -> bool:
        """Whether work by *xid* is visible under this snapshot."""
        return xid in self.committed or xid == self.own_xid \
            or xid in self.own_commits


def visible(version: TupleVersion, snapshot: Snapshot) -> bool:
    """Visibility of an append-only tuple version: it exists for the
    snapshots that see its creator (committed before the snapshot, or
    the snapshot's own transaction)."""
    return snapshot.sees(version.xmin)


@dataclass
class TransactionManager:
    """Allocates xids and tracks commit state."""

    _next_xid: int = 1
    _transactions: dict[int, Transaction] = field(default_factory=dict)
    _committed: set[int] = field(default_factory=set)
    # Guards xid allocation, state transitions, and snapshot capture so
    # readers snapshotting concurrently with a commit get either the
    # before- or after-commit committed-set, never a torn one.
    # Reentrant: `force_committed` raises the xid floor under it.
    _lock: threading.RLock = field(default_factory=threading.RLock,
                                   repr=False, compare=False)

    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        del state["_lock"]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    def begin(self) -> Transaction:
        """Start a new transaction."""
        with self._lock:
            tx = Transaction(xid=self._next_xid)
            self._next_xid += 1
            self._transactions[tx.xid] = tx
            return tx

    def _get_active(self, tx: Transaction) -> Transaction:
        stored = self._transactions.get(tx.xid)
        if stored is None:
            raise TransactionError(f"unknown transaction {tx.xid}")
        if stored.status is not TxStatus.ACTIVE:
            raise TransactionError(
                f"transaction {tx.xid} is already {stored.status.value}"
            )
        return stored

    def commit(self, tx: Transaction) -> None:
        """Commit *tx*; its writes become visible to later snapshots."""
        with self._lock:
            stored = self._get_active(tx)
            stored.status = TxStatus.COMMITTED
            tx.status = TxStatus.COMMITTED
            self._committed.add(tx.xid)

    def abort(self, tx: Transaction) -> None:
        """Abort *tx*; its writes never become visible."""
        with self._lock:
            stored = self._get_active(tx)
            stored.status = TxStatus.ABORTED
            tx.status = TxStatus.ABORTED

    def status_of(self, xid: int) -> TxStatus:
        """Status of the transaction with id *xid*."""
        tx = self._transactions.get(xid)
        if tx is None:
            raise TransactionError(f"unknown transaction {xid}")
        return tx.status

    def is_aborted(self, xid: int) -> bool:
        """Whether *xid* aborted (False for unknown xids)."""
        tx = self._transactions.get(xid)
        return tx is not None and tx.status is TxStatus.ABORTED

    def snapshot(self, for_tx: Transaction | None = None) -> Snapshot:
        """Take a snapshot of everything committed so far, optionally on
        behalf of *for_tx* (which then sees its own writes)."""
        with self._lock:
            return Snapshot(
                committed=frozenset(self._committed),
                own_xid=for_tx.xid if for_tx is not None else None,
            )

    # -- recovery hooks (used by WAL replay) ----------------------------------

    def restore_xid_floor(self, next_xid: int) -> None:
        """Ensure freshly allocated xids stay above replayed history."""
        with self._lock:
            self._next_xid = max(self._next_xid, next_xid)

    def force_committed(self, xid: int) -> None:
        """Mark *xid* committed during WAL replay."""
        with self._lock:
            self._transactions[xid] = Transaction(
                xid=xid, status=TxStatus.COMMITTED)
            self._committed.add(xid)
            self.restore_xid_floor(xid + 1)
