"""Transactions and snapshot visibility (append-only MVCC-lite).

The substrate keeps the slice of Postgres semantics Gaea needs: every
transaction gets a monotonically increasing xid, and the manager keeps
only xid allocation and the set of xids in flight — a finished xid
leaves no bookkeeping behind.  A :class:`Snapshot` is a *horizon* (the
first xid not yet allocated when it was taken) plus the xids then in
flight, and :func:`visible` decides whether a stored tuple version
exists for it.  Versions are only ever inserted, so that decision reads
one stamp: the version's creator, ``xmin``.  An abort stamps its
versions :data:`ABORTED`, above every horizon, before its xid leaves the
in-flight set; so a finished xid below a horizon committed.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..errors import TransactionError
from .tuples import TupleVersion

__all__ = ["ABORTED", "Transaction", "Snapshot", "TransactionManager",
           "visible"]

#: The ``xmin`` of a version whose creator aborted: no horizon reaches it.
ABORTED = sys.maxsize


@dataclass(frozen=True)
class Transaction:
    """A transaction handle issued by :class:`TransactionManager`."""

    xid: int


@dataclass(frozen=True)
class Snapshot:
    """The view of the database a reader holds.

    It sees the xids below ``horizon`` that were not ``in_flight`` when
    it was taken: everything that had committed.  ``own_xid`` lets a
    transaction see its own uncommitted writes, ``own_commits`` (its
    holder adds to it) those its holder committed after taking it.
    """

    horizon: int
    in_flight: frozenset[int] = frozenset()
    own_xid: int | None = None
    own_commits: set[int] = field(default_factory=set, compare=False)

    def sees(self, xid: int) -> bool:
        """Whether work by *xid* is visible under this snapshot."""
        return xid not in self.in_flight and xid < self.horizon \
            or xid == self.own_xid or xid in self.own_commits

    def sees_each(self, xmin: np.ndarray) -> np.ndarray:
        """:meth:`sees` over an array of xids, as a boolean mask.

        An abort may stamp an element ``ABORTED`` between two reads of
        it: testing ``in_flight`` first hides an element read as its
        in-flight creator and then as ``ABORTED``, where ``< horizon``
        first would pass both tests."""
        seen = ~np.isin(xmin, list(self.in_flight)) & (xmin < self.horizon)
        if self.own_xid is not None:
            seen |= xmin == self.own_xid
        if self.own_commits:
            seen |= np.isin(xmin, list(self.own_commits))
        return seen

    @property
    def committed(self) -> frozenset[int]:
        """The finished xids below the horizon, aborted ones included.
        O(history): nothing in the engine reads it."""
        return frozenset(range(1, self.horizon)) - self.in_flight


def visible(version: TupleVersion, snapshot: Snapshot) -> bool:
    """Visibility of an append-only tuple version: it exists for the
    snapshots that see its creator (committed before the snapshot, or
    the snapshot's own transaction)."""
    return snapshot.sees(version.xmin)


@dataclass
class TransactionManager:
    """Allocates xids and tracks the ones in flight."""

    _next_xid: int = 1
    _in_flight: set[int] = field(default_factory=set)
    # Guards allocation, finishing and snapshot capture, so a snapshot
    # never counts an allocated xid as finished before it is.
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        del state["_lock"]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def begin(self) -> Transaction:
        """Start a new transaction."""
        with self._lock:
            tx = Transaction(xid=self._next_xid)
            self._next_xid += 1
            self._in_flight.add(tx.xid)
            return tx

    def _finish(self, tx: Transaction) -> None:
        with self._lock:
            if tx.xid not in self._in_flight:
                raise TransactionError(f"transaction {tx.xid} is not in flight")
            self._in_flight.remove(tx.xid)

    def commit(self, tx: Transaction) -> None:
        """Commit *tx*; its writes become visible to later snapshots."""
        self._finish(tx)

    def abort(self, tx: Transaction) -> None:
        """Abort *tx*, whose versions the caller has already stamped
        :data:`ABORTED`; they never become visible."""
        self._finish(tx)

    def snapshot(self, for_tx: Transaction | None = None) -> Snapshot:
        """Take a snapshot of everything committed so far, optionally on
        behalf of *for_tx* (which then sees its own writes)."""
        with self._lock:
            return Snapshot(
                horizon=self._next_xid,
                in_flight=frozenset(self._in_flight),
                own_xid=for_tx.xid if for_tx is not None else None,
            )

    def restore_xid_floor(self, next_xid: int) -> None:
        """Start allocating at *next_xid* or above: WAL replay calls it
        with one past the last committed xid, which puts every replayed
        version below the horizon."""
        with self._lock:
            self._next_xid = max(self._next_xid, next_xid)
