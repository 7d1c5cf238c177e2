"""Storage substrate: the POSTGRES-substitute backend.

An append-only (MVCC-lite) in-memory storage engine with slotted-page heap
files, a system catalog typed by the ADT layer, B-tree / grid / timeline
indexes, transactions with snapshot visibility, and a write-ahead log with
replay-based recovery.
"""

from .access import AccessPath, choose_access_path
from .btree import BTree
from .catalog import Catalog, Column, IndexDef, Schema
from .engine import Row, StorageEngine
from .heap import DEFAULT_PAGE_BYTES, HeapFile, SlottedPage
from .transactions import (
    ABORTED,
    Snapshot,
    Transaction,
    TransactionManager,
    visible,
)
from .tuples import TID, TupleVersion
from .wal import LogKind, LogRecord, WriteAheadLog, read_log_file

__all__ = [
    "ABORTED",
    "AccessPath",
    "BTree",
    "Catalog",
    "Column",
    "IndexDef",
    "choose_access_path",
    "DEFAULT_PAGE_BYTES",
    "HeapFile",
    "LogKind",
    "LogRecord",
    "Row",
    "Schema",
    "SlottedPage",
    "Snapshot",
    "StorageEngine",
    "TID",
    "Transaction",
    "TransactionManager",
    "TupleVersion",
    "WriteAheadLog",
    "read_log_file",
    "visible",
]
