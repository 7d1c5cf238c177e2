"""Write-ahead log with replay-based recovery.

Every state change in the storage engine appends a :class:`LogRecord`
before being applied.  Recovery replays the log into a fresh engine,
re-applying only work from committed transactions (aborted and unfinished
transactions are discarded, as in ARIES-lite redo-only recovery with
logical records).

A log without a file holds its records in memory (fine for tests and
benchmarks).  A log given a file by :meth:`WriteAheadLog.attach_file`
before its first record has the file as the log: each append is written
and flushed there and kept nowhere else, iterating the log reads the
file back, and :func:`read_log_file` recovers the same records after a
crash.
"""

from __future__ import annotations

import itertools
import pickle
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, BinaryIO, Iterator

from ..errors import WALError

__all__ = ["LogKind", "LogRecord", "WriteAheadLog", "read_log_file"]


class LogKind(Enum):
    """Kinds of logical log records."""

    BEGIN = "begin"
    COMMIT = "commit"
    ABORT = "abort"
    CREATE_RELATION = "create_relation"
    INSERT = "insert"


@dataclass(frozen=True, slots=True)
class LogRecord:
    """One log entry.

    ``payload`` is kind-specific: relation name and column list for
    CREATE_RELATION; relation, TID and values for INSERT.
    """

    lsn: int
    kind: LogKind
    xid: int
    payload: dict[str, Any] = field(default_factory=dict)

    def __reduce__(self) -> tuple:
        # Positional and slot-free: small on disk, and loadable on 3.10,
        # where a frozen slotted dataclass cannot be unpickled.
        return LogRecord, (self.lsn, self.kind, self.xid, self.payload)

    def __setstate__(self, state: dict) -> None:  # pickled before slots
        for name, value in state.items():
            object.__setattr__(self, name, value)


@dataclass
class WriteAheadLog:
    """Append-only logical log: the records written to its file (if it
    has one), then the records held in memory."""

    _records: list[LogRecord] = field(default_factory=list)
    _next_lsn: int = 1
    _file: Any = None  # open binary file handle while attached
    _path: str | None = None  # the log file, kept after close()
    _in_file: int = 0  # records written to the file

    def __len__(self) -> int:
        return self._next_lsn - 1

    def append(self, kind: LogKind, xid: int,
               payload: dict[str, Any] | None = None) -> LogRecord:
        """Append a record; returns it with its assigned LSN."""
        record = LogRecord(self._next_lsn, kind, xid, payload or {})
        if self._file is not None:
            pickle.dump(record, self._file, protocol=pickle.HIGHEST_PROTOCOL)
            self._file.flush()
            self._in_file += 1
        else:
            self._records.append(record)
        self._next_lsn += 1
        return record

    def __iter__(self) -> Iterator[LogRecord]:
        if self._path is not None:
            count = self._in_file  # only records flushed before this read
            try:
                with open(self._path, "rb") as handle:
                    yield from itertools.islice(_read(handle, self._path),
                                                count)
            except OSError as exc:
                raise WALError(f"log file unreadable: {exc}") from exc
        yield from self._records

    def committed_xids(self) -> set[int]:
        """Transactions with a COMMIT record in the log."""
        return {rec.xid for rec in self if rec.kind is LogKind.COMMIT}

    def verify(self) -> None:
        """Check LSNs are dense and ascending — the log's only physical
        invariant."""
        for position, record in enumerate(self, start=1):
            if record.lsn != position:
                raise WALError(
                    f"log corrupt: record {position} has lsn {record.lsn}"
                )

    # -- pickling (kernel checkpoints) -------------------------------------------

    def __getstate__(self) -> dict:
        """Checkpoints keep the file's path, not its handle: the restored
        log reads the records written there, then holds new ones."""
        state = self.__dict__.copy()
        state["_file"] = None
        return state

    # -- the log file -------------------------------------------------------------

    def attach_file(self, path: str | Path) -> None:
        """Make the new or empty file *path* the log, from its first
        record on: every append is written there, and kept nowhere else."""
        if self._path is not None or self._next_lsn > 1:
            raise WALError("a log file is attached once, before the "
                           "log's first record")
        handle = open(path, "ab")
        if handle.tell():
            handle.close()
            raise WALError(f"log file {path} is not empty")
        self._file, self._path = handle, str(path)

    def close(self) -> None:
        """Close the log file, if any.  The log keeps reading it; later
        appends are held in memory."""
        if self._file is not None:
            self._file.close()
            self._file = None


def _read(handle: BinaryIO, path: Any) -> Iterator[LogRecord]:
    """The records of an open log file, up to its end."""
    while True:
        try:
            record = pickle.load(handle)
        except EOFError:
            return
        except pickle.UnpicklingError as exc:
            raise WALError(f"log file {path} corrupt: {exc}") from exc
        if not isinstance(record, LogRecord):
            raise WALError(f"log file {path} holds a non-record object")
        yield record


def read_log_file(path: str | Path) -> list[LogRecord]:
    """Read every record from a log file."""
    with open(path, "rb") as handle:
        return list(_read(handle, path))
