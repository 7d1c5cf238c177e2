"""Write-ahead log with replay-based recovery.

Every state change in the storage engine appends a :class:`LogRecord`
before being applied.  Recovery replays the log into a fresh engine,
re-applying only work from committed transactions (aborted and unfinished
transactions are discarded, as in ARIES-lite redo-only recovery with
logical records).

Records may be kept purely in memory (the default, fine for tests and
benchmarks) or mirrored to a file with :meth:`WriteAheadLog.attach_file`,
in which case :func:`read_log_file` recovers them after a crash.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Iterator

from ..errors import WALError

__all__ = ["LogKind", "LogRecord", "WriteAheadLog", "read_log_file"]


class LogKind(Enum):
    """Kinds of logical log records."""

    BEGIN = "begin"
    COMMIT = "commit"
    ABORT = "abort"
    CREATE_RELATION = "create_relation"
    INSERT = "insert"


@dataclass(frozen=True)
class LogRecord:
    """One log entry.

    ``payload`` is kind-specific: relation name and column list for
    CREATE_RELATION; relation, TID and values for INSERT.
    """

    lsn: int
    kind: LogKind
    xid: int
    payload: dict[str, Any] = field(default_factory=dict)


@dataclass
class WriteAheadLog:
    """Append-only logical log."""

    _records: list[LogRecord] = field(default_factory=list)
    _next_lsn: int = 1
    _file: Any = None  # open binary file handle when attached

    def __len__(self) -> int:
        return len(self._records)

    def append(self, kind: LogKind, xid: int,
               payload: dict[str, Any] | None = None) -> LogRecord:
        """Append a record; returns it with its assigned LSN."""
        record = LogRecord(
            lsn=self._next_lsn, kind=kind, xid=xid, payload=payload or {}
        )
        self._next_lsn += 1
        self._records.append(record)
        if self._file is not None:
            pickle.dump(record, self._file, protocol=pickle.HIGHEST_PROTOCOL)
            self._file.flush()
        return record

    def __iter__(self) -> Iterator[LogRecord]:
        return iter(self._records)

    def committed_xids(self) -> set[int]:
        """Transactions with a COMMIT record in the log."""
        return {rec.xid for rec in self._records if rec.kind is LogKind.COMMIT}

    def verify(self) -> None:
        """Check LSNs are dense and ascending — the log's only physical
        invariant."""
        for position, record in enumerate(self._records, start=1):
            if record.lsn != position:
                raise WALError(
                    f"log corrupt: record {position} has lsn {record.lsn}"
                )

    # -- pickling (kernel checkpoints) -------------------------------------------

    def __getstate__(self) -> dict:
        """Checkpoints drop the mirrored-file handle (not picklable);
        reattach after restore if mirroring should continue."""
        state = self.__dict__.copy()
        state["_file"] = None
        return state

    # -- optional file mirroring ------------------------------------------------

    def attach_file(self, path: str | Path) -> None:
        """Mirror every future append to *path* (binary, append mode)."""
        if self._file is not None:
            raise WALError("a log file is already attached")
        self._file = open(path, "ab")

    def close(self) -> None:
        """Close the mirrored file, if any."""
        if self._file is not None:
            self._file.close()
            self._file = None


def read_log_file(path: str | Path) -> list[LogRecord]:
    """Read every record from a mirrored log file."""
    records: list[LogRecord] = []
    with open(path, "rb") as handle:
        while True:
            try:
                record = pickle.load(handle)
            except EOFError:
                break
            except pickle.UnpicklingError as exc:
                raise WALError(f"log file {path} corrupt: {exc}") from exc
            if not isinstance(record, LogRecord):
                raise WALError(f"log file {path} holds a non-record object")
            records.append(record)
    return records
