"""remote_connect: the DB-API client over the wire protocol.

:class:`RemoteConnection` and :class:`RemoteCursor` mirror the local
:class:`~repro.query.client.Connection`/``Cursor`` surface — execute
with bind parameters, fetchone/fetchmany/fetchall/iteration, explain,
begin/commit/rollback — over one socket to a :class:`~.server.GaeaServer`.

Server-side failures come back as typed error frames; the client
re-raises them as the matching :mod:`repro.errors` class when one
exists (``UnderivableError`` on the server is ``UnderivableError``
here), falling back to :class:`~repro.errors.InterfaceError`.

Unlike the local API, a remote connection is *not* thread-safe: it owns
one socket carrying strictly ordered request/response pairs.  Open one
connection per thread — the server gives each its own snapshot-isolated
session.
"""

from __future__ import annotations

import socket
from typing import Any, Iterator

from .. import errors
from ..errors import GaeaError, InterfaceError
from ..query.client import _RowBuffer
from .protocol import decode_page, encode_value, recv_frame, send_frame

__all__ = ["RemoteConnection", "RemoteCursor", "remote_connect"]

#: Rows the ``execute`` reply carries, and rows pulled per fetch frame
#: when draining (fetchall / iteration): a stored scan's first batch.
_FETCH_BATCH = 64


def _raise_remote(error: dict[str, Any]) -> None:
    """Re-raise a server error frame as its local exception type."""
    name = error.get("type", "InterfaceError")
    message = error.get("message", "remote error")
    exc_type = getattr(errors, name, None)
    if not (isinstance(exc_type, type) and issubclass(exc_type, GaeaError)):
        exc_type = InterfaceError
        message = f"{name}: {message}"
    raise exc_type(message)


def _rows_then_raise(rows: list[Any], error: dict[str, Any]
                     ) -> Iterator[Any]:
    """A page whose filling failed: its rows, then the server's error."""
    yield from rows
    _raise_remote(error)


class RemoteConnection:
    """A client connection to a :class:`~.server.GaeaServer`."""

    def __init__(self, host: str, port: int,
                 timeout: float | None = None):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._closed = False
        hello = self.request({"op": "hello"})
        self.server_version: str = hello.get("version", "?")

    # -- wire ----------------------------------------------------------------

    def request(self, payload: dict[str, Any]) -> dict[str, Any]:
        """One request/response round trip; raises on error frames."""
        if self._closed:
            raise InterfaceError("remote connection is closed")
        try:
            send_frame(self._sock, payload)
            response = recv_frame(self._sock)
        except OSError as exc:
            self._closed = True
            raise InterfaceError(f"connection lost: {exc}") from exc
        if response is None:
            self._closed = True
            raise InterfaceError("server closed the connection")
        if "error" in response:
            _raise_remote(response["error"])
        return response.get("ok", {})

    # -- DB-API surface ------------------------------------------------------

    def cursor(self) -> "RemoteCursor":
        if self._closed:
            raise InterfaceError("remote connection is closed")
        return RemoteCursor(self)

    def execute(self, source: str, params: Any = None) -> "RemoteCursor":
        """Eager convenience mirroring ``Connection.execute``."""
        cursor = self.cursor()
        cursor.execute(source, params)
        cursor.fetchall()
        return cursor

    def store(self, class_name: str, values: dict[str, Any]) -> int:
        """Store one object (GaeaQL has no INSERT); returns its oid.

        ADT values — :class:`~repro.spatial.box.Box`,
        :class:`~repro.temporal.abstime.AbsTime`,
        :class:`~repro.adt.image.Image` — travel through the value
        codec; strings in external form (``'(0,0,10,10)'``,
        ``'1986-01-15'``) are coerced server-side as usual.
        """
        ok = self.request({
            "op": "store", "class": class_name,
            "values": encode_value(values),
        })
        return ok["oid"]

    def begin(self, read_only: bool = False) -> None:
        self.request({"op": "begin", "read_only": read_only})

    def commit(self) -> None:
        self.request({"op": "commit"})

    def rollback(self) -> None:
        self.request({"op": "rollback"})

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        if self._closed:
            return
        try:
            self.request({"op": "close"})
        except (GaeaError, OSError):
            pass
        self._closed = True
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "RemoteConnection":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self._closed:
            try:
                if exc_type is None:
                    self.commit()
                else:
                    self.rollback()
            except (GaeaError, OSError):
                pass
        self.close()


class RemoteCursor:
    """A streaming result handle over the wire (PEP-249 shaped): the
    local cursor's row buffer, seeded with the ``_FETCH_BATCH`` rows the
    ``execute`` reply carries and refilled one ``fetch`` frame at a time
    — one row for ``fetchone()``, the rows it still lacks for
    ``fetchmany(n)``, ``_FETCH_BATCH`` pages when draining."""

    arraysize = 1

    def __init__(self, connection: RemoteConnection):
        self.connection = connection
        self.description: list[tuple] | None = None
        #: Non-object results, as ``{"kind", "message", "path"}`` dicts.
        self.results: list[dict[str, Any]] = []
        self._cursor_id: int | None = None
        self._rows = _RowBuffer()
        self._done = True  # the server has reported the stream's end
        self._closed = False

    def execute(self, source: str, params: Any = None) -> "RemoteCursor":
        self._check_open()
        ok = self.connection.request({
            "op": "execute",
            "cursor": self._cursor_id,
            "source": source,
            "params": encode_value(params),
            "count": _FETCH_BATCH,
        })
        self._cursor_id = ok["cursor"]
        self.description = (
            [tuple(column) for column in ok["description"]]
            if ok.get("description") else None
        )
        self.results = []
        self._rows = _RowBuffer(self._fetch_page, self._page(ok))
        return self

    def executemany(self, source: str, seq_of_params: Any) -> "RemoteCursor":
        for params in seq_of_params:
            self.execute(source, params)
            self.fetchall()
        return self

    def explain(self, source: str, params: Any = None) -> str:
        self._check_open()
        ok = self.connection.request({
            "op": "explain", "source": source,
            "params": encode_value(params),
        })
        return ok["plan"]

    # -- fetching ------------------------------------------------------------

    def _fetch_page(self, want: int | None) -> Iterator[Any] | None:
        """The row buffer's refill: one ``fetch`` frame."""
        if self._done:
            return None
        return self._page(self.connection.request({
            "op": "fetch", "cursor": self._cursor_id,
            "count": _FETCH_BATCH if want is None else want,
        }))

    def _page(self, ok: dict[str, Any]) -> Iterator[Any]:
        """The page an ``execute`` or ``fetch`` reply carries."""
        # The server re-ships the cursor's full message list (statements
        # past a retrieval run as the stream drains); keep the superset.
        if len(ok.get("results", [])) > len(self.results):
            self.results = list(ok["results"])
        self._done = ok["done"]
        rows = decode_page(ok["rows"])
        if "error" in ok:
            return _rows_then_raise(rows, ok["error"])
        return iter(rows)

    def fetchone(self) -> Any | None:
        rows = self._rows.take(1)
        return rows[0] if rows else None

    def fetchmany(self, size: int | None = None) -> list[Any]:
        return self._rows.take(self.arraysize if size is None else size)

    def fetchall(self) -> list[Any]:
        return self._rows.take(None)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._rows)

    @property
    def rowcount(self) -> int:
        return self._rows.rowcount

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._cursor_id is not None and not self.connection.closed:
            try:
                self.connection.request({
                    "op": "close_cursor", "cursor": self._cursor_id,
                })
            except (GaeaError, OSError):
                pass
        self._rows.close()

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("cursor is closed")

    def __enter__(self) -> "RemoteCursor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def remote_connect(host: str = "127.0.0.1", port: int = 7474,
                   timeout: float | None = None) -> RemoteConnection:
    """Connect to a running ``repro serve`` / :class:`GaeaServer`.

    ::

        from repro.client import remote_connect

        conn = remote_connect("127.0.0.1", 7474)
        cur = conn.cursor()
        cur.execute("SELECT FROM land_cover WHERE timestamp = ?",
                    ["1986-01-15"])
        for obj in cur:
            ...
    """
    return RemoteConnection(host, port, timeout=timeout)
