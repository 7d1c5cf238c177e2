"""GaeaServer: a thread-per-connection socket server over one kernel.

Each accepted socket gets its own thread and its own DB-API
:class:`~repro.query.client.Connection` over the shared kernel, so the
in-process concurrency guarantees carry straight to the wire:

* every statement reads one snapshot and never blocks on a writer;
* a transaction belongs to its connection: any number of remote
  connections may write at once, and each one's uncommitted work is
  visible to it alone, exactly as in process;
* a connection dying mid-transaction (socket reset, client crash) rolls
  its transaction back without disturbing any other connection.

Request/response pairs are JSON frames (see :mod:`.protocol`).  One
request per frame, one response per frame, processed strictly in order
per connection.  Requests::

    {"op": "hello"}
    {"op": "execute", "cursor": id?, "source": str, "params": [...]?,
     "count": int?}
    {"op": "fetch", "cursor": id, "count": int}
    {"op": "explain", "source": str, "params": [...]?}
    {"op": "store", "class": str, "values": {...}}
    {"op": "begin", "read_only": bool?}
    {"op": "commit"} | {"op": "rollback"}
    {"op": "close_cursor", "cursor": id}
    {"op": "close"}

Success responses are ``{"ok": {...}}``; failures are
``{"error": {"type": <exception class name>, "message": str}}`` and
leave the connection alive (protocol-level corruption closes it).

``execute`` and ``fetch`` both reply with a *page*: up to ``count``
rows, column-major (:func:`.protocol.encode_page`), plus ``done`` once
the stream's end has been found and the cursor's ``results`` so far.
So a result that fits in ``execute``'s page costs one round trip.  A
page stops before a statement that follows a retrieval (that statement
runs in the fetch that asks past the retrieval's end), and an error
raised while the page fills rides in the page as ``"error"``, after its
rows: the client raises it in the fetch that reaches it, where a local
cursor would.
"""

from __future__ import annotations

import socket
import threading
from typing import Any

from ..core.metadata_manager import MetadataManager, WORLD, open_kernel
from ..errors import InterfaceError
from ..gis import register_gis_operators
from ..query.client import Connection, Cursor
from .protocol import (ProtocolError, decode_value, encode_page, recv_frame,
                       send_frame)

__all__ = ["GaeaServer"]


def _error(exc: Exception) -> dict[str, str]:
    """The wire form of a failure."""
    return {"type": type(exc).__name__, "message": str(exc)}


class _WireSession:
    """Per-socket state: one Connection plus its numbered cursors."""

    def __init__(self, kernel: MetadataManager):
        self.connection = Connection(kernel=kernel)
        self.cursors: dict[int, Cursor] = {}
        self._next_cursor = 0

    def cursor_for(self, cursor_id: Any) -> Cursor:
        """The numbered cursor for a request; a fresh, unnumbered one
        when id is None (:meth:`register` numbers it)."""
        if cursor_id is None:
            return self.connection.cursor()
        try:
            return self.cursors[cursor_id]
        except KeyError:
            raise InterfaceError(f"no cursor {cursor_id!r}") from None

    def register(self, cursor: Cursor) -> int:
        """Number *cursor* so later requests can name it."""
        self._next_cursor += 1
        self.cursors[self._next_cursor] = cursor
        return self._next_cursor

    def close(self) -> None:
        for cursor in self.cursors.values():
            cursor.close()
        self.cursors.clear()
        self.connection.close()  # rolls back any open transaction


class GaeaServer:
    """A threaded wire server sharing one kernel across connections.

    ::

        with GaeaServer() as server:          # ephemeral port
            conn = remote_connect(server.host, server.port)
            ...

    Pass an existing *kernel* to serve data already loaded in process;
    otherwise a fresh kernel (with GIS operators) is created.  ``port=0``
    binds an ephemeral port, published as ``server.port`` after
    :meth:`start`.
    """

    def __init__(self, kernel: MetadataManager | None = None,
                 host: str = "127.0.0.1", port: int = 0):
        if kernel is None:
            kernel = open_kernel(universe=WORLD)
            register_gis_operators(kernel.operators)
        self.kernel = kernel
        self.host = host
        self.port = port
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._stopping = threading.Event()
        self._lock = threading.Lock()
        self._client_threads: list[threading.Thread] = []
        self._client_sockets: set[socket.socket] = set()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "GaeaServer":
        """Bind, listen, and start accepting in a background thread."""
        if self._listener is not None:
            raise InterfaceError("server already started")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(128)
        self.port = listener.getsockname()[1]
        self._listener = listener
        self._stopping.clear()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="gaea-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, close every live connection, join threads."""
        if self._listener is None:
            return
        self._stopping.set()
        # Closing the listener does not unblock a concurrent accept() on
        # every platform; a throwaway connection wakes it deterministically.
        try:
            with socket.create_connection((self.host or "127.0.0.1",
                                           self.port), timeout=1):
                pass
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            sockets = list(self._client_sockets)
        for sock in sockets:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
        with self._lock:
            threads = list(self._client_threads)
        for thread in threads:
            thread.join(timeout=5)
        self._listener = None
        self._accept_thread = None

    def __enter__(self) -> "GaeaServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- accept / serve loops ------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopping.is_set():
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return  # listener closed by stop()
            with self._lock:
                if self._stopping.is_set():
                    sock.close()
                    return
                self._client_sockets.add(sock)
                thread = threading.Thread(
                    target=self._serve_client, args=(sock,),
                    name="gaea-client", daemon=True,
                )
                self._client_threads.append(thread)
            thread.start()

    def _serve_client(self, sock: socket.socket) -> None:
        session = _WireSession(self.kernel)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while True:
                try:
                    request = recv_frame(sock)
                except (ProtocolError, OSError):
                    return  # stream corrupt or reset: drop the connection
                if request is None:
                    return  # clean EOF
                try:
                    response, stay = self._dispatch(session, request)
                except Exception as exc:  # request bugs must not kill serving
                    response, stay = {"error": _error(exc)}, True
                try:
                    send_frame(sock, response)
                except OSError:
                    return
                if not stay:
                    return
        finally:
            # Whatever ended the loop — clean close, reset, corrupt frame —
            # this connection's transaction rolls back here, in isolation:
            # no other session shares the Connection object.
            session.close()
            with self._lock:
                self._client_sockets.discard(sock)
            try:
                sock.close()
            except OSError:
                pass

    # -- request dispatch ----------------------------------------------------

    def _dispatch(self, session: _WireSession,
                  request: dict[str, Any]) -> tuple[dict[str, Any], bool]:
        op = request.get("op")
        if op == "hello":
            from .. import __version__
            return {"ok": {"server": "gaea", "version": __version__}}, True
        if op == "execute":
            return self._op_execute(session, request), True
        if op == "fetch":
            return self._op_fetch(session, request), True
        if op == "explain":
            params = decode_value(request.get("params"))
            plan = session.connection.cursor().explain(
                request["source"], params
            )
            return {"ok": {"plan": plan}}, True
        if op == "store":
            # GaeaQL has no INSERT statement — objects enter through the
            # object store, so the wire protocol exposes it directly.
            # Joins the connection's open writer transaction, if any:
            # `begin` made its view this session thread's ambient one.
            obj = session.connection.kernel.store.store(
                request["class"],
                decode_value(request.get("values") or {}),
            )
            return {"ok": {"oid": obj.oid}}, True
        if op == "begin":
            session.connection.begin(
                read_only=bool(request.get("read_only", False))
            )
            return {"ok": {}}, True
        if op == "commit":
            session.connection.commit()
            return {"ok": {}}, True
        if op == "rollback":
            session.connection.rollback()
            return {"ok": {}}, True
        if op == "close_cursor":
            cursor = session.cursors.pop(request.get("cursor"), None)
            if cursor is not None:
                cursor.close()
            return {"ok": {}}, True
        if op == "close":
            return {"ok": {}}, False
        raise InterfaceError(f"unknown op {op!r}")

    def _op_execute(self, session: _WireSession,
                    request: dict[str, Any]) -> dict[str, Any]:
        cursor_id = request.get("cursor")
        cursor = session.cursor_for(cursor_id)
        cursor.execute(request["source"], decode_value(request.get("params")))
        if cursor_id is None:
            cursor_id = session.register(cursor)
        return {"ok": {
            "cursor": cursor_id,
            "description": cursor.description,
            **self._page(cursor, int(request.get("count", 0))),
        }}

    def _op_fetch(self, session: _WireSession,
                  request: dict[str, Any]) -> dict[str, Any]:
        cursor = session.cursor_for(request.get("cursor"))
        return {"ok": self._page(cursor, int(request.get("count", 1)))}

    @staticmethod
    def _page(cursor: Cursor, count: int) -> dict[str, Any]:
        """Up to *count* rows of *cursor* as one reply page (see the
        module docstring)."""
        rows, error = cursor.fetch_page(count)
        page = {
            "rows": encode_page(rows),
            "done": cursor.rowcount != -1,
            # Statements past a retrieval execute as the stream drains;
            # ship any messages they produced along with the rows.
            "results": [
                {"kind": result.kind, "message": result.message,
                 "path": result.path}
                for result in cursor.results
            ],
        }
        if error is not None:
            page["error"] = _error(error)
        return page
