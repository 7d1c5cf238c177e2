"""The Gaea wire server: network access to a shared kernel.

A small, self-contained serving layer over the client API:

* :mod:`repro.server.protocol` — the frame format (4-byte big-endian
  length prefix + JSON body), the value codec that carries Gaea's
  ADTs (boxes, abstimes, images, scientific objects) over JSON, and the
  page codec that ships result rows column-major;
* :mod:`repro.server.server` — :class:`GaeaServer`, a thread-per-
  connection socket server; every wire connection gets its own
  DB-API :class:`~repro.query.client.Connection` over the one shared
  kernel, so snapshot isolation and per-connection transactions apply
  across the network exactly as they do in process;
* :mod:`repro.server.remote` — :func:`remote_connect`, the client side:
  a :class:`RemoteConnection`/:class:`RemoteCursor` pair mirroring the
  local DB-API surface.

See ``docs/serving.md`` for the full protocol reference.
"""

from .protocol import ProtocolError, decode_value, encode_value, recv_frame, send_frame
from .remote import RemoteConnection, RemoteCursor, remote_connect
from .server import GaeaServer

__all__ = [
    "GaeaServer",
    "ProtocolError",
    "RemoteConnection",
    "RemoteCursor",
    "decode_value",
    "encode_value",
    "recv_frame",
    "send_frame",
    "remote_connect",
]
