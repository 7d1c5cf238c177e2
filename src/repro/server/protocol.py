"""Wire protocol: length-prefixed JSON frames plus a value codec.

Frame format
------------

Every message — request or response — is one *frame*::

    +----------------+----------------------+
    | length (4B BE) | UTF-8 JSON document  |
    +----------------+----------------------+

The length covers only the JSON body and is capped at
:data:`MAX_FRAME` (64 MiB) so a corrupt or hostile peer cannot make
the receiver allocate unbounded memory.

Value codec
-----------

GaeaQL bind parameters and result rows carry ADT values that JSON
cannot express directly.  :func:`encode_value` maps them onto tagged
one-key objects; :func:`decode_value` inverts the mapping:

===============  ==========================================================
Python value     wire form
===============  ==========================================================
``Box``          ``{"$box": [xmin, ymin, xmax, ymax, ref_system]}``
``AbsTime``      ``{"$abstime": days}``
``Image``        ``{"$image": {"pixtype", "shape", "filepath", "data"}}``
                 (``data`` is base64 of the row-major pixel buffer;
                 a composite also carries its ``"bands"`` count)
``SciObject``    ``{"$object": {"class", "oid", "values"}}``
numpy scalar     the equivalent Python scalar (``.item()``)
anything else    ``{"$opaque": {"type", "repr"}}`` — lossy, display only
===============  ==========================================================

Plain ``None``/``bool``/``int``/``float``/``str`` pass through, and
lists/tuples/dicts encode element-wise.  A plain dict whose keys happen
to start with ``"$"`` would be misread on decode; Gaea attribute values
are never such dicts, so the tag space is reserved for the codec.

Page codec
----------

Result rows cross the wire as *pages*, column-major.
:func:`encode_page` cuts a list of rows (``SciObject`` rows and dicts)
into runs of consecutive rows that share a class and attribute names,
one JSON object per run::

    {"class": str, "oids": [...],      # object rows only
     "names": [...], "columns": [[...], ...], "count": n}

A column holding only plain JSON scalars ships as it is; any other
column ships as ``{"$values": [...]}``, value by value through
:func:`encode_value`.  :func:`decode_page` rebuilds the rows.
"""

from __future__ import annotations

import base64
import itertools
import json
import socket
import struct
from typing import Any

import numpy as np

from ..adt.image import Image, PIXTYPE_DTYPES
from ..core.classes import SciObject
from ..errors import GaeaError
from ..spatial.box import Box
from ..temporal.abstime import AbsTime

__all__ = [
    "MAX_FRAME",
    "ProtocolError",
    "encode_value",
    "decode_value",
    "encode_page",
    "decode_page",
    "send_frame",
    "recv_frame",
]

#: Upper bound on one frame's JSON body, in bytes.
MAX_FRAME = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class ProtocolError(GaeaError):
    """The wire stream is corrupt, oversized, or out of protocol."""


# ---------------------------------------------------------------------------
# Value codec
# ---------------------------------------------------------------------------


def encode_value(value: Any) -> Any:
    """A JSON-representable form of *value* (see module docstring)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, Box):
        return {"$box": [value.xmin, value.ymin, value.xmax, value.ymax,
                         value.ref_system]}
    if isinstance(value, AbsTime):
        return {"$abstime": value.days}
    if isinstance(value, Image):
        return {"$image": {
            "pixtype": value.pixtype,
            "shape": list(value.data.shape),
            "filepath": value.filepath,
            "bands": value.bands,
            "data": base64.b64encode(
                np.ascontiguousarray(value.data).tobytes()
            ).decode("ascii"),
        }}
    if isinstance(value, SciObject):
        return {"$object": {
            "class": value.class_name,
            "oid": value.oid,
            "values": {key: encode_value(item)
                       for key, item in value.values.items()},
        }}
    if isinstance(value, dict):
        return {str(key): encode_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [encode_value(item) for item in value]
    return {"$opaque": {"type": type(value).__name__, "repr": repr(value)}}


def decode_value(value: Any) -> Any:
    """Invert :func:`encode_value` (``$opaque`` stays a tagged dict)."""
    if isinstance(value, list):
        return [decode_value(item) for item in value]
    if not isinstance(value, dict):
        return value
    if "$box" in value:
        xmin, ymin, xmax, ymax, ref = value["$box"]
        return Box(xmin, ymin, xmax, ymax, ref)
    if "$abstime" in value:
        return AbsTime(days=value["$abstime"])
    if "$image" in value:
        spec = value["$image"]
        dtype = PIXTYPE_DTYPES[spec["pixtype"]]
        array = np.frombuffer(
            base64.b64decode(spec["data"]), dtype=dtype
        ).reshape(spec["shape"])
        return Image.from_array(array, pixtype=spec["pixtype"],
                                filepath=spec["filepath"],
                                bands=spec.get("bands", 0))
    if "$object" in value:
        spec = value["$object"]
        return SciObject(
            class_name=spec["class"],
            oid=spec["oid"],
            values={key: decode_value(item)
                    for key, item in spec["values"].items()},
        )
    if "$opaque" in value:
        return value
    return {key: decode_value(item) for key, item in value.items()}


# ---------------------------------------------------------------------------
# Page codec
# ---------------------------------------------------------------------------

#: Types a column may hold to ship without going through the value codec.
_PLAIN = frozenset({type(None), bool, int, float, str})


def _layout(row: Any) -> tuple[str | None, tuple]:
    """What a run's rows share: the class (None for a dict row) and the
    attribute names, in order."""
    if isinstance(row, SciObject):
        return row.class_name, tuple(row.values)
    return None, tuple(row)


def _encode_column(values: tuple) -> Any:
    if _PLAIN.issuperset(map(type, values)):
        return values
    return {"$values": [encode_value(value) for value in values]}


def _decode_column(column: Any) -> Any:
    if isinstance(column, dict):
        return [decode_value(value) for value in column["$values"]]
    return column


def encode_page(rows: list[Any]) -> list[dict[str, Any]]:
    """*rows* (objects and dicts) as column-major runs (see the module
    docstring)."""
    runs = []
    for (class_name, names), group in itertools.groupby(rows, _layout):
        members = list(group)
        run: dict[str, Any] = {"names": names, "count": len(members)}
        values = members
        if class_name is not None:
            run["class"] = class_name
            run["oids"] = [obj.oid for obj in members]
            values = [obj.values for obj in members]
        columns = zip(*[row.values() for row in values])
        run["columns"] = [_encode_column(column) for column in columns]
        runs.append(run)
    return runs


def decode_page(runs: list[dict[str, Any]]) -> list[Any]:
    """Invert :func:`encode_page`: the page's rows, in order."""
    rows: list[Any] = []
    for run in runs:
        names = run["names"]
        columns = [_decode_column(column) for column in run["columns"]]
        tuples = zip(*columns) if columns \
            else itertools.repeat((), run["count"])
        class_name = run.get("class")
        if class_name is None:
            rows.extend(dict(zip(names, values)) for values in tuples)
        else:
            rows.extend(
                SciObject(class_name=class_name, oid=oid,
                          values=dict(zip(names, values)))
                for oid, values in zip(run["oids"], tuples)
            )
    return rows


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


def send_frame(sock: socket.socket, message: dict[str, Any]) -> None:
    """Serialize *message* and write one frame to *sock*."""
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds MAX_FRAME ({MAX_FRAME})"
        )
    sock.sendall(_LENGTH.pack(len(body)) + body)


def _recv_exact(sock: socket.socket, count: int) -> bytes | None:
    """Exactly *count* bytes, or None on a clean EOF at a frame edge."""
    chunks: list[bytes] = []
    got = 0
    while got < count:
        chunk = sock.recv(min(65536, count - got))
        if not chunk:
            if got == 0:
                return None
            raise ProtocolError(
                f"peer closed mid-frame ({got}/{count} bytes)"
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> dict[str, Any] | None:
    """Read one frame from *sock*; None when the peer closed cleanly."""
    header = _recv_exact(sock, _LENGTH.size)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME:
        raise ProtocolError(
            f"announced frame of {length} bytes exceeds MAX_FRAME"
        )
    body = _recv_exact(sock, length)
    if body is None:
        raise ProtocolError("peer closed between header and body")
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame body: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("frame body must be a JSON object")
    return message
