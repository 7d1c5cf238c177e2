"""Tests for the wire protocol: framing, the value codec and the page
codec."""

import json
import socket
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.adt import Image
from repro.core.classes import SciObject
from repro.errors import GaeaError
from repro.server.protocol import (
    MAX_FRAME,
    ProtocolError,
    decode_page,
    decode_value,
    encode_page,
    encode_value,
    recv_frame,
    send_frame,
)
from repro.spatial import Box
from repro.temporal import AbsTime


def _roundtrip(value):
    encoded = encode_value(value)
    json.dumps(encoded)  # must be JSON-representable
    return decode_value(encoded)


class TestValueCodec:
    def test_scalars_pass_through(self):
        for value in (None, True, 3, 2.5, "x"):
            assert _roundtrip(value) == value

    def test_numpy_scalars_become_python(self):
        assert _roundtrip(np.int32(7)) == 7
        assert _roundtrip(np.float64(2.5)) == 2.5

    def test_box_roundtrip(self):
        box = Box(-20.0, -35.0, 52.0, 38.0)
        assert _roundtrip(box) == box

    def test_abstime_roundtrip(self):
        stamp = AbsTime.from_ymd(1986, 1, 15)
        assert _roundtrip(stamp) == stamp

    def test_image_roundtrip_preserves_pixels(self):
        array = np.arange(12, dtype=np.int16).reshape(3, 4)
        image = Image.from_array(array, filepath="scene.img")
        back = _roundtrip(image)
        assert back.pixtype == image.pixtype
        assert back.filepath == "scene.img"
        assert np.array_equal(back.data, array)

    def test_sciobject_roundtrip_with_nested_adts(self):
        obj = SciObject(class_name="land_cover", oid=9, values={
            "label": "forest",
            "spatialextent": Box(0, 0, 10, 10),
            "timestamp": AbsTime(days=100),
        })
        back = _roundtrip(obj)
        assert back == obj

    def test_containers_encode_elementwise(self):
        assert _roundtrip([Box(0, 0, 1, 1), AbsTime(1)]) == \
            [Box(0, 0, 1, 1), AbsTime(1)]
        assert _roundtrip({"a": AbsTime(2)}) == {"a": AbsTime(2)}
        assert _roundtrip((1, 2)) == [1, 2]  # tuples arrive as lists

    def test_unknown_types_become_opaque(self):
        class Weird:
            def __repr__(self):
                return "Weird()"
        encoded = encode_value(Weird())
        assert encoded == {"$opaque": {"type": "Weird", "repr": "Weird()"}}
        assert decode_value(encoded) == encoded  # stays tagged, lossy


# -- the page codec ------------------------------------------------------------

_finite = st.floats(-1e6, 1e6, allow_nan=False)
_values = st.one_of(
    st.none(), st.booleans(), st.integers(-2**62, 2**62), _finite,
    st.text(max_size=6),
    st.builds(lambda x, y, w, h: Box(x, y, x + w, y + h),
              _finite, _finite, st.floats(0, 10), st.floats(0, 10)),
    st.integers(-10**5, 10**5).map(lambda days: AbsTime(days=days)),
    st.lists(st.integers(0, 255), min_size=4, max_size=4).map(
        lambda pixels: Image.from_array(
            np.array(pixels, dtype=np.uint8).reshape(2, 2))),
    st.integers(-1000, 1000).map(np.int64),
    st.floats(-1e3, 1e3, width=32).map(np.float32),
    st.booleans().map(np.bool_),
)
#: A concept's members: different classes, different attribute sets.
_CLASSES = {"scene": ("band", "extent"), "cover": ("label",), "bare": ()}


@st.composite
def _objects(draw):
    name = draw(st.sampled_from(sorted(_CLASSES)))
    return SciObject(class_name=name, oid=draw(st.integers(1, 10**6)),
                     values={attr: draw(_values) for attr in _CLASSES[name]})


#: Projection/aggregate rows: a few layouts, NULLs among the values.
_dicts = st.sampled_from([("serial", "reading"), ("count(*)",), ()]).flatmap(
    lambda names: st.fixed_dictionaries({name: _values for name in names}))


def _shape(row):
    """A row's type and attribute names, in order."""
    names = row.values if isinstance(row, SciObject) else row
    return type(row), list(names)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.one_of(_objects(), _dicts), max_size=12))
@example(rows=[])
@example(rows=[{"serial": 7, "reading": None}])
@example(rows=[{}, {}])
def test_page_codec_matches_the_per_row_codec(rows):
    got = decode_page(json.loads(json.dumps(encode_page(rows))))
    oracle = [decode_value(json.loads(json.dumps(encode_value(row))))
              for row in rows]
    assert got == oracle == rows
    assert list(map(_shape, got)) == list(map(_shape, rows))


def test_a_page_is_one_run_per_layout_change():
    rows = [SciObject("scene", oid, {"band": oid, "extent": Box(0, 0, 1, 1)})
            for oid in (1, 2)] \
        + [SciObject("cover", 3, {"label": "forest"}),
           {"serial": 1, "reading": 2.5}, {"serial": 2, "reading": None}]
    runs = encode_page(rows)
    assert [(run.get("class"), run["count"]) for run in runs] \
        == [("scene", 2), ("cover", 1), (None, 2)]
    assert runs[0]["oids"] == [1, 2]
    band, extent = runs[0]["columns"]
    assert list(band) == [1, 2]                 # plain scalars ship as is
    assert extent == {"$values": [encode_value(Box(0, 0, 1, 1))] * 2}
    assert [list(column) for column in runs[2]["columns"]] \
        == [[1, 2], [2.5, None]]


class TestFraming:
    def _pair(self):
        server, client = socket.socketpair()
        return server, client

    def test_send_recv_roundtrip(self):
        a, b = self._pair()
        try:
            send_frame(a, {"op": "hello", "n": 1})
            assert recv_frame(b) == {"op": "hello", "n": 1}
        finally:
            a.close()
            b.close()

    def test_many_frames_in_order(self):
        a, b = self._pair()
        try:
            done = threading.Event()

            def pump():
                for i in range(50):
                    send_frame(a, {"i": i})
                done.set()

            thread = threading.Thread(target=pump)
            thread.start()
            for i in range(50):
                assert recv_frame(b) == {"i": i}
            thread.join()
            assert done.is_set()
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = self._pair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_eof_mid_frame_raises(self):
        a, b = self._pair()
        try:
            a.sendall(b"\x00\x00\x00\x10abc")  # announces 16, sends 3
            a.close()
            with pytest.raises(ProtocolError):
                recv_frame(b)
        finally:
            b.close()

    def test_oversized_announcement_rejected(self):
        a, b = self._pair()
        try:
            a.sendall((MAX_FRAME + 1).to_bytes(4, "big"))
            with pytest.raises(ProtocolError):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_garbage_body_raises(self):
        a, b = self._pair()
        try:
            body = b"not json"
            a.sendall(len(body).to_bytes(4, "big") + body)
            with pytest.raises(ProtocolError):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_protocol_error_is_a_gaea_error(self):
        assert issubclass(ProtocolError, GaeaError)
