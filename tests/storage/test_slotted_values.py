"""The stored value classes are slotted and pickle positionally: they
round-trip on every supported Python (3.10 cannot unpickle a frozen
slotted dataclass by its default protocol), and objects pickled in the
``__dict__`` form written before slots still load."""

import pickle

import pytest

from repro.spatial import Box
from repro.storage import LogKind, LogRecord
from repro.storage.tuples import TID, TupleVersion, estimate_size
from repro.temporal import AbsTime

VALUES = [
    Box(0.0, -1.5, 2.0, 3.0),
    Box(1, 2, 3, 4, ref_system="UTM"),
    AbsTime(-3),
    LogRecord(7, LogKind.INSERT, 3,
              {"relation": "r", "tid": TID(0, 1),
               "values": (1, Box(0, 0, 1, 1), AbsTime(2))}),
    LogRecord(1, LogKind.BEGIN, 1),
]


class _OldPickle:
    """Loads as ``cls.__new__(cls)`` plus a ``__dict__`` state, as these
    classes' pickles written before they were slotted load."""

    def __init__(self, cls, state):
        self.cls, self.state = cls, state

    def __reduce__(self):
        return object.__new__, (self.cls,), self.state


@pytest.mark.parametrize("value", VALUES, ids=repr)
@pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
def test_round_trip(value, protocol):
    loaded = pickle.loads(pickle.dumps(value, protocol=protocol))
    assert loaded == value and type(loaded) is type(value)
    assert not hasattr(loaded, "__dict__")


def test_tuple_version_round_trip_keeps_its_size():
    version = TupleVersion(values=(1, Box(0, 0, 1, 1), "x"), xmin=4)
    loaded = pickle.loads(pickle.dumps(version))
    assert (loaded.values, loaded.xmin, loaded.size) \
        == (version.values, version.xmin, version.size)
    assert not hasattr(loaded, "__dict__")


def test_the_default_reference_system_is_left_out():
    assert len(pickle.dumps(Box(0, 0, 1, 1))) \
        < len(pickle.dumps(Box(0, 0, 1, 1, ref_system="longlat")))
    assert estimate_size((Box(0, 0, 1, 1), AbsTime(1))) < 150


@pytest.mark.parametrize("value, state", [
    (Box(0, 0, 1, 2), {"xmin": 0, "ymin": 0, "xmax": 1, "ymax": 2,
                       "ref_system": "long/lat"}),
    (AbsTime(9), {"days": 9}),
    (LogRecord(2, LogKind.COMMIT, 5, {}),
     {"lsn": 2, "kind": LogKind.COMMIT, "xid": 5, "payload": {}}),
], ids=["box", "abstime", "logrecord"])
def test_the_dict_form_still_loads(value, state):
    assert pickle.loads(pickle.dumps(_OldPickle(type(value), state))) == value


def test_an_old_tuple_version_still_loads():
    state = {"values": (1, "a"), "xmin": 3, "_size": 40}
    loaded = pickle.loads(pickle.dumps(_OldPickle(TupleVersion, state)))
    assert (loaded.values, loaded.xmin, loaded.size) == ((1, "a"), 3, 40)
