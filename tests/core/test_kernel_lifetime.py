"""A dropped connection frees its kernel by reference counting alone.

The store's rollback hooks and the derivation manager's discard hooks
are held weakly, so no reference cycle keeps a dead kernel (its heap,
indexes, task log and experiments) alive until the cyclic collector
happens to run.
"""

import gc
import weakref

import pytest

from repro import connect
from repro.core import load_kernel, save_kernel

DDL = "DEFINE CLASS site ( ATTRIBUTES: code = int4; reading = float8; )"
PARTS = ("store", "engine", "derivations", "experiments", "planner")


@pytest.fixture()
def no_cyclic_gc():
    gc.collect()
    gc.disable()
    yield
    gc.enable()


class Recorder:
    def __init__(self):
        self.calls = []

    def record(self, oids):
        self.calls.append(sorted(oids))


def _exercise(conn):
    """Store, roll back, store again and run a prepared lookup; returns
    the oids the rollback discarded, as a rollback hook saw them."""
    store = conn.kernel.store
    recorder = Recorder()
    store.on_rollback(recorder.record)
    conn.begin()
    discarded = [store.store("site", {"code": i, "reading": 0.5}).oid
                 for i in range(10)]
    conn.rollback()
    for i in range(10):
        store.store("site", {"code": i, "reading": 1.5})
    lookup = conn.prepare("SELECT FROM site WHERE code = ?")
    assert len(conn.cursor().execute(lookup, [3]).fetchall()) == 1
    assert recorder.calls == [sorted(discarded)]


def _lifetimes(kernel):
    return [weakref.ref(kernel)] + [weakref.ref(getattr(kernel, part))
                                    for part in PARTS]


def test_a_dropped_connection_frees_its_kernel(no_cyclic_gc):
    conn = connect()
    conn.cursor().run(DDL)
    _exercise(conn)
    refs = _lifetimes(conn.kernel)
    del conn
    assert [ref() for ref in refs] == [None] * len(refs)


def test_a_restored_kernel_is_freed_too(no_cyclic_gc, tmp_path):
    conn = connect()
    conn.cursor().run(DDL)
    save_kernel(conn.kernel, tmp_path / "gaea.ckpt")
    del conn
    restored = connect(kernel=load_kernel(tmp_path / "gaea.ckpt"))
    _exercise(restored)
    refs = _lifetimes(restored.kernel)
    del restored
    assert [ref() for ref in refs] == [None] * len(refs)


def test_a_hook_fires_only_while_its_owner_lives():
    conn = connect()
    conn.cursor().run(DDL)
    store = conn.kernel.store
    kept, dropped = Recorder(), Recorder()
    store.on_rollback(kept.record)
    store.on_rollback(dropped.record)
    calls = dropped.calls
    del dropped
    conn.begin()
    oid = store.store("site", {"code": 1, "reading": 0.5}).oid
    conn.rollback()
    assert kept.calls == [[oid]]
    assert calls == []
