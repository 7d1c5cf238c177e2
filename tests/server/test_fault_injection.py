"""Fault-injection tests: crashes at the worst moments.

* the server process dying mid-commit — on either side of the WAL
  COMMIT record, the durability point: recovery must replay all of the
  transaction or none of it, never a partial state;
* a client socket killed mid-fetchmany with rows still buffered
  server-side — the victim's transaction rolls back and every other
  connection keeps working undisturbed.
"""

from __future__ import annotations

import threading

import pytest

from repro.adt import make_standard_registries
from repro.client import remote_connect
from repro.errors import InterfaceError
from repro.server import GaeaServer
from repro.server.remote import _FETCH_BATCH
from repro.spatial import Box
from repro.storage import StorageEngine
from repro.storage.wal import LogKind
from repro.temporal import AbsTime

DDL = """
DEFINE CLASS land_cover (
  ATTRIBUTES: label = char16;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
)
"""


class _Crash(RuntimeError):
    """Stands in for the process dying at an injected point."""


def _engine():
    types = make_standard_registries()[0]
    engine = StorageEngine(types=types)
    engine.create_relation("t", [("k", "int4")])
    return engine, types


class TestCrashMidCommit:
    def test_crash_after_wal_commit_record_replays_transaction(self):
        """Die between the WAL COMMIT append and the in-memory commit:
        the record hit the log, so recovery must show the transaction."""
        engine, types = _engine()
        tx = engine.begin()
        engine.insert("t", (1,), tx)
        engine.insert("t", (2,), tx)

        real_commit = engine.transactions.commit

        def dying_commit(transaction):
            raise _Crash("process died after the WAL append")

        engine.transactions.commit = dying_commit
        with pytest.raises(_Crash):
            engine.commit(tx)
        engine.transactions.commit = real_commit

        # The crashed process's memory is gone; replay the log.
        recovered = StorageEngine.recover(engine.wal, types)
        keys = sorted(row["k"] for row in recovered.scan("t"))
        assert keys == [1, 2], "logged commit must replay in full"

    def test_crash_before_wal_commit_record_hides_transaction(self):
        """Die while appending the COMMIT record itself: it never hit
        the log, so recovery must show none of the transaction."""
        engine, types = _engine()
        keeper = engine.begin()
        engine.insert("t", (0,), keeper)
        engine.commit(keeper)

        tx = engine.begin()
        engine.insert("t", (1,), tx)
        engine.insert("t", (2,), tx)

        real_append = engine.wal.append

        def dying_append(kind, xid, payload=None):
            from repro.storage.wal import LogKind
            if kind is LogKind.COMMIT:
                raise _Crash("process died before the WAL append")
            return real_append(kind, xid=xid, payload=payload or {})

        engine.wal.append = dying_append
        with pytest.raises(_Crash):
            engine.commit(tx)
        engine.wal.append = real_append

        recovered = StorageEngine.recover(engine.wal, types)
        keys = sorted(row["k"] for row in recovered.scan("t"))
        assert keys == [0], "unlogged commit must vanish entirely — " \
            "no partial transaction"


class TestClientDeathMidFetch:
    def test_kill_socket_mid_fetchmany_leaves_others_undisturbed(self):
        with GaeaServer() as server:
            setup = remote_connect(server.host, server.port)
            setup.cursor().execute(DDL)
            for i in range(20):
                setup.store("land_cover", {
                    "label": f"c{i}",
                    "spatialextent": Box(float(10 * i), 0,
                                         float(10 * i) + 5, 5),
                    "timestamp": AbsTime(days=i),
                })
            setup.close()

            victim = remote_connect(server.host, server.port)
            bystander = remote_connect(server.host, server.port)

            cur = victim.cursor()
            cur.execute("SELECT FROM land_cover")
            assert len(cur.fetchmany(5)) == 5  # rows remain buffered
            # The client dies abruptly: raw socket close, stream half-read.
            victim._sock.close()
            victim._closed = True

            # The bystander's session is a different thread + Connection:
            # its queries keep succeeding, before and after the victim's
            # server thread notices the dead socket.
            for _ in range(3):
                other = bystander.cursor()
                other.execute("SELECT FROM land_cover")
                assert len(other.fetchall()) == 20

            # And new connections are still accepted.
            late = remote_connect(server.host, server.port)
            late_cur = late.cursor()
            late_cur.execute("SELECT FROM land_cover")
            assert len(late_cur.fetchall()) == 20
            late.close()
            bystander.close()

    def test_fetch_on_dead_connection_raises_interface_error(self):
        with GaeaServer() as server:
            conn = remote_connect(server.host, server.port)
            conn.cursor().execute(DDL)
            conn.begin()
            for i in range(_FETCH_BATCH + 1):
                conn.store("land_cover", {
                    "label": "forest",
                    "spatialextent": Box(0, 0, 5, 5),
                    "timestamp": AbsTime(days=i),
                })
            conn.commit()
            cur = conn.cursor()
            cur.execute("SELECT FROM land_cover")
            conn._sock.close()  # transport dies under the cursor
            # the page that came with execute is already client-side
            assert len(cur.fetchmany(_FETCH_BATCH)) == _FETCH_BATCH
            with pytest.raises(InterfaceError):
                cur.fetchall()

    def test_mid_transaction_death_aborts(self):
        """A victim dying inside a write transaction has it aborted
        (its work rolled back) while other connections carry on."""
        import time

        with GaeaServer() as server:
            setup = remote_connect(server.host, server.port)
            setup.cursor().execute(DDL)
            setup.store("land_cover", {
                "label": "base",
                "spatialextent": Box(0, 0, 5, 5),
                "timestamp": AbsTime(days=1),
            })
            setup.close()

            victim = remote_connect(server.host, server.port)
            victim.begin()
            victim.store("land_cover", {
                "label": "doomed",
                "spatialextent": Box(10, 0, 15, 5),
                "timestamp": AbsTime(days=2),
            })
            [xid] = {record.xid for record in server.kernel.engine.wal
                     if record.kind is LogKind.INSERT
                     and "doomed" in record.payload["values"]}
            # a writer beside the victim is not held up by it
            survivor = remote_connect(server.host, server.port)
            survivor.begin()
            victim._sock.close()
            victim._closed = True

            wal = server.kernel.engine.wal
            for _ in range(100):
                aborted = any(record.kind is LogKind.ABORT
                              and record.xid == xid for record in wal)
                if aborted:
                    break
                time.sleep(0.05)
            assert aborted, "victim's transaction never aborted after death"
            survivor.rollback()
            survivor.close()

            check = remote_connect(server.host, server.port)
            cur = check.cursor()
            cur.execute("SELECT FROM land_cover")
            assert [row["label"] for row in cur.fetchall()] == ["base"]
            check.close()
