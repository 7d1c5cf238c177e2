"""End-to-end tests for GaeaServer + remote_connect.

Each test starts a real server on an ephemeral port and speaks to it
through :func:`repro.client.remote_connect` — the full wire path:
framing, value codec, per-connection sessions, transactions, and
cross-connection isolation.
"""

import threading
import time

import numpy as np
import pytest

import repro
from repro.adt import Image
from repro.client import remote_connect
from repro.errors import (GaeaError, InterfaceError, PlanningError,
                          UnderivableError)
from repro.server import GaeaServer
from repro.server import server as server_module
from repro.spatial import Box
from repro.storage.wal import LogKind
from repro.temporal import AbsTime

DDL = """
DEFINE CLASS land_cover (
  ATTRIBUTES: label = char16;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
)
"""


@pytest.fixture()
def server():
    with GaeaServer() as srv:
        conn = remote_connect(srv.host, srv.port)
        conn.cursor().execute(DDL)
        conn.close()
        yield srv


def _connect(server):
    return remote_connect(server.host, server.port)


def _store(conn, label, x=0.0, day=100):
    return conn.store("land_cover", {
        "label": label,
        "spatialextent": Box(x, 0, x + 5, 5),
        "timestamp": AbsTime(days=day),
    })


def _labels(conn):
    cur = conn.cursor()
    cur.execute("SELECT FROM land_cover")
    return sorted(row["label"] for row in cur.fetchall())


def _aborts(kernel, label):
    """Wait (up to 5 s) for the ABORT record of the transaction that
    stored *label*; whether it was logged."""
    [xid] = {record.xid for record in kernel.engine.wal
             if record.kind is LogKind.INSERT
             and label in record.payload["values"]}
    for _ in range(100):
        if any(record.kind is LogKind.ABORT and record.xid == xid
               for record in kernel.engine.wal):
            return True
        time.sleep(0.05)
    return False


class TestBasics:
    def test_hello_reports_version(self, server):
        conn = _connect(server)
        assert conn.server_version
        conn.close()

    def test_execute_store_and_fetch(self, server):
        conn = _connect(server)
        _store(conn, "forest")
        cur = conn.cursor()
        cur.execute("SELECT FROM land_cover WHERE timestamp = ?",
                    [AbsTime(days=100)])
        rows = cur.fetchall()
        assert [row["label"] for row in rows] == ["forest"]
        assert rows[0].class_name == "land_cover"
        assert rows[0]["spatialextent"] == Box(0, 0, 5, 5)
        assert cur.rowcount == 1
        conn.close()

    def test_description_and_results(self, server):
        conn = _connect(server)
        cur = conn.cursor()
        cur.execute("SHOW CLASSES")
        assert any("land_cover" in r["message"] for r in cur.results)
        cur.execute("SELECT FROM land_cover")
        names = [column[0] for column in cur.description]
        assert "label" in names and "timestamp" in names
        conn.close()

    def test_fetchmany_batching_and_iteration(self, server):
        conn = _connect(server)
        for i in range(10):
            _store(conn, f"c{i}", x=float(i))
        cur = conn.cursor()
        cur.execute("SELECT FROM land_cover")
        first = cur.fetchmany(3)
        assert len(first) == 3
        rest = list(cur)
        assert len(first) + len(rest) == 10
        conn.close()

    def test_explain_over_the_wire(self, server):
        conn = _connect(server)
        plan = conn.cursor().explain("SELECT FROM land_cover")
        assert "retrieve land_cover" in plan
        conn.close()

    def test_bind_parameters_with_adts(self, server):
        conn = _connect(server)
        _store(conn, "forest", x=0.0)
        _store(conn, "desert", x=50.0)
        cur = conn.cursor()
        cur.execute(
            "SELECT FROM land_cover WHERE spatialextent OVERLAPS ?",
            [Box(-1.0, -1.0, 6.0, 6.0)],
        )
        assert [row["label"] for row in cur.fetchall()] == ["forest"]
        conn.close()

    def test_server_error_keeps_connection_alive(self, server):
        conn = _connect(server)
        _store(conn, "forest")
        cur = conn.cursor()
        with pytest.raises(PlanningError):
            cur.execute("SELECT FROM no_such_class")
        cur.execute("SELECT FROM land_cover")
        assert len(cur.fetchall()) == 1
        conn.close()

    def test_failing_executes_leave_no_server_cursor(self, server,
                                                     monkeypatch):
        sessions = []
        init = server_module._WireSession.__init__

        def recording(session, kernel):
            init(session, kernel)
            sessions.append(session)

        monkeypatch.setattr(server_module._WireSession, "__init__", recording)
        conn = _connect(server)
        [session] = sessions
        conn.cursor().execute("SELECT FROM land_cover WHERE label = 'x'")
        assert len(session.cursors) == 1
        for _ in range(50):
            with pytest.raises(GaeaError):
                conn.cursor().execute("SELECT FROM WHERE")   # malformed
        assert len(session.cursors) == 1
        conn.close()

    @pytest.mark.parametrize("surface", ["local", "remote"])
    def test_a_page_error_raises_in_the_fetch_that_reaches_it(
            self, server, surface):
        """Member ``a`` answers first; ``b`` stores nothing at the stamp
        and cannot derive it, so the stream fails after ``a``'s rows —
        in the page execute ships, over the wire."""
        local = repro.connect(kernel=server.kernel)
        local.cursor().execute(
            "DEFINE CLASS a ( ATTRIBUTES: n = int4; "
            "TEMPORAL EXTENT: timestamp = abstime; );"
            "DEFINE CLASS b ( ATTRIBUTES: n = int4; "
            "TEMPORAL EXTENT: timestamp = abstime; );"
            "DEFINE CONCEPT ab MEMBERS a, b")
        store = server.kernel.store
        for n in range(3):
            store.store("a", {"n": n, "timestamp": AbsTime(days=1)})
        for n in range(200):
            store.store("b", {"n": n, "timestamp": AbsTime(days=500 + n)})
        conn = local if surface == "local" else _connect(server)
        cur = conn.cursor()
        cur.execute("SELECT FROM ab WHERE timestamp = ?", [AbsTime(days=1)])
        assert [row["n"] for row in cur.fetchmany(3)] == [0, 1, 2]
        with pytest.raises(UnderivableError):
            cur.fetchone()
        assert cur.fetchall() == [] and cur.rowcount == 3
        conn.close()
        local.close()

    def test_statements_past_retrieval_deliver_messages_on_drain(self, server):
        conn = _connect(server)
        _store(conn, "forest")
        cur = conn.cursor()
        cur.execute("SELECT FROM land_cover; SHOW CLASSES")
        cur.fetchall()
        assert any("CLASS land_cover" in r["message"] for r in cur.results)
        conn.close()

    def test_closed_connection_rejects_use(self, server):
        conn = _connect(server)
        conn.close()
        with pytest.raises(InterfaceError):
            conn.cursor()


class TestJoinRowsOverTheWire:
    def test_unprojected_join_rows_equal_local_rows(self, server):
        """``SELECT FROM a JOIN b`` (no select list) yields dict rows
        keyed ``source.attr`` — plain values the codec round-trips, so a
        remote cursor sees exactly what a local one does."""
        remote = _connect(server)
        remote.cursor().execute(
            "DEFINE CLASS a ( ATTRIBUTES: k = int4; x = float8; ) "
            "DEFINE CLASS b ( ATTRIBUTES: k = int4; y = char16; )"
        )
        for k, x in [(1, 0.5), (2, 1.5), (3, 2.5)]:
            remote.store("a", {"k": k, "x": x})
        for k, y in [(1, "one"), (1, "uno"), (3, "three")]:
            remote.store("b", {"k": k, "y": y})
        query = "SELECT FROM a JOIN b ON a.k = b.k"
        local = repro.connect(kernel=server.kernel)
        local_rows = local.cursor().execute(query).fetchall()
        remote_rows = remote.cursor().execute(query).fetchall()
        remote.close()

        def by_value(rows):
            return sorted(rows, key=lambda row: (row["a.k"], row["b.y"]))

        assert by_value(remote_rows) == by_value(local_rows) == [
            {"a.k": 1, "a.x": 0.5, "b.k": 1, "b.y": "one"},
            {"a.k": 1, "a.x": 0.5, "b.k": 1, "b.y": "uno"},
            {"a.k": 3, "a.x": 2.5, "b.k": 3, "b.y": "three"},
        ]
        assert all(list(row) == ["a.k", "a.x", "b.k", "b.y"]
                   for row in remote_rows + local_rows)


class TestTransactions:
    def test_rollback_discards_stores(self, server):
        conn = _connect(server)
        _store(conn, "keeper")  # committed baseline
        conn.begin()
        _store(conn, "doomed")
        conn.rollback()
        cur = conn.cursor()
        cur.execute("SELECT FROM land_cover")
        assert [row["label"] for row in cur.fetchall()] == ["keeper"]
        conn.close()

    def test_commit_publishes_to_other_connections(self, server):
        writer, reader = _connect(server), _connect(server)
        _store(writer, "base")  # committed baseline
        writer.begin()
        _store(writer, "forest", x=20.0)
        cur = reader.cursor()
        cur.execute("SELECT FROM land_cover")
        assert len(cur.fetchall()) == 1  # uncommitted: invisible elsewhere
        writer.commit()
        cur.execute("SELECT FROM land_cover")
        assert len(cur.fetchall()) == 2
        writer.close()
        reader.close()

    def test_concurrent_writers_are_independent(
            self, server):
        first, second, reader = (_connect(server), _connect(server),
                                 _connect(server))
        _store(reader, "base")  # committed baseline
        first.begin()
        second.begin()  # no writer slot: both transactions are open
        _store(first, "kept", x=10.0)
        _store(second, "doomed", x=20.0)
        assert _labels(first) == ["base", "kept"]
        assert _labels(second) == ["base", "doomed"]
        assert _labels(reader) == ["base"]
        second.rollback()
        first.commit()
        assert _labels(reader) == _labels(second) == ["base", "kept"]
        for conn in (first, second, reader):
            conn.close()

    def test_read_only_transactions_run_concurrently(self, server):
        writer, reader = _connect(server), _connect(server)
        _store(writer, "forest")
        reader.begin(read_only=True)  # pin: sees exactly one object
        writer.begin()
        _store(writer, "water", x=20.0)
        writer.commit()
        cur = reader.cursor()
        cur.execute("SELECT FROM land_cover")
        assert len(cur.fetchall()) == 1  # frozen view
        reader.commit()
        cur.execute("SELECT FROM land_cover")
        assert len(cur.fetchall()) == 2  # released: current state
        writer.close()
        reader.close()

    def test_dead_connection_rolls_back_without_disturbing_others(
            self, server):
        doomed, bystander = _connect(server), _connect(server)
        _store(doomed, "base")  # committed baseline
        bystander.begin(read_only=True)
        doomed.begin()
        _store(doomed, "doomed")
        # Abrupt socket death mid-transaction (no close op, no rollback).
        doomed._sock.close()
        doomed._closed = True
        # The server must notice and roll the transaction back.
        assert _aborts(server.kernel, "doomed"), \
            "dead client's transaction never rolled back"
        cur = bystander.cursor()
        cur.execute("SELECT FROM land_cover")
        labels = [row["label"] for row in cur.fetchall()]
        assert labels == ["base"]  # rolled back, bystander undisturbed
        bystander.close()


DERIVE_DDL = """
DEFINE CLASS field (
  ATTRIBUTES: data = image;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
);
DEFINE CLASS mask (
  ATTRIBUTES: data = image;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
  DERIVED BY: maskify
);
DEFINE PROCESS maskify
OUTPUT mask
ARGUMENT ( field src )
TEMPLATE {
  MAPPINGS:
    mask.data = img_threshold(src.data, 0.5);
    mask.spatialextent = src.spatialextent;
    mask.timestamp = src.timestamp;
}
"""
MASK_QUERY = "SELECT FROM mask WHERE timestamp = ?"
DAY = AbsTime(days=7)


class TestDerivationIsolation:
    """Derivations run under their own connection's view, on the wire
    as in process."""

    @pytest.fixture()
    def deriving(self, server):
        setup = _connect(server)
        setup.cursor().execute(DERIVE_DDL)
        setup.close()
        return server

    @staticmethod
    def _field(conn):
        return conn.store("field", {
            "data": Image.from_array(np.eye(2), "float4"),
            "spatialextent": Box(0, 0, 5, 5), "timestamp": DAY,
        })

    def test_no_derivation_from_another_connections_uncommitted_data(
            self, deriving):
        writer, reader = _connect(deriving), _connect(deriving)
        writer.begin()
        pending = self._field(writer)
        cur = reader.cursor()
        with pytest.raises(UnderivableError):
            cur.execute(MASK_QUERY, [DAY]).fetchall()
        writer.commit()
        [mask] = cur.execute(MASK_QUERY, [DAY]).fetchall()
        task = deriving.kernel.derivations.tasks.producer_of(mask.oid)
        assert task.input_oids == {"src": (pending,)}
        writer.close()
        reader.close()

    def test_another_connections_rollback_keeps_an_auto_commit_derivation(
            self, deriving):
        idle, deriver = _connect(deriving), _connect(deriving)
        self._field(deriver)
        idle.begin()  # an empty transaction, open while deriver derives
        cur = deriver.cursor()
        [mask] = cur.execute(MASK_QUERY, [DAY]).fetchall()
        idle.rollback()
        kernel = deriving.kernel
        assert kernel.store.get(mask.oid).oid == mask.oid
        assert kernel.derivations.tasks.producer_of(mask.oid) is not None
        assert [row.oid for row in cur.execute(MASK_QUERY, [DAY])] \
            == [mask.oid]
        assert len(kernel.derivations.tasks) == 1
        idle.close()
        deriver.close()


class TestConcurrentWire:
    def test_parallel_readers_on_separate_connections(self, server):
        seed = _connect(server)
        for i in range(8):
            _store(seed, f"c{i}", x=float(10 * i))
        seed.close()

        failures = []

        def worker():
            try:
                conn = _connect(server)
                for _ in range(5):
                    cur = conn.cursor()
                    cur.execute("SELECT FROM land_cover")
                    rows = cur.fetchall()
                    if len(rows) != 8:
                        failures.append(f"saw {len(rows)} rows")
                conn.close()
            except Exception as exc:  # noqa: BLE001 — collect everything
                failures.append(repr(exc))

        threads = [threading.Thread(target=worker) for _ in range(12)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures[0]
