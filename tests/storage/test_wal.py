"""Tests for the write-ahead log."""

import pytest

from repro.errors import WALError
from repro.storage import LogKind, WriteAheadLog, read_log_file


class TestAppend:
    def test_lsns_are_dense(self):
        wal = WriteAheadLog()
        records = [wal.append(LogKind.BEGIN, xid=1),
                   wal.append(LogKind.COMMIT, xid=1)]
        assert [r.lsn for r in records] == [1, 2]
        wal.verify()

    def test_committed_xids(self):
        wal = WriteAheadLog()
        wal.append(LogKind.BEGIN, xid=1)
        wal.append(LogKind.BEGIN, xid=2)
        wal.append(LogKind.COMMIT, xid=1)
        wal.append(LogKind.ABORT, xid=2)
        assert wal.committed_xids() == {1}

    def test_verify_detects_corruption(self):
        wal = WriteAheadLog()
        wal.append(LogKind.BEGIN, xid=1)
        wal._records[0] = type(wal._records[0])(
            lsn=99, kind=LogKind.BEGIN, xid=1, payload={}
        )
        with pytest.raises(WALError):
            wal.verify()

    def test_payload_preserved(self):
        wal = WriteAheadLog()
        record = wal.append(LogKind.INSERT, xid=3,
                            payload={"relation": "r", "values": (1, 2)})
        assert record.payload["values"] == (1, 2)


class TestFileMirroring:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog()
        wal.attach_file(path)
        wal.append(LogKind.BEGIN, xid=1)
        wal.append(LogKind.INSERT, xid=1, payload={"relation": "r"})
        wal.append(LogKind.COMMIT, xid=1)
        wal.close()
        records = read_log_file(path)
        assert [r.kind for r in records] == [
            LogKind.BEGIN, LogKind.INSERT, LogKind.COMMIT
        ]

    def test_double_attach_rejected(self, tmp_path):
        wal = WriteAheadLog()
        wal.attach_file(tmp_path / "a.log")
        with pytest.raises(WALError):
            wal.attach_file(tmp_path / "b.log")
        wal.close()

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.log"
        path.write_bytes(b"not a pickle stream")
        with pytest.raises(WALError):
            read_log_file(path)


class TestFileIsTheLog:
    """With a file attached, the file is the log: nothing is held in
    memory, and every reader of the log reads the file back."""

    @pytest.fixture()
    def logged(self, types, tmp_path):
        from repro.storage import StorageEngine

        path = tmp_path / "wal.log"
        engine = StorageEngine(types=types)
        engine.wal.attach_file(path)
        engine.create_relation("r", [("k", "int4"), ("v", "float8")])
        for i in range(5):
            engine.insert_row("r", (i, i * 0.5))
        tx = engine.begin()
        engine.insert("r", (99, 9.9), tx)
        engine.abort(tx)
        engine.begin()  # unfinished
        yield engine, path
        engine.wal.close()

    def test_no_record_is_held_in_memory(self, logged):
        engine, _ = logged
        assert engine.wal._records == []

    def test_readers_agree_with_the_file(self, logged, types):
        from repro.storage import StorageEngine

        engine, path = logged
        on_file = read_log_file(path)
        wal = engine.wal
        assert len(wal) == len(on_file) == 1 + 5 * 3 + 3 + 1
        assert list(wal) == on_file
        wal.verify()
        assert wal.committed_xids() == {
            r.xid for r in on_file if r.kind is LogKind.COMMIT}
        recovered = StorageEngine.recover(wal, types)
        assert [row["k"] for row in recovered.scan("r")] == list(range(5))

    def test_a_file_is_attached_from_the_first_record_only(self, tmp_path):
        wal = WriteAheadLog()
        wal.append(LogKind.BEGIN, xid=1)
        with pytest.raises(WALError):
            wal.attach_file(tmp_path / "wal.log")
        assert [r.lsn for r in wal] == [1]

    def test_a_non_empty_file_is_refused(self, tmp_path):
        path = tmp_path / "used.log"
        path.write_bytes(b"x")
        wal = WriteAheadLog()
        with pytest.raises(WALError):
            wal.attach_file(path)
        wal.append(LogKind.BEGIN, xid=1)  # still a log in memory
        assert [r.lsn for r in wal] == [1] and path.read_bytes() == b"x"

    def test_after_close_the_log_reads_the_file_then_memory(self, tmp_path):
        wal = WriteAheadLog()
        wal.attach_file(tmp_path / "wal.log")
        wal.append(LogKind.BEGIN, xid=1)
        wal.close()
        wal.append(LogKind.COMMIT, xid=1)
        assert [r.kind for r in wal] == [LogKind.BEGIN, LogKind.COMMIT]
        assert len(wal) == 2 and wal.committed_xids() == {1}
        wal.verify()
        with pytest.raises(WALError):  # one file per log
            wal.attach_file(tmp_path / "other.log")

    def test_a_pickled_log_keeps_reading_its_file(self, tmp_path):
        import pickle

        wal = WriteAheadLog()
        wal.attach_file(tmp_path / "wal.log")
        wal.append(LogKind.BEGIN, xid=1)
        wal.append(LogKind.COMMIT, xid=1)
        restored = pickle.loads(pickle.dumps(wal))
        wal.append(LogKind.BEGIN, xid=2)  # the original writes on
        assert [r.lsn for r in restored] == [1, 2]
        restored.append(LogKind.BEGIN, xid=3)  # held in memory
        assert [r.xid for r in restored] == [1, 1, 3]
        assert len(read_log_file(tmp_path / "wal.log")) == 3
        wal.close()
        (tmp_path / "wal.log").unlink()
        with pytest.raises(WALError):  # never a silently empty log
            list(restored)


def test_kernel_checkpoint_with_a_log_file_restores_every_row(tmp_path):
    from repro import connect
    from repro.core import load_kernel, save_kernel
    from repro.storage import StorageEngine

    conn = connect()
    conn.kernel.engine.wal.attach_file(tmp_path / "wal.log")
    conn.cursor().execute("DEFINE CLASS m ( ATTRIBUTES: a = int4; )")
    store = conn.kernel.store.store
    for i in range(30):
        store("m", {"a": i})
    conn.begin()
    store("m", {"a": 1000})
    conn.rollback()
    save_kernel(conn.kernel, tmp_path / "db.ckpt")
    restored = load_kernel(tmp_path / "db.ckpt")
    rows = restored.store.objects("m")
    assert sorted(obj.values["a"] for obj in rows) == list(range(30))
    assert restored.store.get(rows[3].oid).values == rows[3].values
    wal = restored.engine.wal
    assert len(wal) == len(conn.kernel.engine.wal) > 0
    replayed = StorageEngine.recover(wal, restored.types)
    assert len(list(replayed.scan("cls_m"))) == 30
    conn.kernel.engine.wal.close()
