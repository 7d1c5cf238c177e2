"""Tests for the storage engine facade."""

import pytest

from repro.errors import (
    StorageError,
    TupleNotFoundError,
    UnknownRelationError,
)
from repro.spatial import Box
from repro.storage import ABORTED, LogKind, StorageEngine
from repro.temporal import AbsTime


@pytest.fixture()
def engine(types):
    eng = StorageEngine(types=types)
    eng.create_relation("scenes", [
        ("area", "char16"),
        ("spatialextent", "box"),
        ("timestamp", "abstime"),
        ("resolution", "float4"),
    ])
    return eng


def _row(area="africa", x=0.0, day=0, res=30.0):
    return (area, Box(x, 0, x + 5, 5), AbsTime(day), res)


class TestDML:
    def test_insert_and_scan(self, engine):
        engine.insert_row("scenes", _row())
        engine.insert_row("scenes", _row("asia", 10.0))
        rows = list(engine.scan("scenes"))
        assert [r["area"] for r in rows] == ["africa", "asia"]

    def test_unknown_relation(self, engine):
        with pytest.raises(UnknownRelationError):
            engine.insert_row("ghost", _row())

    def test_aborted_insert_stays_stored_and_dead(self, engine):
        tx = engine.begin()
        tid = engine.insert("scenes", _row(), tx)
        engine.abort(tx)
        stats = engine.stats("scenes")
        assert stats["versions"] == 1  # the version is still stored
        assert stats["visible_rows"] == 0
        with pytest.raises(TupleNotFoundError):
            engine.fetch("scenes", tid)

    def test_insert_is_the_only_write(self, engine):
        """Storage is append-only: a correction is a new row beside the
        old one, and the engine has no way to change a stored version."""
        for gone in ("delete", "update", "delete_row"):
            assert not hasattr(engine, gone)
        old = engine.insert_row("scenes", _row(res=30.0))
        new = engine.insert_row("scenes", _row(res=60.0))
        assert new != old
        assert engine.stats("scenes") == {
            "pages": 1, "versions": 2, "visible_rows": 2}
        assert engine.fetch("scenes", old)["resolution"] == 30.0


class TestTransactionSemantics:
    def test_uncommitted_invisible_to_others(self, engine):
        tx = engine.begin()
        engine.insert("scenes", _row(), tx)
        assert list(engine.scan("scenes")) == []
        engine.commit(tx)
        assert len(list(engine.scan("scenes"))) == 1

    def test_own_writes_visible(self, engine):
        tx = engine.begin()
        engine.insert("scenes", _row(), tx)
        snap = engine.snapshot(tx)
        assert len(list(engine.scan("scenes", snapshot=snap))) == 1
        engine.abort(tx)

    def test_aborted_writes_never_appear(self, engine):
        tx = engine.begin()
        engine.insert("scenes", _row(), tx)
        engine.abort(tx)
        assert list(engine.scan("scenes")) == []

    def test_failed_autocommit_aborts(self, engine):
        with pytest.raises(Exception):
            engine.insert_row("scenes", ("bad arity",))
        assert list(engine.scan("scenes")) == []

    def test_old_snapshot_ignores_later_commits(self, engine):
        snap = engine.snapshot()
        engine.insert_row("scenes", _row())
        assert list(engine.scan("scenes", snapshot=snap)) == []

    def test_insert_failing_at_the_log_stays_dead(self, engine, monkeypatch):
        """A row whose WAL append failed is already in the undo log, so
        the abort stamps it and it stays hidden once the xid finishes."""
        real_append = engine.wal.append

        def failing_append(kind, xid, payload=None):
            if kind is LogKind.INSERT:
                raise OSError("log device full")
            return real_append(kind, xid=xid, payload=payload)

        tx = engine.begin()
        monkeypatch.setattr(engine.wal, "append", failing_append)
        with pytest.raises(OSError):
            engine.insert("scenes", _row("lost"), tx)
        engine.abort(tx)
        assert engine.stats("scenes")["versions"] == 1
        assert list(engine.scan("scenes")) == []

    def test_abort_stamps_before_the_xid_finishes(self, engine, monkeypatch):
        """When the xid leaves the in-flight set, every version it wrote
        already carries ABORTED; a committed neighbour keeps its xid."""
        kept = engine.insert_row("scenes", _row("kept"))
        tx = engine.begin()
        tids = [engine.insert("scenes", _row(f"r{i}"), tx) for i in range(3)]
        heap = engine._state("scenes").heap
        real_abort = engine.transactions.abort
        stamps = []

        def checking_abort(transaction):
            stamps.append([heap.get(tid).xmin for tid in tids])
            real_abort(transaction)

        monkeypatch.setattr(engine.transactions, "abort", checking_abort)
        engine.abort(tx)
        assert stamps == [[ABORTED] * 3]
        assert heap.get(kept).xmin < tx.xid


class TestIndexes:
    def test_btree_lookup(self, engine):
        engine.create_index("scenes", "area")
        for i in range(6):
            engine.insert_row("scenes", _row(f"r{i % 2}", float(i)))
        assert len(list(engine.iter_lookup("scenes", "area", "r0"))) == 3

    def test_btree_built_over_existing_rows(self, engine):
        engine.insert_row("scenes", _row("x"))
        engine.create_index("scenes", "area")
        assert len(list(engine.iter_lookup("scenes", "area", "x"))) == 1

    def test_range_lookup(self, engine):
        engine.create_index("scenes", "resolution")
        for res in (10.0, 20.0, 30.0, 40.0):
            engine.insert_row("scenes", _row(res=res))
        rows = list(engine.iter_range("scenes", "resolution", 15.0, 35.0))
        assert sorted(r["resolution"] for r in rows) == [20.0, 30.0]

    def test_lookup_respects_visibility(self, engine):
        engine.create_index("scenes", "area")
        tx = engine.begin()
        engine.insert("scenes", _row("pending"), tx)
        assert list(engine.iter_lookup("scenes", "area", "pending")) == []
        [row] = engine.iter_lookup("scenes", "area", "pending",
                                   snapshot=engine.snapshot(tx))
        assert row["area"] == "pending"
        engine.commit(tx)
        assert len(list(engine.iter_lookup("scenes", "area", "pending"))) == 1

    def test_missing_index_error(self, engine):
        with pytest.raises(StorageError):
            list(engine.iter_lookup("scenes", "area", "x"))

    def test_spatial_index(self, engine):
        engine.create_spatial_index("scenes", "spatialextent",
                                    universe=Box(-180, -90, 180, 90))
        engine.insert_row("scenes", _row(x=0.0))
        engine.insert_row("scenes", _row(x=50.0))
        rows = list(engine.iter_spatial("scenes", Box(-1, -1, 6, 6)))
        assert len(rows) == 1

    def test_spatial_index_requires_box_column(self, engine):
        with pytest.raises(StorageError):
            engine.create_spatial_index("scenes", "area",
                                        universe=Box(0, 0, 1, 1))

    def test_temporal_index(self, engine):
        engine.create_temporal_index("scenes", "timestamp")
        engine.insert_row("scenes", _row(day=10))
        engine.insert_row("scenes", _row(day=20))
        assert len(list(engine.iter_temporal("scenes", AbsTime(10)))) == 1
        timeline = engine.timeline_of("scenes")
        assert timeline.bracketing(AbsTime(15)) == (AbsTime(10), AbsTime(20))

    def test_duplicate_index_rejected(self, engine):
        engine.create_index("scenes", "area")
        with pytest.raises(StorageError):
            engine.create_index("scenes", "area")


class TestRecovery:
    def test_recover_replays_committed_work(self, engine, types):
        engine.insert_row("scenes", _row("keep"))
        tx = engine.begin()
        engine.insert("scenes", _row("lost"), tx)
        engine.abort(tx)
        unfinished = engine.begin()
        engine.insert("scenes", _row("in flight"), unfinished)
        engine.insert_row("scenes", _row("kept too"))

        recovered = StorageEngine.recover(engine.wal, types)
        rows = list(recovered.scan("scenes"))
        assert [r["area"] for r in rows] == ["keep", "kept too"]
        # The live heap keeps the dead versions; replay skips the
        # aborted and the unfinished insert entirely.
        assert engine.stats("scenes")["versions"] == 4
        assert recovered.stats("scenes")["versions"] == 2

    def test_recover_preserves_xid_floor(self, engine, types):
        engine.insert_row("scenes", _row())
        recovered = StorageEngine.recover(engine.wal, types)
        old_xids = {r.xid for r in engine.wal}
        assert recovered.begin().xid > max(old_xids)

    def test_recovered_engine_accepts_new_work(self, engine, types):
        engine.insert_row("scenes", _row())
        recovered = StorageEngine.recover(engine.wal, types)
        recovered.insert_row("scenes", _row("new"))
        assert len(list(recovered.scan("scenes"))) == 2
