"""Index maintenance across transactions and rollback.

Secondary indexes (attribute B-trees, the spatial grid, the temporal
timeline) must never retain pointers to row versions that were rolled
back — neither entries added by insert-time maintenance nor entries an
index build loaded from a still-in-flight transaction.
"""

import pytest

from repro import connect
from repro.errors import StorageError
from repro.spatial import Box
from repro.storage import StorageEngine
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


def _btree_entries(eng, relation="scenes"):
    info = eng.access_info(relation)
    return {col: stats["entries"] for col, stats in info["btrees"].items()}


class TestRollbackPurgesBtree:
    def test_insert_then_rollback_leaves_no_dead_oids(self, engine):
        engine.create_index("scenes", "area")
        tx = engine.begin()
        engine.insert("scenes", _row("ghana"), tx)
        assert _btree_entries(engine)["area"] == 1
        engine.abort(tx)
        assert _btree_entries(engine)["area"] == 0
        assert list(engine.iter_lookup("scenes", "area", "ghana")) == []

    def test_commit_keeps_entries(self, engine):
        engine.create_index("scenes", "area")
        tx = engine.begin()
        engine.insert("scenes", _row("ghana"), tx)
        engine.commit(tx)
        assert _btree_entries(engine)["area"] == 1
        [row] = list(engine.iter_lookup("scenes", "area", "ghana"))
        assert row["area"] == "ghana"

    def test_rollback_purges_only_own_entries(self, engine):
        engine.create_index("scenes", "area")
        engine.insert_row("scenes", _row("kenya"))  # autocommitted
        tx = engine.begin()
        engine.insert("scenes", _row("ghana"), tx)
        engine.abort(tx)
        assert _btree_entries(engine)["area"] == 1
        [row] = list(engine.iter_lookup("scenes", "area", "kenya"))
        assert row["area"] == "kenya"

    def test_index_built_over_uncommitted_insert_is_purged_on_abort(
            self, engine):
        tx = engine.begin()
        engine.insert("scenes", _row("ghana"), tx)
        # The build loads the in-flight version (the inserting
        # transaction would expect to see its own writes)...
        engine.create_index("scenes", "area")
        assert _btree_entries(engine)["area"] == 1
        # ...but a rollback must purge it like any other entry.
        engine.abort(tx)
        assert _btree_entries(engine)["area"] == 0

    def test_index_built_after_abort_skips_dead_versions(self, engine):
        tx = engine.begin()
        engine.insert("scenes", _row("ghana"), tx)
        engine.abort(tx)
        engine.create_index("scenes", "area")
        assert _btree_entries(engine)["area"] == 0


class TestRollbackPurgesExtentIndexes:
    def test_spatial_entries_purged(self, engine):
        engine.create_spatial_index("scenes", "spatialextent",
                                    universe=Box(0, 0, 100, 100))
        tx = engine.begin()
        engine.insert("scenes", _row(), tx)
        engine.abort(tx)
        info = engine.access_info("scenes")
        assert info["spatial_entries"] == 0

    def test_temporal_entries_purged(self, engine):
        engine.create_temporal_index("scenes", "timestamp")
        tx = engine.begin()
        engine.insert("scenes", _row(day=3), tx)
        engine.abort(tx)
        info = engine.access_info("scenes", temporal=AbsTime(3))
        assert info["temporal_estimate"] == 0


class TestUndoLog:
    """One undo entry per inserted row: the abort reads the keys off the
    heap version, so what is logged does not depend on the indexes."""

    @pytest.mark.parametrize("indexes", [0, 1, 5])
    def test_one_entry_per_row_whatever_the_index_count(self, engine,
                                                        indexes):
        builds = [
            lambda: engine.create_index("scenes", "area"),
            lambda: engine.create_index("scenes", "resolution"),
            lambda: engine.create_index("scenes", "timestamp"),
            lambda: engine.create_spatial_index(
                "scenes", "spatialextent", universe=Box(0, 0, 100, 100)),
            lambda: engine.create_temporal_index("scenes", "timestamp"),
        ]
        for build in builds[:indexes]:
            build()
        for finish in (engine.commit, engine.abort):
            tx = engine.begin()
            tids = [engine.insert("scenes", _row(x=float(i), day=i), tx)
                    for i in range(4)]
            assert engine._undo_log == {
                tx.xid: [("scenes", tid) for tid in tids]}
            finish(tx)
            assert engine._undo_log == {}
        engine.insert_row("scenes", _row())  # auto-commit leaves nothing
        assert engine._undo_log == {}
        info = engine.access_info("scenes")
        assert all(stats["entries"] == 5
                   for stats in info["btrees"].values())
        assert info["spatial_entries"] in (None, 5)

    def test_index_builds_log_nothing(self, engine):
        tx = engine.begin()
        tid = engine.insert("scenes", _row(), tx)
        engine.create_index("scenes", "area")
        engine.create_spatial_index("scenes", "spatialextent",
                                    universe=Box(0, 0, 100, 100))
        engine.create_temporal_index("scenes", "timestamp")
        assert engine._undo_log == {tx.xid: [("scenes", tid)]}
        engine.abort(tx)
        info = engine.access_info("scenes", temporal=AbsTime(0))
        assert _btree_entries(engine)["area"] == 0
        assert info["spatial_entries"] == 0
        assert info["temporal_estimate"] == 0

    def test_abort_purges_the_indexes_the_relation_has_by_then(
            self, engine):
        """Dropped since the insert: nothing to purge.  Created since:
        purged like the rest."""
        engine.create_index("scenes", "area")
        tx = engine.begin()
        engine.insert("scenes", _row("ghana"), tx)
        engine.drop_index("scenes", "area")
        engine.create_index("scenes", "resolution")
        engine.abort(tx)
        assert _btree_entries(engine) == {"resolution": 0}


class TestCatalogRegistration:
    def test_create_registers_and_bumps_version(self, engine):
        before = engine.catalog.index_version
        index = engine.create_index("scenes", "area")
        assert engine.catalog.index_version > before
        assert index.kind == "btree"
        assert engine.catalog.find_index("scenes", "area", "btree") == index
        assert index in engine.catalog.indexes_of("scenes")

    def test_drop_by_name_removes_structure_and_bumps_version(self, engine):
        index = engine.create_index("scenes", "area")
        before = engine.catalog.index_version
        engine.drop_index_named(index.name)
        assert engine.catalog.index_version > before
        assert not engine.has_index("scenes", "area")
        with pytest.raises(StorageError):
            next(engine.iter_lookup("scenes", "area", "ghana"))

    def test_drop_unknown_name_rejected(self, engine):
        with pytest.raises(StorageError):
            engine.drop_index_named("no_such_index")

    def test_duplicate_index_rejected_without_half_registration(
            self, engine):
        engine.create_index("scenes", "area")
        before = engine.catalog.index_version
        with pytest.raises(StorageError):
            engine.create_index("scenes", "area")
        assert engine.catalog.index_version == before


class TestClientLevelRollback:
    """The ISSUE's acceptance scenario, driven through the client API."""

    DDL = """
    DEFINE CLASS station (
      ATTRIBUTES: code = int4; name = char16;
      SPATIAL EXTENT: cell = box;
      TEMPORAL EXTENT: timestamp = abstime;
    )
    """

    def test_create_index_insert_rollback_leaves_index_empty(self):
        conn = connect(universe=Box(0, 0, 100, 100))
        cur = conn.cursor()
        cur.run(self.DDL)
        cur.execute("CREATE INDEX ON station (code)")
        engine = conn.kernel.store.engine
        relation = conn.kernel.store.relation_for("station")

        conn.kernel.store.store("station", {
            "code": 9, "name": "s0",
            "cell": Box(5, 5, 6, 6),
            "timestamp": AbsTime.from_ymd(1990, 1, 1),
        })  # autocommitted; keeps the class non-empty after rollback

        conn.begin()
        conn.kernel.store.store("station", {
            "code": 7, "name": "s1",
            "cell": Box(1, 1, 2, 2),
            "timestamp": AbsTime.from_ymd(1990, 1, 1),
        })
        assert engine.access_info(relation)["btrees"]["code"]["entries"] == 2
        conn.rollback()

        # The rolled-back oid is gone from the B-tree: only the
        # committed row's entry remains, and the probe finds nothing.
        assert engine.access_info(relation)["btrees"]["code"]["entries"] == 1
        assert cur.execute("SELECT FROM station WHERE code = 7") \
                  .fetchall() == []
        [kept] = cur.execute("SELECT FROM station WHERE code = 9").fetchall()
        assert kept["name"] == "s0"


class TestAutomaticIndexesProtected:
    """The OID B-tree and extent indexes are load-bearing: dropping
    them would break object fetch and the interpolation path."""

    def test_extent_indexes_cannot_be_dropped_by_name(self):
        conn = connect(universe=Box(0, 0, 100, 100))
        conn.cursor().run(TestClientLevelRollback.DDL)
        store = conn.kernel.store
        relation = store.relation_for("station")
        for index in store.engine.catalog.indexes_of(relation):
            if index.kind != "btree" or index.column == "_oid":
                with pytest.raises(StorageError, match="automatic"):
                    store.drop_index_named(index.name)

    def test_oid_index_cannot_be_dropped(self):
        conn = connect(universe=Box(0, 0, 100, 100))
        conn.cursor().run(TestClientLevelRollback.DDL)
        with pytest.raises(StorageError, match="automatic"):
            conn.kernel.store.drop_attribute_index("station", "_oid")

    def test_user_indexes_still_droppable_by_name(self):
        conn = connect(universe=Box(0, 0, 100, 100))
        cur = conn.cursor()
        cur.run(TestClientLevelRollback.DDL)
        [result] = cur.execute("CREATE INDEX ON station (code)").results
        name = result.details["index"]
        dropped = conn.kernel.store.drop_index_named(name)
        assert dropped.column == "code"
