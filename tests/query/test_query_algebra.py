"""Tests for the extended GaeaQL algebra: ORDER BY / LIMIT / GROUP BY /
aggregates / JOIN / expression projection, and the operator-tree edge
cases they introduce."""

import pytest

import repro
from repro.errors import PlanningError, StorageError
from repro.spatial import Box
from repro.temporal import AbsTime


BOX = Box(0.0, 0.0, 10.0, 10.0)
STAMP = AbsTime.from_ymd(1988, 6, 1)

DDL = """
DEFINE CLASS scene (
  ATTRIBUTES: sid = int4; region = char16;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
)
DEFINE CLASS raster (
  ATTRIBUTES: scene = int4; ndvi = float4; band = int4;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
)
"""


@pytest.fixture()
def conn():
    connection = repro.connect()
    cur = connection.cursor()
    cur.execute(DDL)
    store = connection.kernel.store
    scene_oids = []
    for i in range(6):
        obj = store.store("scene", {
            "sid": i, "region": f"reg{i % 3}",
            "spatialextent": BOX, "timestamp": STAMP,
        })
        scene_oids.append(obj.oid)
    for i in range(30):
        store.store("raster", {
            "scene": scene_oids[i % len(scene_oids)],
            "ndvi": (i * 7 % 30) / 10.0,
            "band": i % 4,
            "spatialextent": BOX, "timestamp": STAMP,
        })
    yield connection
    connection.close()


def _walk(op):
    yield op
    for child in op.children:
        yield from _walk(child)


class TestOrderLimit:
    def test_order_by_descending(self, conn):
        cur = conn.cursor()
        cur.execute("SELECT ndvi FROM raster ORDER BY ndvi DESC")
        values = [row["ndvi"] for row in cur]
        assert values == sorted(values, reverse=True)
        assert len(values) == 30

    def test_order_by_ordinal(self, conn):
        cur = conn.cursor()
        cur.execute("SELECT band, ndvi FROM raster ORDER BY 2 LIMIT 4")
        values = [row["ndvi"] for row in cur]
        assert values == sorted(values)[:4]

    def test_limit_zero_yields_nothing(self, conn):
        cur = conn.cursor()
        cur.execute("SELECT FROM raster LIMIT 0")
        assert cur.fetchall() == []

    def test_limit_with_offset(self, conn):
        cur = conn.cursor()
        cur.execute("SELECT ndvi FROM raster ORDER BY ndvi LIMIT 5 OFFSET 3")
        values = [row["ndvi"] for row in cur]
        cur.execute("SELECT ndvi FROM raster ORDER BY ndvi")
        full = [row["ndvi"] for row in cur]
        assert values == full[3:8]

    def test_order_by_projected_out_attribute(self, conn):
        # The sort runs before the projection, so an ORDER BY key that
        # the select list drops still orders the result.
        cur = conn.cursor()
        cur.execute("SELECT band FROM raster ORDER BY ndvi DESC LIMIT 3")
        rows = cur.fetchall()
        assert [set(row) for row in rows] == [{"band"}] * 3
        cur.execute("SELECT band, ndvi FROM raster ORDER BY ndvi DESC "
                    "LIMIT 3")
        assert [row["band"] for row in cur] == [row["band"] for row in rows]

    def test_whole_objects_with_order(self, conn):
        cur = conn.cursor()
        cur.execute("SELECT FROM raster ORDER BY ndvi LIMIT 2")
        rows = cur.fetchall()
        assert rows[0].class_name == "raster"
        assert rows[0]["ndvi"] <= rows[1]["ndvi"]


class TestAggregates:
    def test_group_by_aggregates(self, conn):
        cur = conn.cursor()
        cur.execute("SELECT band, count(*), avg(ndvi) FROM raster "
                    "GROUP BY band ORDER BY band")
        rows = cur.fetchall()
        assert [row["band"] for row in rows] == [0, 1, 2, 3]
        assert sum(row["count(*)"] for row in rows) == 30

    def test_scalar_aggregate(self, conn):
        cur = conn.cursor()
        cur.execute("SELECT count(*), min(ndvi), max(ndvi), sum(band) "
                    "FROM raster")
        (row,) = cur.fetchall()
        assert row["count(*)"] == 30
        assert row["min(ndvi)"] == 0.0
        assert row["max(ndvi)"] == pytest.approx(2.9)

    def test_aggregate_over_empty_group(self, conn):
        # Predicates reject every stored row: the scalar aggregate still
        # produces its one row, count 0 and NULL-ish everything else.
        cur = conn.cursor()
        cur.execute("SELECT count(*), avg(ndvi) FROM raster "
                    "WHERE band = 999")
        (row,) = cur.fetchall()
        assert row["count(*)"] == 0
        assert row["avg(ndvi)"] is None

    def test_group_by_empty_input_has_no_groups(self, conn):
        cur = conn.cursor()
        cur.execute("SELECT band, count(*) FROM raster WHERE band = 999 "
                    "GROUP BY band")
        assert cur.fetchall() == []

    def test_order_by_aggregate_ordinal(self, conn):
        cur = conn.cursor()
        cur.execute("SELECT band, sum(ndvi) FROM raster GROUP BY band "
                    "ORDER BY 2 DESC LIMIT 2")
        rows = cur.fetchall()
        assert len(rows) == 2
        assert rows[0]["sum(ndvi)"] >= rows[1]["sum(ndvi)"]

    def test_non_aggregated_item_rejected(self, conn):
        with pytest.raises(PlanningError):
            conn.execute("SELECT ndvi, count(*) FROM raster GROUP BY band")

    def test_bad_ordinal_rejected(self, conn):
        with pytest.raises(PlanningError):
            conn.execute("SELECT band FROM raster ORDER BY 7")


class TestExpressionProjection:
    def test_registered_operator_in_projection(self, conn):
        cur = conn.cursor()
        cur.execute("SELECT area(spatialextent) FROM raster LIMIT 1")
        (row,) = cur.fetchall()
        assert row["area(spatialextent)"] == pytest.approx(100.0)

    def test_operator_inside_aggregate(self, conn):
        cur = conn.cursor()
        cur.execute("SELECT sum(area(spatialextent)) FROM raster")
        (row,) = cur.fetchall()
        assert row["sum(area(spatialextent))"] == pytest.approx(3000.0)

    def test_unknown_operator_rejected(self, conn):
        with pytest.raises(PlanningError):
            conn.execute("SELECT frobnicate(ndvi) FROM raster LIMIT 1")

    def test_unknown_attribute_rejected(self, conn):
        with pytest.raises(PlanningError):
            conn.execute("SELECT ghost FROM raster ORDER BY ghost")


class TestJoins:
    def test_join_on_oid(self, conn):
        cur = conn.cursor()
        cur.execute("SELECT region, avg(ndvi) FROM raster "
                    "JOIN scene ON raster.scene = scene.oid "
                    "GROUP BY region ORDER BY region")
        rows = cur.fetchall()
        assert [row["region"] for row in rows] == ["reg0", "reg1", "reg2"]

    def test_join_rows_carry_both_sides(self, conn):
        cur = conn.cursor()
        cur.execute("SELECT raster.ndvi, scene.region FROM raster "
                    "JOIN scene ON raster.scene = scene.oid LIMIT 3")
        for row in cur:
            assert set(row) == {"raster.ndvi", "scene.region"}
            assert row["scene.region"].startswith("reg")

    def test_join_with_right_side_predicate(self, conn):
        cur = conn.cursor()
        cur.execute("SELECT count(*) FROM raster "
                    "JOIN scene ON raster.scene = scene.oid "
                    "WHERE scene.region = 'reg0'")
        (row,) = cur.fetchall()
        assert row["count(*)"] == 10  # 2 of 6 scenes, 5 rasters each

    def test_join_on_attribute_equality(self, conn):
        cur = conn.cursor()
        cur.execute("SELECT count(*) FROM raster "
                    "JOIN scene ON raster.band = scene.sid")
        (row,) = cur.fetchall()
        # bands 0..3 match sids 0..3: 8 rasters per band 0/1, 7 per 2/3
        assert row["count(*)"] == 30

    def test_join_with_concept_side(self, conn):
        cur = conn.cursor()
        cur.execute("DEFINE CONCEPT imagery MEMBERS scene")
        cur.execute("SELECT count(*) FROM raster "
                    "JOIN imagery ON raster.scene = imagery.oid")
        (row,) = cur.fetchall()
        assert row["count(*)"] == 30
        plan = cur.explain("SELECT count(*) FROM raster "
                           "JOIN imagery ON raster.scene = imagery.oid")
        assert "HashJoin" in plan

    def test_self_join_rejected(self, conn):
        with pytest.raises(PlanningError):
            conn.execute("SELECT count(*) FROM raster "
                         "JOIN raster ON raster.scene = raster.band")

    def test_index_nested_loop_join_on_selective_left(self, conn):
        # A tiny left side against an O(1) oid probe should beat
        # hashing a big right relation.
        store = conn.kernel.store
        for i in range(400):
            store.store("scene", {
                "sid": 100 + i, "region": f"bulk{i}",
                "spatialextent": BOX, "timestamp": STAMP,
            })
        cur = conn.cursor()
        plan = cur.explain("SELECT scene.region FROM raster "
                           "JOIN scene ON raster.scene = scene.oid "
                           "WHERE band = 1 AND ndvi < 1.0")
        assert "IndexNestedLoopJoin" in plan
        cur.execute("SELECT scene.region FROM raster "
                    "JOIN scene ON raster.scene = scene.oid "
                    "WHERE band = 1 AND ndvi < 1.0")
        rows = cur.fetchall()
        assert rows and all(r["scene.region"].startswith("reg")
                            for r in rows)


class TestSortAvoidance:
    def test_indexed_order_by_drops_sort_node(self, conn):
        cur = conn.cursor()
        before = cur.explain("SELECT ndvi FROM raster ORDER BY ndvi DESC "
                             "LIMIT 5")
        assert "Sort(" in before
        cur.execute("CREATE INDEX ON raster (ndvi)")
        after = cur.explain("SELECT ndvi FROM raster ORDER BY ndvi DESC "
                            "LIMIT 5")
        assert "(ordered desc)" in after
        # The stored path carries no Sort; only the derive fallback
        # (which the index cannot order) keeps one.
        stored_plan = after.split("Sort(", 1)[0]
        assert "IndexScan" in stored_plan

    def test_ordered_scan_matches_explicit_sort(self, conn):
        cur = conn.cursor()
        cur.execute("SELECT ndvi FROM raster ORDER BY ndvi")
        unindexed = [row["ndvi"] for row in cur]
        cur.execute("CREATE INDEX ON raster (ndvi)")
        cur.execute("SELECT ndvi FROM raster ORDER BY ndvi")
        indexed = [row["ndvi"] for row in cur]
        assert indexed == unindexed

    def test_ordered_scan_respects_range_window(self, conn):
        cur = conn.cursor()
        cur.execute("CREATE INDEX ON raster (ndvi)")
        cur.execute("SELECT ndvi FROM raster WHERE ndvi >= 1.0 "
                    "ORDER BY ndvi DESC LIMIT 4")
        values = [row["ndvi"] for row in cur]
        assert values == sorted(values, reverse=True)
        assert all(v >= 1.0 for v in values)

    def test_create_index_invalidates_cached_plan(self, conn):
        source = "SELECT ndvi FROM raster ORDER BY ndvi LIMIT 3"
        cur = conn.cursor()
        cur.execute(source)
        first = cur.fetchall()
        cur.execute(source)  # warm: served from the plan cache
        assert cur.fetchall() == first
        assert conn.cache_hits >= 1
        invalidations = conn.plan_cache.invalidations
        cur.execute("CREATE INDEX ON raster (ndvi)")
        cur.execute(source)
        assert cur.fetchall() == first
        assert conn.plan_cache.invalidations > invalidations
        assert "(ordered)" in cur.explain(source)

    def test_storage_error_while_pricing_the_ordered_path_propagates(
            self, conn, monkeypatch):
        """Only "the class lacks the attribute" means "no ordered
        index"; a failing storage layer is not a reason to plan a
        Sort."""
        def broken(*args, **kwargs):
            raise StorageError("catalog page unreadable")

        monkeypatch.setattr(conn.kernel.store, "ordered_path", broken)
        with pytest.raises(StorageError, match="unreadable"):
            conn.cursor().explain("SELECT ndvi FROM raster ORDER BY ndvi")


class TestIntrospection:
    def test_show_indexes_surfaces_statistics(self, conn):
        cur = conn.cursor()
        cur.execute("CREATE INDEX ON raster (ndvi)")
        cur.execute("SHOW INDEXES")
        message = cur.results[-1].message
        line = next(l for l in message.splitlines()
                    if "cls_raster(ndvi)" in l)
        assert "entries=30" in line
        assert "distinct_keys=30" in line
        assert "histogram_buckets=" in line

    def test_explain_surfaces_pricing_inputs(self, conn):
        cur = conn.cursor()
        cur.execute("CREATE INDEX ON raster (band)")
        plan = cur.explain("SELECT FROM raster WHERE band = 2")
        assert "distinct_keys=4" in plan
        assert "hist_buckets=" in plan

    def test_prepared_statement_binds_into_algebra(self, conn):
        query = conn.prepare("SELECT band, count(*) FROM raster "
                             "WHERE ndvi >= ? GROUP BY band ORDER BY band")
        cur = conn.cursor()
        cur.execute(query, [2.0])
        strict = sum(row["count(*)"] for row in cur)
        cur.execute(query, [0.0])
        loose = sum(row["count(*)"] for row in cur)
        assert strict < loose == 30

    def test_fallback_sort_is_never_bounded(self, conn):
        # Sort avoidance gives the Fallback leaf one Sort of its own
        # (the index cannot order what steps 2-3 produce).  That Sort
        # is not top-K-bounded; the Limit above bounds the stream.
        from repro.query import FallbackSwitch, Sort
        from repro.query.operators import Fallback

        cur = conn.cursor()
        cur.execute("CREATE INDEX ON raster (ndvi)")
        (node,) = conn.optimizer.compile(
            "SELECT FROM raster WHERE band = 1 ORDER BY ndvi LIMIT 2"
        ).nodes
        tree = conn.executor.physical.build(node)
        assert "(ordered)" in "\n".join(
            op.label() for op in _walk(tree)
        )
        (switch,) = [op for op in _walk(tree)
                     if isinstance(op, FallbackSwitch)]
        (sort,) = [op for op in _walk(tree) if isinstance(op, Sort)]
        assert switch.children[1] is sort
        assert isinstance(sort.child, Fallback)
        assert sort.top_k is None

    def test_oid_pseudo_attribute_projects(self, conn):
        cur = conn.cursor()
        cur.execute("SELECT oid FROM scene ORDER BY oid LIMIT 3")
        rows = cur.fetchall()
        assert [row["oid"] for row in rows] == sorted(
            row["oid"] for row in rows
        )
        # The simple-path fold must not swallow the pseudo-attribute.
        cur.execute("SELECT oid FROM scene")
        assert len(cur.fetchall()) >= 6

    def test_soft_keyword_attribute_in_where(self, conn):
        # 'extent' is a GaeaQL keyword (SPATIAL EXTENT) but a legal
        # attribute name; it must work in WHERE like it does in the
        # select list.
        from repro.core.classes import NonPrimitiveClass

        cur = conn.cursor()
        conn.kernel.derivations.define_class(NonPrimitiveClass(
            name="patch",
            attributes=(("extent", "float8"), ("label", "char16"),
                        ("spatialextent", "box"), ("timestamp", "abstime")),
            spatial_attr="spatialextent", temporal_attr="timestamp",
        ))
        store = conn.kernel.store
        for i in range(4):
            store.store("patch", {
                "extent": float(i), "label": f"p{i}",
                "spatialextent": BOX, "timestamp": STAMP,
            })
        cur.execute("SELECT extent FROM patch WHERE extent >= 2.0 "
                    "ORDER BY extent DESC")
        assert [row["extent"] for row in cur] == [3.0, 2.0]
