"""Tests for the physical operator tree (scan-once fallbacks, EXPLAIN
trees, covering index-only scans, projection)."""

import numpy as np
import pytest

import repro
from repro.adt import Image
from repro.core import NonPrimitiveClass
from repro.errors import PlanningError, UnderivableError
from repro.query import ColumnRef, SelectItem, render_tree
from repro.query.batch import Batch
from repro.query.operators import (
    ExprProject,
    FallbackSwitch,
    HeapScan,
    PhysicalOperator,
)
from repro.query.physical import PhysicalPlanner
from repro.spatial import Box
from repro.temporal import AbsTime

UNIVERSE = Box(0.0, 0.0, 100.0, 100.0)

DDL = """
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


@pytest.fixture()
def conn():
    connection = repro.connect(universe=UNIVERSE)
    connection.cursor().execute(DDL)
    return connection


def _field(conn, day=0, x=0.0, value=1.0, size=4):
    return conn.kernel.store.store("field", {
        "data": Image.from_array(np.full((size, size), value), "float4"),
        "spatialextent": Box(x, 0.0, x + 10.0, 10.0),
        "timestamp": AbsTime(day),
    })


@pytest.fixture()
def scan_counter(conn):
    """Enable the store's scan log and report per-signature counts."""
    store = conn.kernel.store
    store.scan_log = []

    def scans_of(class_name, **extents):
        spatial = extents.get("spatial")
        temporal = extents.get("temporal")
        return [
            event for event in store.scan_log
            if event[0] == class_name
            and ("spatial" not in extents or event[1] == spatial)
            and ("temporal" not in extents or event[2] == temporal)
        ]

    return scans_of


class TestScanOnceFallbacks:
    """The ROADMAP re-scan item: fallback retrievals used to run the
    stored scan 2–4× (iter_find → exists → planner re-find) before
    falling back; the FallbackSwitch threads the emptiness through."""

    def test_derive_fallback_scans_target_exactly_once(self, conn,
                                                       scan_counter):
        _field(conn, day=3)
        kernel = conn.kernel
        fired_after_scans = []
        original = kernel.derivations.execute_process

        def traced(name, bindings):
            if not fired_after_scans:
                fired_after_scans.append(len(scan_counter("mask")))
            return original(name, bindings)

        kernel.derivations.execute_process = traced
        rows = conn.cursor().execute("SELECT FROM mask").fetchall()
        assert len(rows) == 1
        # Exactly one stored-data scan of the target class before the
        # first derivation firing...
        assert fired_after_scans == [1]
        # ... and none after it either: the §2.1.5 answer is collected
        # from the fired task outputs, not re-read from the relation.
        assert len(scan_counter("mask")) == 1

    def test_interpolate_fallback_scans_query_signature_once(
            self, conn, scan_counter):
        _field(conn, day=0, value=0.0)
        _field(conn, day=10, value=10.0)
        cur = conn.cursor()
        rows = cur.execute("SELECT FROM field WHERE timestamp = ?",
                           [AbsTime(4)]).fetchall()
        assert len(rows) == 1
        assert np.allclose(rows[0]["data"].data, 4.0, atol=1e-5)
        # One scan at the query's own timestamp; the bracketing probes
        # target other timestamps and are inherent to interpolation.
        assert len(scan_counter("field", temporal=AbsTime(4))) == 1

    def test_stored_retrieval_needs_single_scan(self, conn, scan_counter):
        _field(conn, day=1)
        rows = conn.cursor().execute("SELECT FROM field").fetchall()
        assert len(rows) == 1
        assert len(scan_counter("field")) == 1

    def test_rejecting_predicates_do_not_trigger_fallback(self, conn):
        """Stored data at the extents + unsatisfied attribute predicate
        = empty answer, never a derivation."""
        cur = conn.cursor()
        cur.execute("""
        DEFINE CLASS sample (
          ATTRIBUTES: code = int4;
          SPATIAL EXTENT: cell = box;
          TEMPORAL EXTENT: timestamp = abstime;
        )
        """)
        conn.kernel.store.store("sample", {
            "code": 1, "cell": Box(0, 0, 1, 1), "timestamp": AbsTime(0),
        })
        rows = cur.execute("SELECT FROM sample WHERE code = 99").fetchall()
        assert rows == []

    def test_underivable_error_names_fallback_failures(self, conn):
        with pytest.raises(UnderivableError, match="mask"):
            conn.cursor().execute("SELECT FROM mask").fetchall()


class TestOperatorTrees:
    def test_explain_renders_fallback_switch_tree(self, conn):
        _field(conn)
        dump = conn.cursor().explain("SELECT FROM mask")
        assert "FallbackSwitch(mask)" in dump
        assert "HeapScan(cls_mask)" in dump
        # steps 2-3 are one leaf, whatever the planner's fallback order
        assert dump.count("Fallback(mask)") == 1
        assert "Derive(" not in dump and "Interpolate(" not in dump
        assert "cost~" in dump and "rows~" in dump

    def test_explain_derive_renders_tree(self, conn):
        _field(conn)
        dump = conn.cursor().explain("EXPLAIN DERIVE mask")
        assert "path=derive" in dump
        assert "Derive(mask)" in dump

    def test_explain_statement_result_carries_tree(self, conn):
        _field(conn)
        [result] = conn.cursor().execute("EXPLAIN SELECT FROM field").results
        assert result.kind == "explanation"
        assert result.details["paths"]["field"] == "retrieve"
        assert "FallbackSwitch(field)" in result.details["tree"]
        assert "FallbackSwitch(field)" in result.message

    def test_explain_run_renders_run_operator(self, conn):
        obj = _field(conn)
        cur = conn.cursor()
        [result] = cur.execute(
            f"EXPLAIN RUN maskify WITH src = ({obj.oid})"
        ).results
        assert f"Run(maskify WITH src=({obj.oid}))" in result.message
        # EXPLAIN did not execute the process.
        assert conn.kernel.store.count("mask") == 0

    def test_run_statement_still_executes(self, conn):
        obj = _field(conn)
        [result] = conn.cursor().run(
            f"RUN maskify WITH src = ({obj.oid})"
        )[:1]
        assert result.path == "run"
        assert result.details["task_id"]
        assert conn.kernel.store.count("mask") == 1

    def test_render_tree_shape(self, conn):
        _field(conn)
        planner = PhysicalPlanner(kernel=conn.kernel)
        plan = conn.optimizer.compile("SELECT FROM field")
        tree = planner.build(plan.nodes[0])
        assert isinstance(tree, FallbackSwitch)
        assert isinstance(tree.children[0], HeapScan)
        lines = render_tree(tree)
        assert lines[0].startswith("FallbackSwitch(field)")
        assert any(line.lstrip().startswith("├─") or
                   line.lstrip().startswith("└─") for line in lines[1:])

    def test_derive_statement_result_shape(self, conn):
        _field(conn, day=3)
        [result] = conn.cursor().run("DERIVE mask")
        assert result.path == "derive"
        assert result.details["plan_steps"] == ["maskify"]


class TestProjection:
    @pytest.fixture()
    def site_conn(self):
        connection = repro.connect(universe=UNIVERSE)
        cur = connection.cursor()
        cur.execute("""
        DEFINE CLASS site (
          ATTRIBUTES: code = int4; reading = float8; name = char16;
          SPATIAL EXTENT: cell = box;
          TEMPORAL EXTENT: timestamp = abstime;
        )
        """)
        stamp = AbsTime.from_ymd(1990, 6, 1)
        for i in range(60):
            connection.kernel.store.store("site", {
                "code": i % 6, "reading": float(i), "name": f"s{i}",
                "cell": Box(i % 10, i % 10, i % 10 + 1, i % 10 + 1),
                "timestamp": stamp,
            })
        return connection

    def test_projected_rows_are_dicts(self, site_conn):
        cur = site_conn.cursor()
        rows = cur.execute("SELECT name, code FROM site WHERE code = 3"
                           ).fetchall()
        assert len(rows) == 10
        assert all(set(row) == {"name", "code"} for row in rows)
        assert all(row["code"] == 3 for row in rows)

    def test_description_reflects_projection(self, site_conn):
        cur = site_conn.cursor()
        cur.execute("SELECT name, code FROM site")
        assert [entry[0] for entry in cur.description] == ["name", "code"]

    def test_bare_columns_pass_through_untouched(self):
        """A bare attribute item hands on its column and its explicit
        null mask as they are: no NULL scan of an object column."""

        class Source(PhysicalOperator):
            def run_batches(self):
                yield batch

        null = np.array([False, True, False])
        batch = Batch(length=3, columns={
            "name": np.array(["a", "b", "c"], dtype=object),
            "code": np.array([1, 0, 3]),
        }, masks={"code": null}, class_name="site")
        items = tuple(SelectItem(expr=ColumnRef(attr=name), alias=name)
                      for name in ("name", "code"))
        [out] = ExprProject(Source(), items, operators=None).run_batches()
        assert out.columns["name"] is batch.columns["name"]
        assert out.columns["code"] is batch.columns["code"]
        assert out.masks == {"code": null} and out.masks["code"] is null
        assert "name" not in batch.masks
        assert list(out.to_rows()) == [{"name": "a", "code": 1},
                                       {"name": "b", "code": None},
                                       {"name": "c", "code": 3}]

    def test_unknown_projection_attribute_rejected(self, site_conn):
        with pytest.raises(PlanningError):
            site_conn.cursor().execute("SELECT ghost FROM site")

    @pytest.mark.parametrize("source", [
        "SELECT code, tag FROM obs",
        "SELECT code, tag FROM obs LIMIT 100",
    ])
    def test_concept_member_without_the_attribute_reads_null(self, source):
        """One member having the attribute is enough; the other's rows
        carry NULL for it, with or without a LIMIT."""
        connection = repro.connect(universe=UNIVERSE)
        cur = connection.cursor()
        cur.execute("""
        DEFINE CLASS a_obs (
          ATTRIBUTES: code = int4; tag = char16;
          SPATIAL EXTENT: cell = box;
        );
        DEFINE CLASS b_obs (
          ATTRIBUTES: code = int4;
          SPATIAL EXTENT: cell = box;
        );
        DEFINE CONCEPT obs MEMBERS a_obs, b_obs
        """)
        store = connection.kernel.store
        for i in range(3):
            store.store("a_obs", {"code": i, "tag": f"t{i}",
                                  "cell": Box(i, 0, i + 1, 1)})
            store.store("b_obs", {"code": 10 + i,
                                  "cell": Box(i, 2, i + 1, 3)})
        rows = cur.execute(source).fetchall()
        assert sorted(rows, key=lambda row: row["code"]) == [
            {"code": 0, "tag": "t0"}, {"code": 1, "tag": "t1"},
            {"code": 2, "tag": "t2"}, {"code": 10, "tag": None},
            {"code": 11, "tag": None}, {"code": 12, "tag": None},
        ]
        assert [entry[:2] for entry in cur.description] \
            == [("code", "int4"), ("tag", "char16")]


class TestIndexOnlyScans:
    @pytest.fixture()
    def indexed_conn(self):
        connection = repro.connect(universe=UNIVERSE)
        cur = connection.cursor()
        cur.execute("""
        DEFINE CLASS site (
          ATTRIBUTES: code = int4; reading = float8; name = char16;
          SPATIAL EXTENT: cell = box;
          TEMPORAL EXTENT: timestamp = abstime;
        )
        """)
        stamp = AbsTime.from_ymd(1990, 6, 1)
        for i in range(60):
            connection.kernel.store.store("site", {
                "code": i % 6, "reading": float(i), "name": f"s{i}",
                "cell": Box(i % 10, i % 10, i % 10 + 1, i % 10 + 1),
                "timestamp": stamp,
            })
        cur.execute("CREATE INDEX ON site (code)")
        return connection

    def test_covering_projection_plans_index_only(self, indexed_conn):
        cur = indexed_conn.cursor()
        dump = cur.explain("SELECT code FROM site WHERE code = 3")
        assert "index-only" in dump
        assert "IndexOnlyScan(cls_site.code)" in dump

    def test_non_covering_projection_fetches_heap(self, indexed_conn):
        cur = indexed_conn.cursor()
        dump = cur.explain("SELECT name, code FROM site WHERE code = 3")
        assert "index-only" not in dump
        assert "IndexScan(cls_site.code)" in dump

    def test_index_only_rows_skip_heap_values(self, indexed_conn):
        """The covering scan never materializes row value dicts."""
        engine = indexed_conn.kernel.store.engine
        calls = []
        original = engine.fetch

        def counting_fetch(relation, tid, snapshot=None):
            calls.append(tid)
            return original(relation, tid, snapshot)

        engine.fetch = counting_fetch
        rows = indexed_conn.cursor().execute(
            "SELECT code FROM site WHERE code = 3"
        ).fetchall()
        assert rows == [{"code": 3}] * 10
        assert calls == []

    def test_index_only_range_scan(self, indexed_conn):
        cur = indexed_conn.cursor()
        dump = cur.explain(
            "SELECT code FROM site WHERE code >= 4 AND code <= 5"
        )
        assert "index-only" in dump
        rows = cur.execute(
            "SELECT code FROM site WHERE code >= 4 AND code <= 5"
        ).fetchall()
        assert sorted({row["code"] for row in rows}) == [4, 5]
        assert len(rows) == 20

    def test_extent_predicate_disables_index_only(self, indexed_conn):
        cur = indexed_conn.cursor()
        dump = cur.explain(
            "SELECT code FROM site WHERE code = 3 AND timestamp = "
            "'1990-06-01'"
        )
        assert "index-only" not in dump

    @pytest.mark.parametrize("variant", [
        "SELECT code FROM site WHERE code = 3 LIMIT 10",
        "SELECT code FROM site WHERE code = 3 LIMIT 60",
        "SELECT code FROM site WHERE code = 3 LIMIT 60 OFFSET 0",
        "SELECT code FROM site WHERE site.code = 3",
    ])
    def test_equivalent_projections_answer_alike(self, indexed_conn,
                                                 variant):
        """LIMIT n with n >= rows, OFFSET 0 and a source-qualified
        predicate read no column: the same rows, the same description
        (types included) and the same covering scan as the plain form."""
        cur = indexed_conn.cursor()
        answers = []
        for source in ("SELECT code FROM site WHERE code = 3", variant):
            rows = cur.execute(source).fetchall()
            answers.append((rows, cur.description))
            dump = cur.explain(source)
            assert "access=index-only index-eq(code=3)" in dump
            assert "IndexOnlyScan(cls_site.code)" in dump
        assert answers[1] == answers[0]
        assert answers[0] == ([{"code": 3}] * 10,
                              [("code", "int4", None, None, None, None, None)])

    def test_index_only_cheaper_than_heap_fetch(self, indexed_conn):
        store = indexed_conn.kernel.store
        covering = store.choose_path("site", filters=(("code", 3),),
                                     projection=("code",))
        fetching = store.choose_path("site", filters=(("code", 3),))
        assert covering.index_only and not fetching.index_only
        assert covering.cost < fetching.cost
