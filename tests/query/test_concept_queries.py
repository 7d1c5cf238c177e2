"""Concept-query planning: cost-ordered member unions, shared probes,
mixed indexed/unindexed members, plan-cache invalidation on revision."""

import numpy as np
import pytest

import repro
from repro.adt import Image
from repro.query.operators import ConceptUnion
from repro.query.optimizer import QueryNode
from repro.query.physical import PhysicalPlanner
from repro.spatial import Box
from repro.temporal import AbsTime

UNIVERSE = Box(0.0, 0.0, 100.0, 100.0)

DDL = """
DEFINE CLASS readings_a (
  ATTRIBUTES: code = int4; name = char16;
  SPATIAL EXTENT: cell = box;
  TEMPORAL EXTENT: timestamp = abstime;
);
DEFINE CLASS readings_b (
  ATTRIBUTES: code = int4; name = char16;
  SPATIAL EXTENT: cell = box;
  TEMPORAL EXTENT: timestamp = abstime;
);
DEFINE CONCEPT readings MEMBERS readings_a, readings_b
"""


@pytest.fixture()
def conn():
    connection = repro.connect(universe=UNIVERSE)
    connection.cursor().execute(DDL)
    stamp = AbsTime.from_ymd(1990, 6, 1)
    store = connection.kernel.store
    for i in range(50):
        store.store("readings_a", {
            "code": i % 5, "name": f"a{i}",
            "cell": Box(i % 10, 0, i % 10 + 1, 1), "timestamp": stamp,
        })
    for i in range(40):
        store.store("readings_b", {
            "code": i % 5, "name": f"b{i}",
            "cell": Box(i % 10, 2, i % 10 + 1, 3), "timestamp": stamp,
        })
    return connection


class TestConceptUnionPlanning:
    @pytest.mark.parametrize("source", [
        "SELECT FROM readings_a",
        "SELECT FROM readings",
        "DERIVE readings_a",
        "SELECT code, name FROM readings",
        "SELECT name FROM readings ORDER BY code LIMIT 3",
        "SELECT readings_a.name FROM readings_a JOIN readings "
        "ON readings_a.code = readings.code",
    ])
    def test_one_query_node_per_statement(self, conn, source):
        plan = conn.optimizer.compile(f"{source}; SHOW CLASSES; {source}")
        assert len(plan.nodes) == 3
        assert isinstance(plan.nodes[0], QueryNode)
        assert plan.nodes[2] == plan.nodes[0]

    def test_member_legs_sit_in_one_node(self, conn):
        [node] = conn.optimizer.compile("SELECT FROM readings").nodes
        assert node.source == "readings"
        assert [leg.class_name for leg in node.inputs] \
            == ["readings_a", "readings_b"]
        assert {leg.concept for leg in node.inputs} == {"readings"}

    def test_two_selects_on_one_concept_stay_two_unions(self, conn):
        plan = conn.optimizer.compile(
            "SELECT FROM readings; SELECT FROM readings"
        )
        planner = PhysicalPlanner(kernel=conn.kernel)
        unions = [planner.build(node) for node in plan.nodes]
        assert [type(union) for union in unions] == [ConceptUnion] * 2
        assert all(len(union.members) == 2 for union in unions)
        rows = conn.cursor().execute(
            "SELECT FROM readings; SELECT FROM readings"
        ).fetchall()
        assert len(rows) == 2 * 90

    def test_members_ordered_by_estimated_cost(self, conn):
        """The smaller member (readings_b, 40 rows) probes first even
        though it sorts after readings_a alphabetically."""
        plan = conn.optimizer.compile("SELECT FROM readings")
        union = PhysicalPlanner(kernel=conn.kernel).build(plan.nodes[0])
        assert isinstance(union, ConceptUnion)
        costs = [member.estimated_cost for member in union.members]
        assert costs == sorted(costs)
        first = conn.cursor().execute("SELECT FROM readings").fetchone()
        assert first.class_name == "readings_b"

    def test_union_streams_all_members(self, conn):
        rows = conn.cursor().execute("SELECT FROM readings").fetchall()
        assert len(rows) == 90
        assert {obj.class_name for obj in rows} \
            == {"readings_a", "readings_b"}

    def test_mixed_indexed_and_unindexed_members(self, conn):
        """An index on one member reorders and prices only that member;
        results stay identical."""
        cur = conn.cursor()
        query = "SELECT FROM readings WHERE code = 3"
        before = sorted(obj["name"] for obj in cur.execute(query).fetchall())
        cur.execute("CREATE INDEX ON readings_a (code)")
        dump = cur.explain(query)
        assert "index-eq(code=3)" in dump      # readings_a rides the B-tree
        assert "full-scan" in dump             # readings_b still scans
        after = sorted(obj["name"] for obj in cur.execute(query).fetchall())
        assert after == before
        assert len(after) == 18
        # The indexed probe (~10 rows through the B-tree) is now priced
        # below readings_b's 40-row scan and streams first.
        first = cur.execute(query).fetchone()
        assert first.class_name == "readings_a"

    def test_explain_shows_concept_union_tree(self, conn):
        dump = conn.cursor().explain("SELECT FROM readings")
        assert "ConceptUnion(readings: 2 members)" in dump
        assert "via concept readings" in dump
        assert dump.count("FallbackSwitch") == 2


class TestConceptPlanCache:
    def test_concept_revision_invalidates_cached_plan(self, conn):
        cur = conn.cursor()
        query = "SELECT FROM readings"
        cur.execute(query).fetchall()
        cur.execute(query).fetchall()  # cache hit
        assert conn.cache_hits >= 1
        invalidations = conn.plan_cache.invalidations
        # Mutating the concept (new member) bumps the revision that is
        # folded into the schema version guarding cache entries.
        cur.execute("""
        DEFINE CLASS readings_c (
          ATTRIBUTES: code = int4; name = char16;
          SPATIAL EXTENT: cell = box;
          TEMPORAL EXTENT: timestamp = abstime;
        )
        """)
        conn.kernel.concepts.attach_class("readings", "readings_c")
        conn.kernel.store.store("readings_c", {
            "code": 0, "name": "c0",
            "cell": Box(0, 4, 1, 5), "timestamp": AbsTime.from_ymd(1990, 6, 1),
        })
        rows = cur.execute(query).fetchall()
        assert conn.plan_cache.invalidations == invalidations + 1
        assert len(rows) == 91  # the new member's row is unioned in
        plan = conn.optimizer.compile(query)
        assert len(plan.nodes[0].inputs) == 3

    def test_isa_edge_invalidates_cached_plan(self, conn):
        cur = conn.cursor()
        cur.execute("DEFINE CONCEPT all_readings")
        query = "SELECT FROM readings"
        cur.execute(query).fetchall()
        invalidations = conn.plan_cache.invalidations
        conn.kernel.concepts.add_isa("readings", "all_readings")
        cur.execute(query).fetchall()
        assert conn.plan_cache.invalidations == invalidations + 1


MASKS_DDL = """
DEFINE CLASS field (
  ATTRIBUTES: data = image;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
);
DEFINE CLASS mask_lo (
  ATTRIBUTES: data = image;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
  DERIVED BY: maskify_lo
);
DEFINE CLASS mask_hi (
  ATTRIBUTES: data = image;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
  DERIVED BY: maskify_hi
);
DEFINE PROCESS maskify_lo
OUTPUT mask_lo
ARGUMENT ( field src )
TEMPLATE {
  MAPPINGS:
    mask_lo.data = img_threshold(src.data, 0.25);
    mask_lo.spatialextent = src.spatialextent;
    mask_lo.timestamp = src.timestamp;
};
DEFINE PROCESS maskify_hi
OUTPUT mask_hi
ARGUMENT ( field src )
TEMPLATE {
  MAPPINGS:
    mask_hi.data = img_threshold(src.data, 0.75);
    mask_hi.spatialextent = src.spatialextent;
    mask_hi.timestamp = src.timestamp;
};
DEFINE CONCEPT masks MEMBERS mask_lo, mask_hi
"""


def _field_scans(*statements):
    """Stored scans of the shared input class ``field`` while a fresh
    two-mask catalog runs *statements*, plus the rows they returned."""
    connection = repro.connect(universe=UNIVERSE)
    cur = connection.cursor()
    cur.execute(MASKS_DDL)
    store = connection.kernel.store
    store.store("field", {
        "data": Image.from_array(np.full((4, 4), 0.5), "float4"),
        "spatialextent": Box(0, 0, 10, 10),
        "timestamp": AbsTime(0),
    })
    store.scan_log = []
    rows = [obj for source in statements
            for obj in cur.execute(source).fetchall()]
    return sum(entry[0] == "field" for entry in store.scan_log), rows


class TestSharedDerivationProbes:
    def test_union_members_share_marking_probes(self):
        """Two derivable members falling back under one union both
        derive from their common input class."""
        _, rows = _field_scans("SELECT FROM masks")
        assert {obj.class_name for obj in rows} == {"mask_lo", "mask_hi"}

    def test_marking_cache_dedupes_supply_probes(self):
        """A concept union whose members share an input class probes
        that class's supply once: each member still reads ``field`` to
        bind its argument, but the second member's backward-planning
        marking is answered from the statement's marking cache — one
        read fewer than the same members asked for one by one.  Firing
        the first member drops only what it produced from the cache."""
        union, rows = _field_scans("SELECT FROM masks")
        apart, _ = _field_scans("SELECT FROM mask_lo", "SELECT FROM mask_hi")
        assert len(rows) == 2
        assert (union, apart) == (3, 4)
