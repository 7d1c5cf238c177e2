"""EXP-I — indexed retrieval: cost-based access paths vs. full scans.

The paper's retrieval step (§2.1.5 step 1) assumes the DBMS can answer
class retrievals without materializing every stored object.  PR 2 wires
the storage layer's secondary indexes (attribute B-trees, the spatial
grid index, the temporal timeline) into a System-R-style cost model:
the optimizer prices every candidate access path and records the
cheapest in the (cached) plan, pushing the remaining predicates down as
per-row residuals.

This experiment stores 10,000 objects and measures a selective
equality retrieval and a selective range retrieval, full-scan vs.
index-backed.  It asserts what the cost model promises — EXPLAIN names
the index path, prices it below the full scan, and both paths return
the same objects — and prints the measured speedups without a
wall-clock floor: a full scan reads a column image, so the ratio moves
with the machine, not with the plan.
"""

import re
import time

from conftest import report

from repro import connect
from repro.spatial import Box
from repro.temporal import AbsTime

UNIVERSE = Box(0.0, 0.0, 100.0, 100.0)

DDL = """
DEFINE CLASS survey_site (
  ATTRIBUTES: code = int4; reading = float8; station = char16;
  SPATIAL EXTENT: cell = box;
  TEMPORAL EXTENT: timestamp = abstime;
)
"""

N_OBJECTS = 10_000
N_CODES = 1_000  # 1000 distinct codes -> ~10 rows per equality probe

EQ_QUERY = "SELECT FROM survey_site WHERE code = 7"
RANGE_QUERY = ("SELECT FROM survey_site WHERE reading >= 42.0 "
               "AND reading <= 42.1")

REPETITIONS = 20
ROUNDS = 3


def _loaded_connection():
    conn = connect(universe=UNIVERSE)
    conn.cursor().run(DDL)
    stamp = AbsTime.from_ymd(1990, 6, 1)
    store = conn.kernel.store
    for i in range(N_OBJECTS):
        x = i % 99
        y = (i // 99) % 99
        store.store("survey_site", {
            "code": i % N_CODES,
            "reading": (i % 100_000) / 100.0,
            "station": f"s{i % 37}",
            "cell": Box(float(x), float(y), float(x) + 1.0, float(y) + 1.0),
            "timestamp": stamp,
        })
    return conn


def _timed(cursor, query, expected):
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for _ in range(REPETITIONS):
            cursor.execute(query)
            assert len(cursor.fetchall()) == expected
        best = min(best, time.perf_counter() - start)
    return best


def _access_cost(explain):
    """The estimated cost of the access path an EXPLAIN dump names."""
    return float(re.search(r"access=\S+ .*?cost~([\d.]+)", explain)[1])


def _oids(cursor, query):
    return sorted(obj.oid for obj in cursor.execute(query).fetchall())


def test_expI_indexed_vs_full_scan():
    """Selective retrievals ride the index, which the cost model prices
    below the full scan, and return the full scan's objects."""
    conn = _loaded_connection()
    cur = conn.cursor()

    eq_expected = N_OBJECTS // N_CODES
    range_expected = len(cur.execute(RANGE_QUERY).fetchall())
    assert 0 < range_expected < 100  # selective, but not empty

    # -- full scans (no secondary attribute indexes yet) -----------------
    scan_explain = cur.explain(EQ_QUERY)
    range_scan_explain = cur.explain(RANGE_QUERY)
    assert "full-scan" in scan_explain
    assert "full-scan" in range_scan_explain
    eq_scan_oids = _oids(cur, EQ_QUERY)
    range_scan_oids = _oids(cur, RANGE_QUERY)
    eq_scan = _timed(cur, EQ_QUERY, eq_expected)
    range_scan = _timed(cur, RANGE_QUERY, range_expected)

    # -- index-backed ----------------------------------------------------
    cur.execute("CREATE INDEX ON survey_site (code)")
    cur.execute("CREATE INDEX ON survey_site (reading)")
    eq_explain = cur.explain(EQ_QUERY)
    range_explain = cur.explain(RANGE_QUERY)
    assert "index-eq(code=7)" in eq_explain
    assert "index-range(reading" in range_explain
    eq_indexed = _timed(cur, EQ_QUERY, eq_expected)
    range_indexed = _timed(cur, RANGE_QUERY, range_expected)

    eq_speedup = eq_scan / eq_indexed
    range_speedup = range_scan / range_indexed
    report(
        f"EXP-I indexed retrieval ({N_OBJECTS} objects, "
        f"{REPETITIONS} executions)",
        [
            ("equality, full scan", f"{eq_scan * 1e3:.1f}",
             scan_explain.split("access=")[1]),
            ("equality, B-tree probe", f"{eq_indexed * 1e3:.1f}",
             eq_explain.split("access=")[1]),
            ("equality speedup", f"{eq_speedup:.1f}x", ""),
            ("range, full scan", f"{range_scan * 1e3:.1f}", ""),
            ("range, B-tree window", f"{range_indexed * 1e3:.1f}",
             range_explain.split("access=")[1]),
            ("range speedup", f"{range_speedup:.1f}x", ""),
        ],
        header=("configuration", "total ms", "plan"),
    )

    assert _access_cost(eq_explain) < _access_cost(scan_explain)
    assert _access_cost(range_explain) < _access_cost(range_scan_explain)
    assert _oids(cur, EQ_QUERY) == eq_scan_oids
    assert _oids(cur, RANGE_QUERY) == range_scan_oids


def test_expI_explain_proves_index_path():
    """EXPLAIN (statement and cursor dump) names the chosen index."""
    conn = _loaded_connection()
    cur = conn.cursor()
    cur.execute("CREATE INDEX ON survey_site (code)")

    # The GaeaQL EXPLAIN statement reports the physical access path.
    [result] = conn.execute("EXPLAIN " + EQ_QUERY)
    assert result.kind == "explanation"
    assert "index-eq(code=7)" in result.details["access"]["survey_site"]

    # The cursor-level dump agrees, without running the query.
    assert "index-eq(code=7)" in cur.explain(EQ_QUERY)

    # Dropping the index reverts the plan to a full scan (the plan
    # cache is invalidated by the catalog's index version).
    cur.execute("DROP INDEX ON survey_site (code)")
    assert "full-scan" in cur.explain(EQ_QUERY)


def test_expI_spatial_probe_beats_scan():
    """A small-box spatial retrieval rides the grid index."""
    conn = _loaded_connection()
    cur = conn.cursor()
    probe = "SELECT FROM survey_site WHERE cell OVERLAPS (10, 10, 12, 12)"
    dump = cur.explain(probe)
    assert "spatial-probe" in dump
    rows = cur.execute(probe).fetchall()
    assert rows  # the grid covers the universe densely
    box = Box(10.0, 10.0, 12.0, 12.0)
    assert all(obj["cell"].overlaps(box) for obj in rows)
