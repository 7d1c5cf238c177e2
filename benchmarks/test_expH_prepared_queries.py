"""EXP-H — prepared statements: plan-once/bind-many retrieval latency.

The paper's interactive scientists issue many near-identical retrievals
over the same classes (retrieve-vs-derive decisions per region/epoch).
The v2 client API prepares such a statement once and binds it per call,
serving the plan from the connection's LRU cache; literal statement
texts on a connection without a plan cache are re-lexed, re-parsed and
re-planned every time.

This experiment measures repeated parameterized retrieval latency with
the plan cache cold vs warm, and against that per-call pipeline,
verifying the cache-hit accounting along the way.
"""

import time

from conftest import report

from repro import connect
from repro.figures import AFRICA
from repro.gis import SceneGenerator
from repro.temporal import AbsTime

DDL = """
DEFINE CLASS landsat_tm (
  ATTRIBUTES: area = char16; band = char16; data = image;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
)
DEFINE CLASS land_cover (
  ATTRIBUTES: area = char16; numclass = int4; data = image;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
  DERIVED BY: P20
)
DEFINE PROCESS P20
OUTPUT land_cover
ARGUMENT ( SETOF landsat_tm bands >= 3 )
TEMPLATE {
  ASSERTIONS:
    card(bands) = 3;
    common(bands.spatialextent);
    common(bands.timestamp);
  MAPPINGS:
    land_cover.data = unsuperclassify(composite(bands), 12);
    land_cover.numclass = 12;
    land_cover.area = ANYOF bands.area;
    land_cover.spatialextent = ANYOF bands.spatialextent;
    land_cover.timestamp = ANYOF bands.timestamp;
}
"""

QUERY = ("SELECT FROM landsat_tm WHERE spatialextent OVERLAPS "
         "(-20, -35, 52, 38) AND timestamp = {stamp} AND band = {band}")
PREPARED = ("SELECT FROM landsat_tm WHERE spatialextent OVERLAPS "
            "(?, ?, ?, ?) AND timestamp = ? AND band = ?")

BANDS = ("red", "nir", "green")
REPETITIONS = 100
ROUNDS = 3


def _loaded_connection():
    conn = connect(universe=AFRICA)
    conn.cursor().run(DDL)
    generator = SceneGenerator(seed=7, nrow=16, ncol=16)
    stamp = AbsTime.from_ymd(1986, 1, 15)
    for band, image in zip(BANDS, generator.scene("africa", 1986, 1)):
        conn.kernel.store.store("landsat_tm", {
            "area": "africa", "band": band, "data": image,
            "spatialextent": AFRICA, "timestamp": stamp,
        })
    return conn


def _binds(i):
    return [-20.0, -35.0, 52.0, 38.0, "1986-01-15", BANDS[i % len(BANDS)]]


def _run_unprepared(uncached, repetitions=REPETITIONS):
    """Literal statement text through the full pipeline on every call
    (*uncached* keeps no plans)."""
    for i in range(repetitions):
        stamp, band = "'1986-01-15'", f"'{BANDS[i % len(BANDS)]}'"
        [result] = uncached.execute(QUERY.format(stamp=stamp, band=band))
        assert len(result.objects) == 1


def _run_prepared(conn, prepared, repetitions=REPETITIONS):
    """The v2 path: plan once, bind per execution, stream the rows."""
    cursor = conn.cursor()
    for i in range(repetitions):
        cursor.execute(prepared, _binds(i))
        assert len(cursor.fetchall()) == 1


def _best_of(rounds, fn, *args):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def test_expH_prepared_vs_replanned_latency():
    """100 parameterized retrievals: prepared+cached beats re-planning."""
    conn = _loaded_connection()
    uncached = connect(kernel=conn.kernel, plan_cache_size=0)

    # Cold: the very first execution pays lex+parse+plan and fills the
    # cache; measure it separately from the warm steady state.
    prepared = conn.prepare(PREPARED)
    cold_start = time.perf_counter()
    _run_prepared(conn, prepared, repetitions=1)
    cold = time.perf_counter() - cold_start

    warm_total = _best_of(ROUNDS, _run_prepared, conn, prepared)
    replanned_total = _best_of(ROUNDS, _run_unprepared, uncached)

    hits, misses = conn.cache_hits, conn.cache_misses
    report(
        "EXP-H prepared queries (100 parameterized retrievals)",
        [
            ("literal text, no plan cache", f"{replanned_total * 1e3:.2f}",
             "re-parse + re-plan each call"),
            ("prepared, cache warm", f"{warm_total * 1e3:.2f}",
             f"{hits} plan-cache hits"),
            ("prepared, first call (cold)", f"{cold * 1e3:.2f}",
             "fills the cache"),
            ("speedup (re-planned/warm)",
             f"{replanned_total / warm_total:.2f}x", ""),
        ],
        header=("configuration", "total ms", "notes"),
    )

    # Every warm execution was served from the plan cache...
    assert hits >= ROUNDS * REPETITIONS
    # ...the prepare itself was the only miss on this statement.
    assert misses <= 2
    # And skipping re-parse/re-plan must be measurably faster.
    assert uncached.cache_hits == 0
    assert warm_total < replanned_total


def test_expH_cache_accounting_per_execution():
    """Each of N executions after prepare is exactly one cache hit."""
    conn = _loaded_connection()
    prepared = conn.prepare(PREPARED)
    assert (conn.cache_hits, conn.plan_cache.invalidations) == (0, 0)
    _run_prepared(conn, prepared)
    assert conn.cache_hits == REPETITIONS
    assert conn.plan_cache.invalidations == 0


def test_expH_ddl_invalidation_cost_is_one_replan():
    """DDL between executions costs exactly one re-plan, not a cold cache."""
    conn = _loaded_connection()
    prepared = conn.prepare(PREPARED)
    _run_prepared(conn, prepared, repetitions=10)
    conn.execute("DEFINE CONCEPT probe MEMBERS landsat_tm")
    _run_prepared(conn, prepared, repetitions=10)
    assert conn.plan_cache.invalidations == 1
    assert conn.cache_hits == 19  # 10 + 9 after the single re-plan
