"""EXP-J — concept queries: one cost-ordered union vs. per-member loops.

A Gaea concept ("DESERT", "VEGETATION-CHANGE") is a set of member
classes, and §2.1.1's high-level queries address the concept, not the
members.  Before the unified operator tree, each member was planned and
priced in isolation; now a concept SELECT compiles to a single
ConceptUnion whose member subtrees are ordered by estimated cost and
share one execution context.

This experiment builds a concept with several members of very different
sizes and selectivities (some indexed, some not), then measures

* a concept-wide retrieval through the union, vs.
* the same answer assembled by issuing one SELECT per member class,

and verifies the union's first-row latency benefits from cost ordering:
the cheapest member streams first, so an early-stopping consumer
(fetchone) does not pay for the expensive members at all.
"""

import time

from conftest import report

from repro import connect
from repro.spatial import Box
from repro.temporal import AbsTime

UNIVERSE = Box(0.0, 0.0, 100.0, 100.0)

MEMBERS = ("obs_small", "obs_medium", "obs_large")
SIZES = {"obs_small": 100, "obs_medium": 2_000, "obs_large": 8_000}
N_CODES = 50

CONCEPT_QUERY = "SELECT FROM observation WHERE code = 7"
REPETITIONS = 10
ROUNDS = 3


def _loaded_connection():
    conn = connect(universe=UNIVERSE)
    cur = conn.cursor()
    for member in MEMBERS:
        cur.execute(f"""
        DEFINE CLASS {member} (
          ATTRIBUTES: code = int4; reading = float8;
          SPATIAL EXTENT: cell = box;
          TEMPORAL EXTENT: timestamp = abstime;
        )
        """)
    cur.execute(
        "DEFINE CONCEPT observation MEMBERS " + ", ".join(MEMBERS)
    )
    stamp = AbsTime.from_ymd(1990, 6, 1)
    store = conn.kernel.store
    for member in MEMBERS:
        for i in range(SIZES[member]):
            x = float(i % 99)
            store.store(member, {
                "code": i % N_CODES,
                "reading": float(i),
                "cell": Box(x, 0.0, x + 1.0, 1.0),
                "timestamp": stamp,
            })
    # The big member gets an index; the small ones stay unindexed —
    # the union must price each member individually.
    cur.execute("CREATE INDEX ON obs_large (code)")
    return conn


def _timed(fn):
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for _ in range(REPETITIONS):
            fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_expJ_concept_union_vs_per_member():
    conn = _loaded_connection()
    cur = conn.cursor()
    expected = sum(SIZES[m] // N_CODES for m in MEMBERS)

    def concept_wide():
        rows = cur.execute(CONCEPT_QUERY).fetchall()
        assert len(rows) == expected

    member_queries = [
        f"SELECT FROM {member} WHERE code = 7" for member in MEMBERS
    ]

    def per_member():
        total = 0
        for query in member_queries:
            total += len(cur.execute(query).fetchall())
        assert total == expected

    union_time = _timed(concept_wide)
    loop_time = _timed(per_member)

    # What "one plan" means, stated structurally: the union is one
    # statement and one plan-cache entry where the loop is three, and
    # it does the same scans and returns the same rows.
    store = conn.kernel.store

    def observed(queries):
        conn.plan_cache.clear()
        before = dict(store.scan_counts)
        rows = [row for query in queries
                for row in cur.execute(query).fetchall()]
        scans = {member: store.scan_counts.get(member, 0)
                 - before.get(member, 0) for member in MEMBERS}
        by_oid = sorted((row.class_name, row.oid, row.values)
                        for row in rows)
        return len(conn.plan_cache), scans, by_oid

    union_plans, union_scans, union_rows = observed([CONCEPT_QUERY])
    loop_plans, loop_scans, loop_rows = observed(member_queries)
    assert (union_plans, loop_plans) == (1, len(MEMBERS))
    assert union_scans == loop_scans == dict.fromkeys(MEMBERS, 1)
    assert union_rows == loop_rows and len(union_rows) == expected

    # Cost ordering: the tiny member's 100-row scan is priced below the
    # big member's ~160-row index probe, so it streams first; the big
    # member still rides its B-tree when its turn comes.
    dump = cur.explain(CONCEPT_QUERY)
    assert "ConceptUnion(observation: 3 members)" in dump
    assert "index-eq(code=7)" in dump
    first = cur.execute(CONCEPT_QUERY).fetchone()
    assert first.class_name == "obs_small"

    report(
        f"EXP-J concept-wide retrieval ({len(MEMBERS)} members, "
        f"{sum(SIZES.values())} objects, {REPETITIONS} executions)",
        [
            ("concept union (one plan)", f"{union_time * 1e3:.1f}"),
            ("per-member SELECT loop", f"{loop_time * 1e3:.1f}"),
            ("union / loop", f"{union_time / loop_time:.2f}"),
        ],
        header=("configuration", "total ms"),
    )


def test_expJ_first_row_rides_cheapest_member():
    """An early-stopping consumer touches only the cheapest member."""
    conn = _loaded_connection()
    cur = conn.cursor()
    store = conn.kernel.store
    store.scan_log = []
    cur.execute(CONCEPT_QUERY)
    first = cur.fetchone()
    assert first is not None and first.class_name == "obs_small"
    scanned = {event[0] for event in store.scan_log}
    # The other members (including the 8000-row one) were never
    # scanned for the first row.
    assert scanned == {"obs_small"}
