"""EXP-K — the completed algebra: ORDER BY / LIMIT / JOIN / aggregates.

Three claims from the PR that made GaeaQL's algebra complete:

* **top-K**: a ``Sort`` under a ``Limit`` keeps only the first k rows
  of its argsort, so for ``ORDER BY ... LIMIT 10`` over 10k objects
  only 10 rows leave the Sort, which beats the full sort that
  materializes and returns everything;
* **sort avoidance**: once the ORDER BY attribute carries a B-tree, the
  cost model replaces the explicit Sort with a key-ordered index walk
  that stops after LIMIT rows — visible in EXPLAIN as an
  ``IndexScan ... (ordered)`` with no Sort node;
* **hash join**: the ``HashJoin`` operator joins 5k×5k rows in two
  linear passes, ≥10× faster than the client-side nested-loop Python
  join scientists previously had to write.
"""

import time

from conftest import report

from repro import connect
from repro.spatial import Box
from repro.temporal import AbsTime

UNIVERSE = Box(0.0, 0.0, 100.0, 100.0)

DDL = """
DEFINE CLASS measurement (
  ATTRIBUTES: station = int4; value = float8;
  SPATIAL EXTENT: cell = box;
  TEMPORAL EXTENT: timestamp = abstime;
)
DEFINE CLASS station_info (
  ATTRIBUTES: station = int4; region = char16;
  SPATIAL EXTENT: cell = box;
  TEMPORAL EXTENT: timestamp = abstime;
)
"""

N_ROWS = 10_000
N_JOIN = 5_000
TOPK_QUERY = ("SELECT station, value FROM measurement "
              "ORDER BY value DESC LIMIT 10")
FULL_SORT_QUERY = "SELECT station, value FROM measurement ORDER BY value DESC"
ROUNDS = 3


def _connection(rows: int, join_rows: int = 0):
    conn = connect(universe=UNIVERSE)
    conn.cursor().run(DDL)
    stamp = AbsTime.from_ymd(1990, 6, 1)
    store = conn.kernel.store
    cell = Box(1.0, 1.0, 2.0, 2.0)
    for i in range(rows):
        store.store("measurement", {
            "station": i % max(1, join_rows or rows),
            # Deterministic but unordered values.
            "value": float((i * 2_654_435_761) % 1_000_003),
            "cell": cell, "timestamp": stamp,
        })
    for i in range(join_rows):
        store.store("station_info", {
            "station": i, "region": f"reg{i % 17}",
            "cell": cell, "timestamp": stamp,
        })
    return conn


def _timed(fn, rounds: int = ROUNDS) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_expK_topk_beats_full_sort():
    """LIMIT pushes its bound into Sort: top-10 of 10k wins."""
    conn = _connection(N_ROWS)
    cur = conn.cursor()

    plan = cur.explain(TOPK_QUERY)
    assert "Sort(value DESC top-10)" in plan
    assert "Limit(10)" in plan

    def run_topk():
        rows = cur.execute(TOPK_QUERY).fetchall()
        assert len(rows) == 10

    def run_full():
        rows = cur.execute(FULL_SORT_QUERY).fetchall()
        assert len(rows) == N_ROWS

    topk = _timed(run_topk)
    full = _timed(run_full)
    values = [row["value"] for row in cur.execute(TOPK_QUERY).fetchall()]
    assert values == sorted(values, reverse=True)

    # Operator-level comparison over the same materialized input, so
    # the (shared) scan cost does not dilute the sort-only ratio.
    from repro.query.ast import ColumnRef
    from repro.query.batch import Batch
    from repro.query.operators import PhysicalOperator, Sort

    class _Rows(PhysicalOperator):
        def __init__(self, batch):
            self.batch = batch
            self.estimated_rows = float(batch.length)

        def label(self):
            return "rows"

        def run_batches(self):
            yield self.batch

    objects = cur.execute("SELECT FROM measurement").fetchall()
    batch = Batch.from_objects(
        objects, conn.kernel.classes.get("measurement")
    )
    keys = ((ColumnRef(attr="value"), True),)
    operators = conn.kernel.operators
    bounded = _timed(lambda: list(
        Sort(_Rows(batch), keys, operators, top_k=10).run()
    ))
    unbounded = _timed(lambda: list(
        Sort(_Rows(batch), keys, operators).run()
    ))
    sort_speedup = unbounded / bounded
    # The structural fact behind both ratios: only K rows leave the
    # bounded Sort, every row leaves the unbounded one.
    bounded_sort = Sort(_Rows(batch), keys, operators, top_k=10)
    unbounded_sort = Sort(_Rows(batch), keys, operators)
    assert len(list(bounded_sort.run())) == bounded_sort.rows_out == 10
    assert len(list(unbounded_sort.run())) == unbounded_sort.rows_out \
        == N_ROWS

    speedup = full / topk
    report(
        f"EXP-K top-K vs full sort ({N_ROWS} objects)",
        [
            ("ORDER BY ... LIMIT 10 (top-K)", f"{topk * 1e3:.1f}"),
            ("ORDER BY ... (full sort)", f"{full * 1e3:.1f}"),
            ("end-to-end speedup", f"{speedup:.1f}x"),
            ("Sort top-10 (operator only)", f"{bounded * 1e3:.1f}"),
            ("Sort full (operator only)", f"{unbounded * 1e3:.1f}"),
            ("sort-only speedup", f"{sort_speedup:.1f}x"),
        ],
        header=("configuration", "total ms"),
    )
    # The end-to-end ratio is printed, not asserted: it compares
    # fetching 10 rows with fetching N_ROWS through the cursor, not the
    # two sorts.
    assert sort_speedup >= 1.5  # only K rows leave the Sort


def test_expK_index_order_beats_explicit_sort():
    """An ordered index walk replaces the Sort and stops at LIMIT."""
    conn = _connection(N_ROWS)
    cur = conn.cursor()

    before_plan = cur.explain(TOPK_QUERY)
    assert "Sort(value DESC top-10)" in before_plan
    sorted_time = _timed(lambda: cur.execute(TOPK_QUERY).fetchall())
    expected = [row["value"] for row in cur.execute(TOPK_QUERY).fetchall()]

    cur.execute("CREATE INDEX ON measurement (value)")
    after_plan = cur.explain(TOPK_QUERY)
    assert "(ordered desc)" in after_plan
    # Sort avoidance: no Sort remains on the stored path — any Sort
    # left in the tree belongs to the §2.1.5 fallback leaf (whose
    # output the index cannot order).
    lines = after_plan.splitlines()
    for i, line in enumerate(lines):
        if "Sort(" in line:
            assert "Fallback(" in lines[i + 1]
    ordered_time = _timed(lambda: cur.execute(TOPK_QUERY).fetchall())
    got = [row["value"] for row in cur.execute(TOPK_QUERY).fetchall()]
    assert got == expected

    speedup = sorted_time / ordered_time
    report(
        f"EXP-K sort avoidance ({N_ROWS} objects, top-10)",
        [
            ("explicit Sort over full scan", f"{sorted_time * 1e3:.1f}"),
            ("ordered IndexScan, no Sort", f"{ordered_time * 1e3:.1f}"),
            ("speedup", f"{speedup:.1f}x"),
        ],
        header=("configuration", "total ms"),
    )
    # Vectorized execution (EXP-M) made the explicit-Sort baseline much
    # faster in absolute terms — batch argsort instead of a Python
    # heap — so the ordered index walk's relative margin narrowed from
    # ~2.5× to ~1.7×. Sort avoidance still wins; assert the win, not
    # the pre-vectorization margin.
    assert speedup >= 1.3


def test_expK_hash_join_beats_python_nested_loop():
    """HashJoin at 5k×5k: ≥10× over the client-side nested loop."""
    conn = _connection(N_JOIN, join_rows=N_JOIN)
    cur = conn.cursor()

    join_query = ("SELECT count(*) FROM measurement "
                  "JOIN station_info "
                  "ON measurement.station = station_info.station")
    plan = cur.explain(join_query)
    assert "HashJoin" in plan

    def run_join():
        (row,) = cur.execute(join_query).fetchall()
        assert row["count(*)"] == N_JOIN

    join_time = _timed(run_join)

    # The pre-algebra workflow: fetch both classes, join in Python.
    left = cur.execute("SELECT FROM measurement").fetchall()
    right = cur.execute("SELECT FROM station_info").fetchall()

    def run_nested_loop():
        matches = 0
        for a in left:
            key = a["station"]
            for b in right:
                if b["station"] == key:
                    matches += 1
        assert matches == N_JOIN

    nested_time = _timed(run_nested_loop, rounds=1)

    speedup = nested_time / join_time
    report(
        f"EXP-K hash join ({N_JOIN}×{N_JOIN} rows)",
        [
            ("HashJoin + count(*)", f"{join_time * 1e3:.1f}"),
            ("client-side nested loop", f"{nested_time * 1e3:.1f}"),
            ("speedup", f"{speedup:.1f}x"),
        ],
        header=("configuration", "total ms"),
    )
    assert speedup >= 10.0


def test_expK_group_by_aggregates_match_python():
    """Per-region aggregation agrees with the client-side computation."""
    conn = _connection(2_000, join_rows=100)
    cur = conn.cursor()
    cur.execute("SELECT region, count(*), avg(value) FROM measurement "
                "JOIN station_info "
                "ON measurement.station = station_info.station "
                "GROUP BY region ORDER BY 2 DESC")
    rows = cur.fetchall()

    stations = {s["station"]: s["region"]
                for s in cur.execute("SELECT FROM station_info").fetchall()}
    expected: dict[str, list[float]] = {}
    for m in cur.execute("SELECT FROM measurement").fetchall():
        expected.setdefault(stations[m["station"]], []).append(m["value"])

    assert len(rows) == len(expected)
    for row in rows:
        values = expected[row["region"]]
        assert row["count(*)"] == len(values)
        assert abs(row["avg(value)"] - sum(values) / len(values)) < 1e-6
    counts = [row["count(*)"] for row in rows]
    assert counts == sorted(counts, reverse=True)
