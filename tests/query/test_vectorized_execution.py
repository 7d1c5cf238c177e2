"""Batch-at-a-time execution: regressions and contracts.

Every operator streams NumPy columnar :class:`~repro.query.batch.Batch`
slabs.  These tests pin the contracts that path must keep:

* empty inputs and empty post-filter batches stream cleanly;
* LIMIT/OFFSET land exactly on batch boundaries;
* EXPLAIN lines end with the estimates — there is one engine, so no
  per-operator mode annotation and no adapter operators;
* a plan stays snapshot-consistent under a concurrent writer;
* the IndexNestedLoopJoin probe side runs the §2.1.5
  interpolate/derive fallback on a probe miss;
* LIMIT/OFFSET accept bind parameters, so one cached plan serves every
  page of a paginated fetch.
"""

import re
import threading

import numpy as np
import pytest

import repro
from repro.adt import Image
from repro.errors import BindError, UnderivableError
from repro.query.ast import ColumnRef
from repro.query.batch import Batch
from repro.query.expressions import compile_column
from repro.query.operators import (
    IndexNestedLoopJoin, Limit, PhysicalOperator,
)
from repro.query.physical import PhysicalPlanner
from repro.spatial import Box
from repro.temporal import AbsTime

UNIVERSE = Box(0.0, 0.0, 100.0, 100.0)

DDL = """
DEFINE CLASS reading (
  ATTRIBUTES: station = int4; value = float8; tag = char16;
  SPATIAL EXTENT: cell = box;
  TEMPORAL EXTENT: timestamp = abstime;
)
"""

STAMP = AbsTime.from_ymd(1990, 6, 1)


def _load(conn, n, *, nulls=False):
    store = conn.kernel.store
    for i in range(n):
        store.store("reading", {
            "station": i % 7,
            "value": None if nulls and i % 5 == 0 else i * 0.5,
            "tag": f"t{i % 3}",
            "cell": Box(float(i % 9), 0.0, float(i % 9) + 1.0, 1.0),
            "timestamp": STAMP,
        })


@pytest.fixture()
def conn():
    connection = repro.connect(universe=UNIVERSE)
    connection.cursor().execute(DDL)
    return connection


def _rows(cur, query, params=None):
    cur.execute(query, params)
    return cur.fetchall()


class TestEmptyInputs:
    def test_empty_class_raises_underivable(self, conn):
        # An empty base class triggers the §2.1.5 fallback chain, which
        # ends in UnderivableError.
        cur = conn.cursor()
        with pytest.raises(UnderivableError):
            _rows(cur, "SELECT station FROM reading ORDER BY station")

    def test_filter_matching_nothing(self, conn):
        _load(conn, 40)
        cur = conn.cursor()
        assert _rows(cur, "SELECT station FROM reading "
                          "WHERE tag = 'absent' ORDER BY station") == []

    def test_aggregate_over_empty_input(self, conn):
        _load(conn, 40)
        cur = conn.cursor()
        (row,) = _rows(cur, "SELECT count(*), sum(station), avg(value) "
                            "FROM reading WHERE tag = 'absent'")
        assert row == {"count(*)": 0, "sum(station)": None,
                       "avg(value)": None}


class TestBatchLayouts:
    """``Batch.concat`` aligns differing layouts (what a pipeline
    breaker sees above a mixed-class concept union) and
    ``Batch.joined`` pairs two sides under qualified names."""

    FULL = (("k", "int4"), ("v", "float8"))
    BARE = (("k", "int4"),)

    def test_concat_reads_an_absent_column_as_null(self):
        full = Batch.from_values("full", self.FULL, [(1, 7, 0.5), (2, 8, 1.5)])
        bare = Batch.from_values("bare", self.BARE, [(3, 9)])
        big = Batch.concat([full, bare])
        assert big.length == 3
        assert big.columns["v"].dtype == np.float64  # typed, not objects
        assert big.mask("v").tolist() == [False, False, True]
        assert big.columns["k"].tolist() == [7, 8, 9]

    def test_concat_keeps_each_rows_class_and_attributes(self):
        full = Batch.from_values("full", self.FULL, [(1, 7, 0.5)])
        bare = Batch.from_values("bare", self.BARE, [(3, 9)])
        # through a reorder and a second concat, as Sort-under-Sort would
        big = Batch.concat([Batch.concat([full, bare]), full])
        rows = list(big.take(np.array([2, 1, 0])).to_rows())
        assert [(r.class_name, r.oid, r.values) for r in rows] == [
            ("full", 1, {"k": 7, "v": 0.5}),
            ("bare", 3, {"k": 9}),
            ("full", 1, {"k": 7, "v": 0.5}),
        ]

    def test_concat_carries_a_dtype_clash_as_objects(self):
        ints = Batch.from_values("a", (("n", "int4"),), [(1, 5)])
        floats = Batch.from_values("b", (("n", "float8"),), [(2, 2.5)])
        rows = list(Batch.concat([ints, floats]).to_rows())
        values = [row["n"] for row in rows]
        assert values == [5, 2.5]
        assert [type(v) for v in values] == [int, float]

    def test_concat_of_dict_batches_unions_their_columns(self):
        one = Batch.from_dict_rows(("a.k", "a.x"), [{"a.k": 1, "a.x": 2}])
        two = Batch.from_dict_rows(("a.k", "a.y"), [{"a.k": 3, "a.y": 4}])
        assert list(Batch.concat([one, two]).to_rows()) == [
            {"a.k": 1, "a.x": 2, "a.y": None},
            {"a.k": 3, "a.x": None, "a.y": 4},
        ]

    def test_joined_rows_are_keyed_by_qualified_names(self):
        left = Batch.from_values("a", (("k", "int4"), ("x", "float8")),
                                 [(10, 1, 0.5)])
        right = Batch.from_values("b", (("k", "int4"), ("y", "char16")),
                                  [(20, 1, "one")])
        out = Batch.joined(left, right, "a", "b")
        assert list(out.to_rows()) == [
            {"a.k": 1, "a.x": 0.5, "b.k": 1, "b.y": "one"}
        ]
        # only qualified columns; oids stay addressable
        assert out.sides == ("a", "b")
        assert set(out.columns) == {"a.oid", "a.k", "a.x",
                                    "b.oid", "b.k", "b.y"}
        assert out.column("a.oid").tolist() == [10]
        assert out.column("b.oid").tolist() == [20]

    def test_joined_column_lookup_never_crosses_sides(self):
        """A qualified reference reads its own side or NULL; an
        unqualified one the left side's column, else the right's."""
        left = Batch.from_values("a", (("k", "int4"),), [(10, 1)])
        right = Batch.from_values("b", (("k", "int4"), ("y", "char16")),
                                  [(20, 2, "two")])
        out = Batch.joined(left, right, "a", "b", left_attrs=("k", "y"))

        def read(attr, qualifier=None):
            values, null = compile_column(ColumnRef(attr, qualifier))(out)
            return [None if n else v
                    for v, n in zip(values.tolist(), null.tolist())]

        assert read("y", "a") == [None]   # declared, absent: NULL column
        assert read("y", "b") == ["two"]
        assert read("y") == [None]        # left has the name: left wins
        assert read("k") == [1]
        assert read("oid") == [10]
        assert read("x", "a") == [None]   # never the bare / other side
        plain = Batch.joined(left, right, "a", "b")
        assert "a.y" not in plain.columns
        values, null = compile_column(ColumnRef("y", "a"))(plain)
        assert null.tolist() == [True]
        values, _ = compile_column(ColumnRef("y"))(plain)
        assert values.tolist() == ["two"]  # only the right has it

    def test_joined_layout_survives_take_and_concat(self):
        left = Batch.from_values("a", (("k", "int4"),), [(10, 1), (11, 2)])
        right = Batch.from_values("b", (("k", "int4"),), [(20, 1), (21, 2)])
        out = Batch.joined(left, right, "a", "b")
        assert out.take(np.array([1])).sides == ("a", "b")
        assert Batch.concat([out, out]).sides == ("a", "b")


class TestBatchBoundaries:
    """Tiny batch sizes force every boundary case through the slab
    slicing in Limit/Sort/HashAggregate."""

    @pytest.mark.parametrize("limit,offset", [
        (4, 0), (4, 4), (8, 0), (3, 7), (0, 0), (12, 2), (100, 0),
    ])
    def test_limit_offset_across_batch_edges(self, conn, limit, offset):
        _load(conn, 12)
        planner = PhysicalPlanner(kernel=conn.kernel, batch_size=4)
        from repro.query.parser import parse
        from repro.query.optimizer import Optimizer
        optimizer = Optimizer(conn.kernel)
        source = (f"SELECT station FROM reading ORDER BY oid "
                  f"LIMIT {limit} OFFSET {offset}")
        node = optimizer.plan(parse(source)[0])
        tree = planner.build(node)
        got = [row["station"] for row in tree.run()]
        expect = [i % 7 for i in range(12)][offset:offset + limit]
        assert got == expect

    def test_batch_sized_exactly_at_limit(self, conn):
        _load(conn, 8)
        planner = PhysicalPlanner(kernel=conn.kernel, batch_size=8)
        from repro.query.parser import parse
        from repro.query.optimizer import Optimizer
        optimizer = Optimizer(conn.kernel)
        node = optimizer.plan(
            parse("SELECT station FROM reading ORDER BY oid LIMIT 8")[0]
        )
        got = list(planner.build(node).run())
        assert len(got) == 8


class TestExplain:
    def test_operator_lines_end_with_their_estimates(self, conn):
        """One engine: nothing follows ``[rows~N cost~C]``, and a
        join's inputs are its direct children."""
        _load(conn, 10)
        cur = conn.cursor()
        cur.execute("DEFINE CLASS station_info "
                    "( ATTRIBUTES: sid = int4; label = char16; )")
        conn.kernel.store.store("station_info", {"sid": 1, "label": "a"})
        plan = cur.explain("SELECT tag, count(*) FROM reading "
                           "JOIN station_info "
                           "ON reading.station = station_info.sid "
                           "WHERE reading.station >= 1 GROUP BY tag "
                           "ORDER BY tag LIMIT 2").splitlines()
        operator_lines = [line for line in plan if "[rows~" in line]
        assert len(operator_lines) >= 8
        for line in operator_lines:
            assert re.search(r"\[rows~\d+ cost~[\d.]+\]$", line), line
        join = next(i for i, line in enumerate(plan) if "HashJoin(" in line)
        indent = plan[join].index("HashJoin(")
        children = [line[indent:] for line in plan[join + 1:]
                    if line[indent:indent + 2] in ("├─", "└─")]
        assert [child[3:].split("(")[0] for child in children] \
            == ["FallbackSwitch", "FallbackSwitch"]


class TestPlanUnderConcurrentWriter:
    def test_reads_stay_snapshot_consistent(self, conn):
        """Each fetch sees a committed prefix: count(*) equals the
        number of distinct stations summed, never a torn batch."""
        _load(conn, 14)  # two full stations to start
        errors: list[BaseException] = []
        stop = threading.Event()

        def writer():
            store = conn.kernel.store
            try:
                for i in range(300):
                    if stop.is_set():
                        return
                    store.store("reading", {
                        "station": i % 7, "value": 1.0, "tag": "w",
                        "cell": Box(0.0, 0.0, 1.0, 1.0),
                        "timestamp": STAMP,
                    })
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            cur = conn.cursor()
            for _ in range(40):
                cur.execute("SELECT count(*) FROM reading")
                (total_row,) = cur.fetchall()
                cur.execute("SELECT tag, count(*) FROM reading "
                            "GROUP BY tag ORDER BY tag")
                grouped = cur.fetchall()
                # Monotonic prefix: both aggregates ran under their own
                # snapshot, so each is internally consistent.
                assert total_row["count(*)"] >= 14
                assert sum(r["count(*)"] for r in grouped) >= 14
        finally:
            stop.set()
            thread.join()
        assert not errors


class _RowSource(PhysicalOperator):
    """A fixed one-batch source for driving join operators directly."""

    def __init__(self, rows):
        self._rows = rows
        self.estimated_rows = float(len(rows))
        self.estimated_cost = float(len(rows))

    def label(self) -> str:
        return f"RowSource({len(self._rows)})"

    def run_batches(self):
        self.rows_out += len(self._rows)
        yield Batch.from_dict_rows(tuple(self._rows[0]), self._rows)


class TestProbeSideFallback:
    DERIVED_DDL = """
    DEFINE CLASS summary (
      ATTRIBUTES: station = int4; data = image;
      SPATIAL EXTENT: cell = box;
      TEMPORAL EXTENT: timestamp = abstime;
      DERIVED BY: summarize
    )
    DEFINE PROCESS summarize
    OUTPUT summary
    ARGUMENT ( source src )
    TEMPLATE {
      MAPPINGS:
        summary.station = src.station;
        summary.data = img_threshold(src.data, 0.5);
        summary.cell = src.cell;
        summary.timestamp = src.timestamp;
    }
    """

    @pytest.fixture()
    def derived_conn(self):
        connection = repro.connect(universe=UNIVERSE)
        cur = connection.cursor()
        cur.execute("DEFINE CLASS source ( ATTRIBUTES: station = int4; "
                    "data = image; SPATIAL EXTENT: cell = box; "
                    "TEMPORAL EXTENT: timestamp = abstime; )")
        cur.execute(self.DERIVED_DDL)
        connection.kernel.store.store("source", {
            "station": 3,
            "data": Image.from_array(np.full((4, 4), 0.9), "float4"),
            "cell": Box(0.0, 0.0, 10.0, 10.0),
            "timestamp": STAMP,
        })
        cur.execute("CREATE INDEX ON summary (station)")
        return connection

    def test_probe_miss_triggers_derivation(self, derived_conn):
        planner = PhysicalPlanner(kernel=derived_conn.kernel)
        ctx = planner.context()
        left = _RowSource([{"station": 3}, {"station": 3}, {"station": 8}])
        join = IndexNestedLoopJoin(
            ctx, left,
            ColumnRef(attr="station"), "summary",
            ColumnRef(attr="station"), "left", "summary",
        )
        rows = list(join.run())
        # the one derived summary object matches both station=3 rows;
        # station=8 finds nothing even after the fallback
        assert len(rows) == 2
        assert join.probe_fallback == "derive"
        for row in rows:
            assert row["summary.station"] == 3

    def test_fallback_attempted_once(self, derived_conn):
        planner = PhysicalPlanner(kernel=derived_conn.kernel)
        ctx = planner.context()
        calls = []
        real_derive = derived_conn.kernel.planner.derive

        def counting_derive(*args, **kwargs):
            calls.append(args)
            return real_derive(*args, **kwargs)

        derived_conn.kernel.planner.derive = counting_derive
        try:
            left = _RowSource([{"station": 9}, {"station": 10},
                               {"station": 11}])
            join = IndexNestedLoopJoin(
                ctx, left,
                ColumnRef(attr="station"), "summary",
                ColumnRef(attr="station"), "left", "summary",
            )
            assert list(join.run()) == []
        finally:
            derived_conn.kernel.planner.derive = real_derive
        assert len(calls) == 1

    @pytest.mark.parametrize("order", [("interpolate", "derive"),
                                       ("derive", "interpolate")])
    def test_probe_fallback_follows_the_planner_order(self, derived_conn,
                                                      order):
        """§2.1.5: "steps 2 and 3 are prioritized according to the
        user's needs" — on the probe side as for every other retrieval.
        Both steps can answer here: summaries bracket STAMP, and the
        source to derive from is stored at STAMP."""
        kernel = derived_conn.kernel
        for days in (-10, 10):
            kernel.store.store("summary", {
                "station": 3,
                "data": Image.from_array(np.full((4, 4), 1.0), "float4"),
                "cell": Box(0.0, 0.0, 10.0, 10.0),
                "timestamp": AbsTime(STAMP.days + days),
            })
        calls = []
        real_derive = kernel.planner.derive

        def counting_derive(*args, **kwargs):
            calls.append(args)
            return real_derive(*args, **kwargs)

        kernel.planner.derive = counting_derive
        kernel.planner.fallback_order = order
        try:
            join = IndexNestedLoopJoin(
                PhysicalPlanner(kernel=kernel).context(),
                _RowSource([{"station": 3}, {"station": 8}]),
                ColumnRef(attr="station"), "summary",
                ColumnRef(attr="station"), "left", "summary",
                temporal=STAMP,
            )
            rows = list(join.run())
        finally:
            kernel.planner.derive = real_derive
        assert join.probe_fallback == order[0]
        assert len(calls) == (order[0] == "derive")
        assert [row["summary.station"] for row in rows] == [3]

    def test_limit_stops_before_a_later_miss_derives(self, derived_conn):
        """The one-shot probe-side fallback fires for a miss the drain
        reaches — not for one past the LIMIT."""
        derived_conn.kernel.store.store("summary", {
            "station": 1,
            "data": Image.from_array(np.full((4, 4), 1.0), "float4"),
            "cell": Box(0.0, 0.0, 10.0, 10.0),
            "timestamp": STAMP,
        })
        ctx = PhysicalPlanner(kernel=derived_conn.kernel).context()
        join = IndexNestedLoopJoin(
            ctx, _RowSource([{"station": 1}, {"station": 3}]),
            ColumnRef(attr="station"), "summary",
            ColumnRef(attr="station"), "left", "summary",
        )
        assert len(list(Limit(join, 1).run())) == 1
        assert join.probe_fallback is None


class TestLimitOverIndexNestedLoopJoin:
    """A ``Limit`` above an INLJ stops the probing: the join yields
    after runs of 1, 2, 4, … left rows, not once per left batch."""

    @pytest.fixture()
    def join_conn(self):
        connection = repro.connect(universe=UNIVERSE)
        cur = connection.cursor()
        cur.execute("DEFINE CLASS few ( ATTRIBUTES: k = int4; )")
        cur.execute("DEFINE CLASS many ( ATTRIBUTES: k = int4; y = int4; )")
        store = connection.kernel.store
        for i in range(20):
            store.store("few", {"k": i})
        for i in range(200):
            store.store("many", {"k": i % 50, "y": i})
        cur.execute("CREATE INDEX ON many (k)")
        return connection

    @pytest.mark.parametrize("limit,probes", [(1, 1), (4, 1), (5, 3),
                                              (13, 7), (None, 20)])
    def test_probes_stop_with_the_limit(self, join_conn, limit, probes):
        """Each probe finds 4 rows; the row-at-a-time loop needed
        ceil(limit/4) probes, the doubling runs at most twice that."""
        cur = join_conn.cursor()
        query = "SELECT few.k, many.y FROM few JOIN many ON few.k = many.k"
        if limit is not None:
            query += f" LIMIT {limit}"
        assert "IndexNestedLoopJoin(" in cur.explain(query)
        counts = join_conn.kernel.store.scan_counts
        before = dict(counts)
        cur.execute(query)
        rows = cur.fetchall()
        assert len(rows) == (80 if limit is None else limit)
        assert counts["few"] - before.get("few", 0) == 1
        assert counts["many"] - before.get("many", 0) == probes


class TestBindableLimitOffset:
    def test_paginated_fetch_reuses_one_plan(self, conn):
        _load(conn, 20)
        cur = conn.cursor()
        pages = []
        for offset in (0, 5, 10, 15):
            cur.execute("SELECT station FROM reading ORDER BY oid "
                        "LIMIT ? OFFSET ?", (5, offset))
            pages.append([row["station"] for row in cur.fetchall()])
        assert sum(pages, []) == [i % 7 for i in range(20)]

    def test_named_parameters(self, conn):
        _load(conn, 10)
        cur = conn.cursor()
        cur.execute("SELECT station FROM reading ORDER BY oid "
                    "LIMIT :n OFFSET :skip", {"n": 3, "skip": 2})
        assert [row["station"] for row in cur.fetchall()] == [2, 3, 4]

    def test_limit_parameter_must_be_bound(self, conn):
        _load(conn, 5)
        cur = conn.cursor()
        with pytest.raises(BindError):
            cur.execute("SELECT station FROM reading LIMIT ?")

    @pytest.mark.parametrize("value", [-1, 2.5, "three", True, None])
    def test_limit_parameter_validated(self, conn, value):
        _load(conn, 5)
        cur = conn.cursor()
        with pytest.raises(BindError):
            cur.execute("SELECT station FROM reading LIMIT ?", (value,))

    def test_zero_limit_parameter(self, conn):
        _load(conn, 5)
        cur = conn.cursor()
        cur.execute("SELECT station FROM reading LIMIT ?", (0,))
        assert cur.fetchall() == []
