"""Property test: the paper's §2.1.5 retrieval contract, on every surface.

"1. direct data retrieval ... 2. data interpolation ... 3. data are
computed, based on a derivation relationship.  Steps 2 and 3 are
prioritized according to the user's needs" — and the fallbacks are for
*missing data*, never for an unsatisfied predicate.

Hypothesis generates a small world (is a ``summary`` stored at the
query extents? do stored snapshots bracket the timestamp at the region,
or only elsewhere? is there a ``reading`` to derive from?), a query
(with or without extent predicates; no attribute predicate, or a
satisfied / unsatisfied one on the indexed ``station`` or the unindexed
``code``) and one of the two ``fallback_order`` permutations.  A
plain-Python reference (:func:`expect`, computed from the generated
flags, not by the engine) says which step must answer and with which
rows; then

* ``kernel.planner.retrieve``, ``SELECT`` through a cursor (class
  source and concept source) and ``EXPLAIN`` agree with it — and so
  with each other — on the path and the oid multiset;
* a fallback fires (a task is recorded) only when no stored object
  covers the extents;
* repeating the statement is ``path=retrieve`` with the task log
  unchanged (derive-once);
* a stored answer costs exactly one scan per leg, plus one existence
  probe only after an empty attribute-index probe; an index nested-loop
  join costs one scan per probe plus that one existence probe.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.adt import Image
from repro.errors import UnderivableError
from repro.query.ast import ColumnRef
from repro.query.batch import Batch
from repro.query.operators import IndexNestedLoopJoin, PhysicalOperator
from repro.query.physical import PhysicalPlanner
from repro.spatial import Box
from repro.temporal import AbsTime

UNIVERSE = Box(0.0, 0.0, 40.0, 10.0)
ATTRS = ("ATTRIBUTES: station = int4; code = int4; data = image; "
         "SPATIAL EXTENT: cell = box; TEMPORAL EXTENT: timestamp = abstime;")
DDL = f"""
DEFINE CLASS reading ( {ATTRS} );
DEFINE CLASS survey ( {ATTRS} );
DEFINE CLASS summary ( {ATTRS} DERIVED BY: summarize );
DEFINE PROCESS summarize
OUTPUT summary
ARGUMENT ( reading src )
TEMPLATE {{
  MAPPINGS:
    summary.station = src.station;
    summary.code = src.code;
    summary.data = img_threshold(src.data, 0.5);
    summary.cell = src.cell;
    summary.timestamp = src.timestamp;
}};
DEFINE CONCEPT observations MEMBERS summary, survey;
CREATE INDEX ON summary (station)
"""

DAY = 10           # the query timestamp; brackets sit at days 0 and 20
REGION = Box(0.0, 0.0, 10.0, 10.0)      # cell 0
ORDERS = [("interpolate", "derive"), ("derive", "interpolate")]
TASK_OF = {"interpolate": "interpolate-temporal", "derive": "summarize"}

#: ``(attr, op, value)``; the cell-0 rows have station 0 and code 7.
PREDICATES = [
    None,
    ("station", "=", 0), ("station", "=", 99),      # indexed
    ("station", ">=", 0), ("station", ">=", 500),
    ("code", "=", 7), ("code", "=", 99),            # unindexed
    ("code", "<", 50), ("code", ">", 50),
]


def worlds(predicates=PREDICATES):
    return st.fixed_dictionaries({
        "stored": st.booleans(),        # a summary at the query extents
        "brackets": st.booleans(),      # summaries at days 0/20 in cell 0
        "far_brackets": st.booleans(),  # ... in cell 2 only: must not count
        "reading": st.booleans(),       # a reading to derive from
        "extents": st.booleans(),       # does the query carry extents at all
        "predicate": st.sampled_from(predicates),
        "order": st.sampled_from(ORDERS),
    })


def _holds(row: dict, predicate) -> bool:
    if predicate is None:
        return True
    attr, op, value = predicate
    return {"=": row[attr] == value, ">=": row[attr] >= value,
            "<": row[attr] < value, ">": row[attr] > value}[op]


def build(world: dict):
    """A fresh kernel holding the generated world; ``(connection, the
    stored rows per class as plain dicts with their oids)``."""
    conn = repro.connect(universe=UNIVERSE)
    conn.cursor().execute(DDL)
    conn.kernel.planner.fallback_order = world["order"]
    rows: dict[str, list[dict]] = {"summary": [], "survey": [], "reading": []}

    def put(cls: str, cell: int, day: int, station: int, code: int) -> None:
        obj = conn.kernel.store.store(cls, {
            "station": station, "code": code,
            "data": Image.from_array(np.full((2, 2), 0.9), "float4"),
            "cell": Box(10 * cell + 1, 1, 10 * cell + 9, 9),
            "timestamp": AbsTime(days=day),
        })
        rows[cls].append({"oid": obj.oid, "cell": cell, "day": day,
                          "station": station, "code": code})

    for i in range(12):     # never at the query extents, nor bracketing
        put("summary", 3, 50, 100 + i, i % 3)
    if world["stored"]:
        put("summary", 0, DAY, 0, 7)
    for flag, cell in (("brackets", 0), ("far_brackets", 2)):
        if world[flag]:
            put("summary", cell, 0, cell, 7)
            put("summary", cell, 20, cell, 7)
    if world["reading"]:
        put("reading", 0, DAY, 0, 7)
    put("survey", 0, DAY, 0, 7)
    return conn, rows


def expect(world: dict, stored: list[dict]) -> tuple[str, list[dict]]:
    """The reference: ``(path, rows)`` the contract demands of a
    retrieval of the class whose *stored* rows these are."""
    predicate = world["predicate"]
    covering = [row for row in stored
                if not world["extents"]
                or (row["cell"] == 0 and row["day"] == DAY)]
    if covering:
        return "retrieve", [r for r in covering if _holds(r, predicate)]
    answers = {"interpolate": world["brackets"], "derive": world["reading"]}
    for step in world["order"]:
        if answers[step]:
            made = {"oid": None, "cell": 0, "day": DAY,
                    "station": 0, "code": 7}
            return step, [made] if _holds(made, predicate) else []
    return "unsatisfiable", []


def where(world: dict) -> str:
    parts = []
    if world["extents"]:
        parts += ["cell OVERLAPS (0, 0, 10, 10)",
                  f"timestamp = '{AbsTime(days=DAY)}'"]
    if world["predicate"] is not None:
        parts.append("{} {} {}".format(*world["predicate"]))
    return " WHERE " + " AND ".join(parts) if parts else ""


def planner_args(world: dict) -> dict:
    args: dict = {}
    if world["extents"]:
        args.update(spatial=REGION, temporal=AbsTime(days=DAY))
    if world["predicate"] is not None:
        attr, op, value = world["predicate"]
        if op == "=":
            args["filters"] = ((attr, value),)
        else:
            args["ranges"] = ((attr, op, value),)
    return args


def values(objects) -> list[tuple]:
    return sorted((o["station"], o["code"], o["timestamp"].days)
                  for o in objects)


def ref_values(rows: list[dict]) -> list[tuple]:
    return sorted((r["station"], r["code"], r["day"]) for r in rows)


def scans(conn) -> int:
    return sum(conn.kernel.store.scan_counts.values())


def attribute_probe(access: str) -> bool:
    """Whether an EXPLAIN access dump is a B-tree probe (which prunes by
    the predicate before extents are seen)."""
    return access.startswith(("index-eq", "index-range", "index-only"))


@settings(max_examples=150, deadline=None)
@given(world=worlds(), source=st.sampled_from(["summary", "observations"]))
def test_every_surface_agrees_with_the_contract(world, source):
    conn, rows = build(world)
    path, want = expect(world, rows["summary"])
    legs = {"summary": (path, want)}
    if source == "observations":
        legs["survey"] = expect(world, rows["survey"])
    want_all = [row for _, leg_rows in legs.values() for row in leg_rows]
    tasks = conn.kernel.derivations.tasks
    statement = f"SELECT FROM {source}{where(world)}"
    cur = conn.cursor()

    # EXPLAIN: the same path per leg, one text, and no side effects.
    [plan] = cur.execute("EXPLAIN " + statement).results
    assert plan.details["paths"] == {cls: p for cls, (p, _) in legs.items()}
    assert plan.message == cur.explain(statement)
    assert len(tasks) == 0

    if path == "unsatisfiable":
        with pytest.raises(UnderivableError):
            cur.run(statement)
        with pytest.raises(UnderivableError):
            build(world)[0].kernel.planner.retrieve(
                "summary", **planner_args(world))
        return

    # SELECT through a cursor.
    scans_before = scans(conn)
    [result] = cur.run(statement)
    assert values(result.objects) == ref_values(want_all)
    stored_oids = sorted(r["oid"] for r in want_all if r["oid"] is not None)
    assert sorted(o.oid for o in result.objects
                  if o.oid in stored_oids) == stored_oids
    if path == "retrieve":
        # A fallback fires only for missing data: none here, whatever
        # the predicate rejected — and the scans are exactly one per
        # leg, plus the existence probe an empty attribute-index probe
        # needs to tell "no match" from "nothing stored".
        assert result.path == "retrieve"
        assert len(tasks) == 0
        assert scans(conn) - scans_before == sum(
            1 + (not leg_rows and world["predicate"] is not None
                 and attribute_probe(plan.details["access"][cls]))
            for cls, (_, leg_rows) in legs.items())
    else:
        assert [task.process_name for task in tasks] == [TASK_OF[path]]
        if source == "summary":
            assert result.path == path

    # Derive-once: the same statement again is a stored retrieval.
    [again] = cur.run(statement)
    assert again.path == "retrieve"
    assert sorted(o.oid for o in again.objects) \
        == sorted(o.oid for o in result.objects)
    assert len(tasks) == (path != "retrieve")

    # The object API, on an identical fresh world, took the same path to
    # the same objects.
    if source == "summary":
        twin, _ = build(world)
        direct = twin.kernel.planner.retrieve("summary",
                                              **planner_args(world))
        assert direct.path == path
        assert sorted(o.oid for o in direct.objects) \
            == sorted(o.oid for o in result.objects)
        assert [t.process_name for t in direct.tasks] \
            == [t.process_name for t in tasks]


class _Keys(PhysicalOperator):
    """A fixed one-batch left side for driving the join directly (the
    GaeaQL JOIN grammar puts extent predicates on the left source)."""

    def __init__(self, keys):
        self._rows = [{"station": key} for key in keys]
        self.estimated_rows = self.estimated_cost = float(len(keys))

    def label(self) -> str:
        return f"Keys({len(self._rows)})"

    def run_batches(self):
        self.rows_out += len(self._rows)
        yield Batch.from_dict_rows(("station",), self._rows)


@settings(max_examples=60, deadline=None)
@given(world=worlds([p for p in PREDICATES if p is None or p[0] == "code"]))
def test_probe_side_of_an_index_join_keeps_the_contract(world):
    conn, rows = build(world)
    path, want = expect(world, rows["summary"])
    # The join probes station 0 (what cell 0 holds) and 99 (nothing).
    want = [row for row in want if row["station"] == 0]
    covered = path == "retrieve"
    tasks = conn.kernel.derivations.tasks
    args = planner_args(world)

    def join():
        return IndexNestedLoopJoin(
            PhysicalPlanner(kernel=conn.kernel).context(), _Keys([0, 99]),
            ColumnRef(attr="station"), "summary", ColumnRef(attr="station"),
            "site", "summary", **args)

    first = join()
    scans_before = scans(conn)
    got = list(first.run())
    assert sorted((r["summary.station"], r["summary.code"],
                   r["summary.timestamp"].days) for r in got) \
        == ref_values(want)
    # Station 99 always misses; the miss is "missing data" only when
    # nothing stored covers the extents (and then an unanswerable
    # fallback is swallowed: the join just has no such rows).
    fired = path in TASK_OF
    assert first.probe_fallback == (path if fired else None)
    assert [t.process_name for t in tasks] \
        == ([TASK_OF[path]] if fired else [])
    if covered:
        # one scan per probe + the one existence probe of the first miss
        assert scans(conn) - scans_before == 3

    # Derive-once on the probe side too.
    second = join()
    again = list(second.run())
    assert len(again) == len(got)
    assert second.probe_fallback is None
    assert len(tasks) == fired


@pytest.mark.parametrize("order", ORDERS)
def test_explain_names_the_path_execution_takes(order):
    """Regression: EXPLAIN's dry run asked only whether *any* two
    timestamps bracket the query, so with snapshots at days 0 and 20 in
    another cell it announced ``interpolate`` for a statement that then
    derived (interpolation needs the brackets *at the region*)."""
    world = {"stored": False, "brackets": False, "far_brackets": True,
             "reading": True, "extents": True, "predicate": None,
             "order": order}
    conn, _ = build(world)
    cur = conn.cursor()
    statement = "SELECT FROM summary" + where(world)
    [plan] = cur.execute("EXPLAIN " + statement).results
    assert "retrieve summary: path=derive" in cur.explain(statement)
    [result] = cur.run(statement)
    assert plan.details["paths"] == {"summary": result.path} \
        == {"summary": "derive"}


def test_an_empty_index_probe_costs_one_existence_probe():
    """The attribute-index regime of the scan-count property, pinned:
    the cost model does pick the B-tree here."""
    world = {"stored": True, "brackets": False, "far_brackets": False,
             "reading": True, "extents": True,
             "predicate": ("station", "=", 99), "order": ORDERS[0]}
    conn, _ = build(world)
    cur = conn.cursor()
    statement = "SELECT FROM summary" + where(world)
    assert "access=index-eq(station=99)" in cur.explain(statement)
    before = scans(conn)
    [result] = cur.run(statement)
    assert (result.path, result.objects) == ("retrieve", ())
    assert scans(conn) - before == 2
    assert len(conn.kernel.derivations.tasks) == 0
