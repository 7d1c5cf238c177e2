"""The two join operators against a plain dict-of-lists reference join.

``HashJoin`` and ``IndexNestedLoopJoin`` pair rows through one kernel,
:class:`repro.query.batch.JoinKeys`: the build side's key column sorted
once, each probe column matched against it by array searches.  The
reference below is the row-by-row join that kernel replaced — a dict
from key to the list of build rows holding it, probed row by row — and
the properties ask for the *same rows in the same order*: probe order
first, then build order within equal keys (Chirkova, PAPERS.md: two
forms of one query must answer alike).

Keys compare with Python equality: ``1`` meets ``1.0``, ``-0.0`` meets
``0.0``, and NULL and NaN meet nothing.  Stored columns are never NULL
(the catalog rejects None), so NULL keys come from dict-row sides and
from concept members that lack the key attribute.  NaN keys stay off the
B-tree-indexed column: a stored NaN breaks that tree's equality probes
for every other key, a storage defect outside the join.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.query.ast import ColumnRef
from repro.query.batch import Batch, JoinKeys
from repro.query.operators import (
    ConceptUnion,
    HashJoin,
    HeapScan,
    IndexNestedLoopJoin,
    Limit,
    PhysicalOperator,
)
from repro.query.physical import PhysicalPlanner
from repro.temporal import AbsTime

NAN = math.nan

# -- the reference ---------------------------------------------------------------


def reference_join(probe_keys, build_keys):
    """``(probe row, build row)`` pairs of a dict-of-lists hash join."""
    table = {}
    for j, key in enumerate(build_keys):
        if key is not None and key == key:
            table.setdefault(key, []).append(j)
    return [(i, j) for i, key in enumerate(probe_keys)
            if key is not None and key == key
            for j in table.get(key, ())]


def drain(op):
    """``(id, key)`` per row of *op*, in its order (objects or dicts)."""
    return [(row.get("id"), row.get("k")) for row in op.run()]


def ids(rows, pairs):
    return [(rows[0][i][0], rows[1][j][0]) for i, j in pairs]


def tagged(keys):
    """Keys with NaN spelled out, so lists of them compare by value."""
    return ["NaN" if key != key else key for key in keys]


# -- generated worlds ------------------------------------------------------------

POOLS = {
    "int4": st.integers(-2, 3),
    "float8": st.sampled_from([-1.5, -0.0, 0.0, 1.0, 2.0, 2.5]),
    "char16": st.sampled_from(["", "a", "b", "ab"]),
    "abstime": st.integers(0, 3).map(AbsTime),
}
#: Extra left keys a dict-row side can hold beside the right's pool:
#: NULL always, the other numeric kind for ``1`` vs ``1.0``, and NaN.
EXTRAS = {
    "int4": st.sampled_from([None, 1.0, 2.0, 0.5, NAN]),
    "float8": st.sampled_from([None, 1, 2, 0, NAN]),
    "char16": st.none(),
    "abstime": st.none(),
}


@st.composite
def worlds(draw):
    right_type = draw(st.sampled_from(sorted(POOLS)))
    numeric = right_type in ("int4", "float8")
    left_type = draw(st.sampled_from(["int4", "float8"])) if numeric \
        else right_type
    left_stored = draw(st.booleans())
    left_pool = POOLS[left_type]
    if left_stored:
        left_pool = left_pool | st.just(NAN) if left_type == "float8" \
            else left_pool
    else:
        left_pool = left_pool | EXTRAS[right_type]
    return {
        "right_type": right_type,
        "left_type": left_type,
        "left_stored": left_stored,
        "right": draw(st.lists(POOLS[right_type], max_size=8)),
        "left": draw(st.lists(left_pool, max_size=8)),
        "batch_size": draw(st.sampled_from([1, 2, 3, 64])),
    }


class Rows(PhysicalOperator):
    """A dict-row side, *size* rows a batch (object columns)."""

    def __init__(self, keys, size, estimated_rows=None):
        self.rows = [{"id": 100 + i, "k": key} for i, key in enumerate(keys)]
        self.size = size
        self.estimated_rows = self.estimated_cost = float(
            len(keys) if estimated_rows is None else estimated_rows)

    def label(self) -> str:
        return f"Rows({len(self.rows)})"

    def run_batches(self):
        for start in range(0, len(self.rows), self.size):
            chunk = self.rows[start:start + self.size]
            self.rows_out += len(chunk)
            yield Batch.from_dict_rows(("id", "k"), chunk)


def load(world):
    """A fresh kernel: ``r`` (indexed on ``k``), ``l``, and the concept
    ``rc`` over ``r`` and ``q`` — ``q`` lacks ``k`` or holds it as the
    other numeric kind, so the union's key column has NULLs or mixed
    dtypes."""
    conn = repro.connect()
    cur = conn.cursor()
    right_type, left_type = world["right_type"], world["left_type"]
    cur.execute(f"DEFINE CLASS r ( ATTRIBUTES: id = int4; k = {right_type}; )")
    cur.execute("CREATE INDEX ON r (k)")
    cur.execute(f"DEFINE CLASS l ( ATTRIBUTES: id = int4; k = {left_type}; )")
    q_key = "k = float8; " if right_type == "int4" else ""
    cur.execute(f"DEFINE CLASS q ( ATTRIBUTES: id = int4; {q_key})")
    cur.execute("DEFINE CONCEPT rc MEMBERS r, q")
    store = conn.kernel.store
    for j, key in enumerate(world["right"]):
        store.store("r", {"id": j, "k": key})
        values = {"id": 50 + j, "k": float(j % 3)} if q_key else {"id": 50 + j}
        store.store("q", values)
    if world["left_stored"]:
        for i, key in enumerate(world["left"]):
            store.store("l", {"id": 100 + i, "k": key})
    return conn, PhysicalPlanner(kernel=conn.kernel,
                                 batch_size=world["batch_size"])


def scan(planner, class_name):
    """The raw stored scan of *class_name* (an empty one is no §2.1.5
    miss here)."""
    kernel = planner.kernel
    return HeapScan(planner.context(), class_name,
                    kernel.store.choose_path(class_name),
                    batch_size=planner.batch_size)


def left_side(planner, world, estimated_rows=None):
    if world["left_stored"]:
        return scan(planner, "l")
    return Rows(world["left"], world["batch_size"], estimated_rows)


def probe_keys(store):
    """The key of every scan of ``r`` that probed ``k``, in order."""
    return tagged([filters[-1][1] for name, _, _, filters, _ in store.scan_log
                   if name == "r" and filters and filters[-1][0] == "k"])


# -- properties ------------------------------------------------------------------


#: Duplicate keys inside one probe run (rows 1–2, then 3–6), a NULL, a
#: NaN and ``1.0`` against an ``int4`` column.
CROWDED = {"right_type": "int4", "left_type": "int4", "left_stored": False,
           "right": [1, 2, 1, 3], "left": [0, 1, 1, NAN, 2, 1.0, None, 2],
           "batch_size": 64}


@settings(max_examples=80, deadline=None)
@given(world=worlds())
@example(world=CROWDED)
@example(world=dict(CROWDED, right=[1, 2, 1, 3, 1, 3, 0, 2, 2, 1]))
def test_hash_join_is_the_reference_join(world):
    conn, planner = load(world)
    lrows = drain(left_side(planner, world))
    rrows = drain(scan(planner, "r"))
    join = HashJoin(left_side(planner, world), scan(planner, "r"),
                    ColumnRef("k"), ColumnRef("k"), "l", "r")
    got = [(row["l.id"], row["r.id"]) for row in join.run()]
    lkeys, rkeys = [k for _, k in lrows], [k for _, k in rrows]
    if join.left.estimated_rows < join.right.estimated_rows:  # builds left
        pairs = [(i, j) for j, i in reference_join(rkeys, lkeys)]
    else:
        pairs = reference_join(lkeys, rkeys)
    assert got == ids((lrows, rrows), pairs)
    assert join.rows_out == len(got)


@settings(max_examples=60, deadline=None)
@given(world=worlds())
def test_a_concept_union_build_side_is_the_reference_join(world):
    conn, planner = load(world)

    def union():
        return ConceptUnion("rc", (scan(planner, "r"), scan(planner, "q")))

    lrows = drain(left_side(planner, world))
    rrows = drain(union())
    # A huge left estimate makes the union the build side.
    join = HashJoin(left_side(planner, world, estimated_rows=1e9), union(),
                    ColumnRef("k"), ColumnRef("k"), "l", "rc")
    if world["left_stored"]:
        join.left.estimated_rows = 1e9
    got = [(row["l.id"], row["rc.id"]) for row in join.run()]
    pairs = reference_join([k for _, k in lrows], [k for _, k in rrows])
    assert got == ids((lrows, rrows), pairs)


@settings(max_examples=80, deadline=None)
@given(world=worlds(), limit=st.none() | st.integers(0, 6))
@example(world=CROWDED, limit=None)
@example(world=CROWDED, limit=3)
def test_index_nested_loop_join_is_the_reference_join(world, limit):
    conn, planner = load(world)
    store = conn.kernel.store
    lrows = drain(left_side(planner, world))
    rrows = drain(scan(planner, "r"))
    pairs = reference_join([k for _, k in lrows], [k for _, k in rrows])
    want = ids((lrows, rrows), pairs)
    lkeys = tagged([k for _, k in lrows if k is not None])

    store.scan_log = []
    join = IndexNestedLoopJoin(planner.context(), left_side(planner, world),
                               ColumnRef("k"), "r", ColumnRef("k"), "l", "r")
    root = join if limit is None else Limit(join, limit)
    got = [(row["l.id"], row["r.id"]) for row in root.run()]
    probes = probe_keys(store)
    if limit is None:
        assert got == want
        # One scan event per non-NULL left row, in left order.
        assert probes == lkeys
    else:
        assert got == want[:limit]
        assert probes == lkeys[:len(probes)]


@settings(max_examples=60, deadline=None)
@given(world=worlds(), picks=st.lists(
    st.sampled_from(["r", "r-float", "q", "missing", "null", "nan"]),
    max_size=8))
def test_an_oid_join_is_the_reference_join(world, picks):
    """Left keys naming ``r`` objects (as int or float), objects of
    another class, no object at all, NULL and NaN."""
    conn, planner = load(world)
    store = conn.kernel.store
    r_oids = [obj.oid for obj in store.objects("r")]
    q_oids = [obj.oid for obj in store.objects("q")]
    keys = []
    for n, pick in enumerate(picks):
        if pick.startswith("r") and r_oids:
            oid = r_oids[n % len(r_oids)]
            keys.append(float(oid) if pick == "r-float" else oid)
        elif pick == "q" and q_oids:
            keys.append(q_oids[n % len(q_oids)])
        else:
            keys.append({"null": None, "nan": NAN}.get(pick, 10**6))
    rows = [(row.oid, row.get("id")) for row in scan(planner, "r").run()]
    pairs = reference_join(keys, [oid for oid, _ in rows])
    want = [(100 + i, rows[j][1]) for i, j in pairs]

    join = IndexNestedLoopJoin(planner.context(),
                               Rows(keys, world["batch_size"]),
                               ColumnRef("k"), "r", ColumnRef("oid"),
                               "l", "r")
    assert [(row["l.id"], row["r.id"]) for row in join.run()] == want


def test_nan_never_meets_nan():
    """Not even the very same NaN object, which a dict would match."""
    for values in (np.array([NAN, 1.0, NAN]),
                   np.array([NAN, 1, "x", NAN], dtype=object)):
        null = np.zeros(values.shape[0], dtype=bool)
        probe, build = JoinKeys(values, null).pairs(values, null)
        assert [(int(i), int(j)) for i, j in zip(probe, build)] \
            == reference_join(values.tolist(), values.tolist())
