"""An index being present or dropped must never change a statement's
answer — here over a ``float8`` key holding NaN, ±0.0 and duplicates.

A float attribute never holds NaN: the validator stores it as NULL, as
``sqlite3`` does, and ``-0.0`` as ``0.0``.  So the B-tree never compares
a NaN key (NaN's comparisons are all false, which used to misplace keys
inserted after it and break equality probes for other keys), equality
never matches a NULL, a range predicate is false on one, and ``GROUP BY``
puts every NULL in one group.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import connect

NAN = float("nan")
DDL = "DEFINE CLASS f ( ATTRIBUTES: k = float8; )"
REPRO = [1.0, NAN, 2.0, -0.0, 0.0, NAN, 1.0]
PROBES = [-1.5, -0.0, 0.0, 1, 1.0, 2.0, 3.0, 10.0, NAN, None]


def _key(value):
    """Sort key for answers holding NULLs."""
    return (value is None, 0.0 if value is None else value)


def _answers(cur):
    """Every answer the property compares, with or without the index."""
    out = []
    for probe in PROBES:
        out.append(sorted(
            (row.oid for row in cur.execute(
                "SELECT FROM f WHERE k = ?", [probe]).fetchall())))
        out.append(sorted(
            (row["k"] for row in cur.execute(
                "SELECT k FROM f WHERE k = ?", [probe]).fetchall()),
            key=_key))
    for low, high in [(-1.0, 1.0), (0.0, 0.0), (-0.0, 2.0), (1.0, 50.0)]:
        out.append(sorted(row.oid for row in cur.execute(
            "SELECT FROM f WHERE k >= ? AND k <= ?", [low, high]).fetchall()))
        out.append(sorted(row.oid for row in cur.execute(
            "SELECT FROM f WHERE k > ?", [low]).fetchall()))
        out.append(sorted((row["k"] for row in cur.execute(
            "SELECT k FROM f WHERE k < ?", [high]).fetchall()), key=_key))
    out.append(sorted(((row["k"], row["count(*)"]) for row in cur.execute(
        "SELECT k, count(*) FROM f GROUP BY k").fetchall()),
        key=lambda pair: _key(pair[0])))
    for order in ("k", "k DESC"):
        out.append([row["k"] for row in cur.execute(
            f"SELECT FROM f ORDER BY {order}").fetchall()])
        out.append([row["k"] for row in cur.execute(
            f"SELECT FROM f ORDER BY {order} LIMIT 3").fetchall()])
    return out


def _with_and_without_index(values):
    conn = connect()
    cur = conn.cursor()
    cur.execute(DDL)
    for value in values:
        conn.kernel.store.store("f", {"k": value})
    dropped = _answers(cur)
    cur.execute("CREATE INDEX f_k ON f (k)")
    indexed = _answers(cur)
    return cur, indexed, dropped


def test_nan_is_stored_as_null_and_minus_zero_as_zero():
    conn = connect()
    conn.cursor().execute(DDL)
    stored = [conn.kernel.store.store("f", {"k": v}).values["k"]
              for v in (NAN, -0.0)]
    assert stored[0] is None
    assert stored[1] == 0.0 and math.copysign(1.0, stored[1]) == 1.0


def test_the_repro_answers_alike_with_the_index():
    cur, indexed, dropped = _with_and_without_index(REPRO)
    assert "index-eq(k=2.0)" in cur.explain("SELECT FROM f WHERE k = 2.0")
    counts = [len(cur.execute(f"SELECT FROM f WHERE k = {lit}").fetchall())
              for lit in ("2.0", "0.0", "1.0")]
    assert counts == [1, 2, 2]
    groups = cur.execute("SELECT k, count(*) FROM f GROUP BY k").fetchall()
    assert [g["count(*)"] for g in groups if g["k"] is None] == [2]
    assert indexed == dropped


@settings(max_examples=40, deadline=None)
@given(data=st.data())
@example(data=None)
def test_index_present_or_dropped_answers_alike(data):
    if data is None:  # the repro's insert order, among filler keys
        values = REPRO + [10.0 + i for i in range(30)]
    else:
        chosen = data.draw(st.lists(
            st.sampled_from([NAN, -0.0, 0.0, 1.0, 2.0, -1.5]), max_size=30))
        values = data.draw(st.permutations(
            chosen + [10.0 + i for i in range(30)]))
    _, indexed, dropped = _with_and_without_index(values)
    assert indexed == dropped
