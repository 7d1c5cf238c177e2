"""An index being present or dropped must never change a statement's
answer — here for predicates whose literal the index's key domain cannot
order (a string compared with an ``int4`` attribute).

Without the index such a statement is answered by the residual predicate
re-check alone: equality matches nothing, a range comparison raises a
typed :class:`DerivationError`.  With the index, the probe used to leak
the B-tree's bare ``TypeError`` (an untyped ``InterfaceError`` over the
wire).
"""

import pytest

from repro import connect
from repro.client import remote_connect
from repro.errors import DerivationError
from repro.server import GaeaServer

DDL = "DEFINE CLASS b ( ATTRIBUTES: k = int4; name = char16; )"

#: (statement tail, bind parameters) — literal and ``?``-bound forms,
#: whole objects and the covering (index-only) projection.
STATEMENTS = [
    ("FROM b WHERE k = 't1'", ()),
    ("FROM b WHERE k = ?", ("t1",)),
    ("k FROM b WHERE k = 't1'", ()),
    ("FROM b WHERE k >= 't1'", ()),
    ("FROM b WHERE k >= ?", ("t1",)),
    ("k FROM b WHERE k >= 't1'", ()),
    ("FROM b WHERE k >= 't1' ORDER BY k LIMIT 3", ()),
    # the equality rejects every row before the range is ever compared
    ("FROM b WHERE name = 'nobody' AND k >= 't1'", ()),
]


def _outcome(call):
    """What a client observes: the value, or the typed error's name."""
    try:
        return call()
    except DerivationError as exc:
        return type(exc).__name__


def _observe(conn, tail, params):
    """One statement three ways: rows, ``Cursor.explain`` and EXPLAIN.
    Plan dumps are reduced to whether they raised — their text names
    the access path, which legitimately differs with the index."""
    select = f"SELECT {tail}"

    def rows():
        return [row["k"] for row in
                conn.cursor().execute(select, params).fetchall()]

    def explain():
        conn.cursor().explain(select, params)
        return "explained"

    def explain_statement():
        conn.cursor().execute(f"EXPLAIN {select}", params)
        return "explained"

    return [_outcome(rows), _outcome(explain), _outcome(explain_statement)]


def _with_and_without_index(conn, store):
    conn.cursor().execute(DDL)
    for i in range(300):  # enough keys for a multi-level B-tree
        store("b", {"k": i, "name": f"n{i}"})
    conn.cursor().execute("CREATE INDEX b_k ON b (k)")
    indexed = [_observe(conn, *stmt) for stmt in STATEMENTS]
    plan = conn.cursor().explain("SELECT FROM b WHERE k = 7")
    assert "index-eq(k=7)" in plan  # the index really is in play
    conn.cursor().execute("DROP INDEX b_k")
    dropped = [_observe(conn, *stmt) for stmt in STATEMENTS]
    return indexed, dropped


def _check(indexed, dropped):
    assert indexed == dropped
    by_tail = dict(zip((tail for tail, _ in STATEMENTS), indexed))
    assert by_tail["FROM b WHERE k = 't1'"] == [[], "explained", "explained"]
    assert by_tail["FROM b WHERE k >= 't1'"] == ["DerivationError"] * 3
    assert by_tail["FROM b WHERE name = 'nobody' AND k >= 't1'"][0] == []


def test_incomparable_literal_local():
    conn = connect()
    _check(*_with_and_without_index(conn, conn.kernel.store.store))


def test_incomparable_literal_over_the_wire():
    with GaeaServer() as server:
        conn = remote_connect(server.host, server.port)
        try:
            _check(*_with_and_without_index(conn, conn.store))
        finally:
            conn.close()


def test_incomparable_join_key_probes_nothing():
    """An index nested-loop join probing an ``int4`` B-tree with string
    keys finds no partner rows, exactly like the hash join would."""
    conn = connect()
    conn.cursor().execute(DDL)
    conn.cursor().execute(
        "DEFINE CLASS a ( ATTRIBUTES: name = char16; )")
    store = conn.kernel.store
    for i in range(300):
        store.store("b", {"k": i, "name": f"n{i}"})
    store.store("a", {"name": "n7"})
    conn.cursor().execute("CREATE INDEX ON b (k)")
    cur = conn.cursor()
    join = "SELECT FROM a JOIN b ON a.name = b.k"
    assert "IndexNestedLoopJoin" in cur.explain(join)
    assert cur.execute(join).fetchall() == []
