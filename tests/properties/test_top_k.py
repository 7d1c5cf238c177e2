"""``ORDER BY … LIMIT k [OFFSET m]`` against the full sort.

Under a LIMIT, ``Sort`` keeps ``top_k = k + m`` rows: each incoming
batch is cut to the rows whose primary key can still reach the first
``top_k`` (every row tied with the ``top_k``-th key stays), and only
those are ordered.  The property: the rows, and their order, are the
full stable sort's rows ``m … m+k`` — ties in input order, NULLs last
in either direction — whatever the keys, and ``Sort.held_peak`` never
exceeds ``top_k`` + the rows tied with the ``top_k``-th primary key +
one batch.

The rows are a concept over two classes, so keys can be NULL (``c2``
lacks ``b`` and ``t``) and mixed (``a`` is ``int4`` in ``c1`` and
``float8`` in ``c2``: ``1`` ties ``1.0``).  Object keys come from
``char16`` and ``abstime`` columns, NaN from ``b``.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.query.operators import Sort
from repro.query.optimizer import Optimizer
from repro.query.parser import parse
from repro.query.physical import PhysicalPlanner
from repro.temporal import AbsTime

KEYS = ("a", "b", "s", "t")
BATCH = 3

c1_rows = st.fixed_dictionaries({
    "a": st.integers(0, 2),
    "b": st.sampled_from([-1.0, 0.0, 2.5, math.nan]),
    "s": st.sampled_from(["", "x", "y"]),
    "t": st.integers(0, 3).map(AbsTime),
})
c2_rows = st.fixed_dictionaries({
    "a": st.sampled_from([0.0, 1.0, 1.5]),
    "s": st.sampled_from(["", "x", "y"]),
})


def load(c1, c2):
    conn = repro.connect()
    conn.cursor().run(
        "DEFINE CLASS c1 ( ATTRIBUTES: a = int4; b = float8; s = char16; "
        "t = abstime; ) "
        "DEFINE CLASS c2 ( ATTRIBUTES: a = float8; s = char16; ) "
        "DEFINE CONCEPT c MEMBERS c1, c2")
    store = conn.kernel.store
    for row in c1:
        store.store("c1", row)
    for row in c2:
        store.store("c2", row)
    return conn.kernel


def run(kernel, sql):
    """``((class, oid) rows, the tree's Sort)`` of *sql*, scanned in
    batches of ``BATCH`` rows."""
    node = Optimizer(kernel=kernel).plan(parse(sql)[0])
    tree = PhysicalPlanner(kernel=kernel, batch_size=BATCH).build(node)
    rows = [(row.class_name, row.oid) for row in tree.run()]
    op, sort = tree, None
    while op.children:
        sort = op if isinstance(op, Sort) else sort
        op = op.children[0]
    return rows, sort


def rank(value):
    """A primary key as the sort orders it: NaN with the largest."""
    return math.inf if value != value else value


def most_held(keys, k, descending):
    """The most rows a cut may keep of any prefix of *keys* (input
    order): those ahead of or tied with the prefix's k-th key — all of
    them while fewer than k are non-NULL, since the k-th is then NULL
    and every NULL ties it."""
    most = 0
    for end in range(1, len(keys) + 1):
        live = [rank(v) for v in keys[:end] if v is not None]
        if len(live) < k:
            most = max(most, end)
            continue
        cut = sorted(live, reverse=descending)[k - 1]
        most = max(most, sum(v >= cut if descending else v <= cut
                             for v in live))
    return most


@settings(max_examples=120, deadline=None)
@given(c1=st.lists(c1_rows, min_size=1, max_size=12),
       c2=st.lists(c2_rows, min_size=1, max_size=6),
       order=st.lists(st.tuples(st.sampled_from(KEYS), st.booleans()),
                      min_size=1, max_size=3, unique_by=lambda key: key[0]),
       pick=st.sampled_from(["1", "n-1", "n", "n+5"]),
       offset=st.sampled_from([0, 1, 3]))
def test_top_k_is_the_full_sort_cut(c1, c2, order, pick, offset):
    kernel = load(c1, c2)
    n = len(c1) + len(c2)
    limit = {"1": 1, "n-1": n - 1, "n": n, "n+5": n + 5}[pick]
    keys = ", ".join(f"{attr} DESC" if desc else attr for attr, desc in order)
    full, _ = run(kernel, f"SELECT FROM c ORDER BY {keys}")
    got, sort = run(kernel,
                    f"SELECT FROM c ORDER BY {keys} LIMIT {limit} OFFSET {offset}")
    assert got == full[offset:offset + limit]

    # Held rows: the top_k, the rows tied with the k-th primary key so
    # far, and the batch being cut.
    assert sort.top_k == limit + offset
    if limit:
        primary, descending = order[0]
        stream, _ = run(kernel, "SELECT FROM c")
        value = {(row.class_name, row.oid): row.get(primary)
                 for row in kernel.store.objects("c1")
                 + kernel.store.objects("c2")}
        most = most_held([value[row] for row in stream], sort.top_k,
                         descending)
        assert sort.held_peak <= most + BATCH
