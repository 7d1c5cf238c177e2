"""Property-based differential tests: the engine ≡ a plain-Python reference.

Hypothesis generates small relations and arbitrary query shapes over
them — equality and range predicates, multi-key ORDER BY with mixed
directions, LIMIT/OFFSET, grouped and scalar aggregates, two-source
equi-joins, mixed-schema concept unions — and runs each query through
``repro.connect()`` cursors.  The expected rows are *not* produced by
the engine: a few dozen lines of list-and-dict Python below compute them
from the generated rows (filter → group/aggregate in first-seen order →
stable multi-key sort with NULLs last in both directions → offset/limit
→ projection), so a bug shared by every engine code path still shows.

Comparison follows the combined bag/sequence rule (Chirkova, PAPERS.md):
result *multisets* must be equal when the statement has no ORDER BY, and
result *sequences* must be equal when it has one — including ties, which
the engine's stable sort keeps in scan (insertion) order.

Notes on the generated data:

* stored rows are always fully typed (the catalog rejects None), so
  NULLs enter through *missing attributes*: concept members with
  differing schemas, and aggregates over empty input;
* float aggregates stay exactly equal because the generated values are
  small multiples of 0.25 — exactly representable, so summation order
  cannot introduce drift.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.classes import SciObject
from repro.figures import AFRICA

# -- the reference: plain Python over the generated rows ----------------------


def ref_filter(rows, equals=(), at_least=()):
    """Conjunction of ``attr = value`` and ``attr >= bound`` predicates."""
    return [
        row for row in rows
        if all(row[attr] == value for attr, value in equals)
        and all(row[attr] >= bound for attr, bound in at_least)
    ]


def ref_sort(rows, keys):
    """Stable multi-key sort, NULLs last whatever the direction.

    One stable pass per key, least significant first; ``sorted`` keeps
    equal keys in input order with ``reverse`` set too.
    """
    for attr, descending in reversed(list(keys)):
        present = [row for row in rows if row[attr] is not None]
        missing = [row for row in rows if row[attr] is None]
        rows = sorted(present, key=lambda row: row[attr],
                      reverse=descending) + missing
    return list(rows)


def ref_window(rows, limit=None, offset=0):
    rows = rows[offset:]
    return rows if limit is None else rows[:limit]


def ref_project(rows, attrs):
    return [{attr: row[attr] for attr in attrs} for row in rows]


def _aggregate(func, values):
    """One SQL aggregate over *values* (``None`` entries are NULLs)."""
    present = [value for value in values if value is not None]
    if func == "count":
        return len(present)
    if not present:
        return None
    if func == "sum":
        return sum(present)
    if func == "avg":
        return sum(present) / len(present)
    return min(present) if func == "min" else max(present)


def ref_aggregate(rows, group_attr, aggregates):
    """Group by *group_attr* (``None``: one global group, present even
    over no rows) and compute ``aggregates`` = [(alias, func, arg)];
    ``arg`` None is ``count(*)``.  Groups come out in first-seen order.
    """
    groups: dict = {} if group_attr is not None else {None: []}
    for row in rows:
        key = row[group_attr] if group_attr is not None else None
        groups.setdefault(key, []).append(row)
    out = []
    for key, members in groups.items():
        result = {group_attr: key} if group_attr is not None else {}
        for alias, func, arg in aggregates:
            if arg is None:
                result[alias] = len(members)
            else:
                result[alias] = _aggregate(
                    func, [row[arg] for row in members]
                )
        out.append(result)
    return out


def ref_join(left, right, left_key, right_key):
    """Nested-loop equi-join; a NULL key matches nothing."""
    return [
        (l_row, r_row)
        for l_row in left for r_row in right
        if l_row.get(left_key) is not None
        and l_row.get(left_key) == r_row.get(right_key)
    ]


# -- comparison ----------------------------------------------------------------


def _canon(row):
    """A hashable, type-exact form of one result row.

    Dict rows keep their column order (it is part of the projection
    contract); objects compare by class and attribute set, so a row
    that gained or lost an attribute differs.  Value types are part of
    the form: an int that came back as a float is a different row.
    """
    if isinstance(row, SciObject):
        return (row.class_name,) + tuple(
            (name, type(value).__name__, value)
            for name, value in sorted(row.values.items())
        )
    assert isinstance(row, dict), f"unexpected row shape {type(row).__name__}"
    return tuple((name, type(value).__name__, value)
                 for name, value in row.items())


def assert_same_sequence(got, expected, query):
    assert [_canon(r) for r in got] == [_canon(r) for r in expected], query


def assert_same_multiset(got, expected, query):
    assert Counter(map(_canon, got)) == Counter(map(_canon, expected)), query


def assert_window_of(got, candidates, size, query):
    """LIMIT/OFFSET without ORDER BY: *which* rows is unspecified — the
    result must be *size* rows drawn from the candidate multiset."""
    assert len(got) == size, query
    assert not Counter(map(_canon, got)) - Counter(map(_canon, candidates)), \
        query


# -- fixtures ------------------------------------------------------------------

DDL = """
DEFINE CLASS obs (
  ATTRIBUTES: k = int4; v = float8; tag = char16;
)
"""

quarters = st.integers(min_value=-20, max_value=20).map(lambda n: n * 0.25)

rows_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),
        quarters,
        st.sampled_from(["a", "b", "c"]),
    ),
    min_size=1, max_size=30,
)

order_strategy = st.lists(
    st.tuples(st.sampled_from(["k", "v", "tag"]), st.booleans()),
    min_size=0, max_size=3, unique_by=lambda kd: kd[0],
)


def _connect(ddl, **relations):
    """A fresh connection with *ddl* run and each relation's rows stored
    in order (so insertion order = oid order = scan order)."""
    conn = repro.connect(universe=AFRICA)
    conn.cursor().execute(ddl)
    for class_name, rows in relations.items():
        for row in rows:
            conn.kernel.store.store(class_name, row)
    return conn


def _obs(rows):
    """Generated tuples as reference rows; ``oid`` is the insertion
    rank (the store hands out increasing oids)."""
    return [{"oid": rank, "k": k, "v": v, "tag": tag}
            for rank, (k, v, tag) in enumerate(rows)]


def _stored(rows, *attrs):
    return [{attr: row[attr] for attr in attrs} for row in rows]


def _fetch(conn, query):
    """The rows of *query* off a streaming cursor — after checking that
    ``run()`` drains the same tree: one objects-result per statement,
    the same rows in the same order."""
    got = conn.cursor().execute(query).fetchall()
    [result] = conn.cursor().run(query)
    assert result.kind == "objects", query
    assert_same_sequence(result.objects, got, query)
    return got


# -- the five original properties ----------------------------------------------


@settings(max_examples=25, deadline=None)
@given(rows=rows_strategy, order=order_strategy,
       limit=st.one_of(st.none(), st.integers(min_value=0, max_value=8)),
       offset=st.integers(min_value=0, max_value=5),
       where_tag=st.one_of(st.none(), st.sampled_from(["a", "b", "zz"])),
       k_bound=st.one_of(st.none(), st.integers(min_value=0, max_value=6)))
def test_retrieval_matches_reference(rows, order, limit, offset, where_tag,
                                     k_bound):
    table = _obs(rows)
    conn = _connect(DDL, obs=_stored(table, "k", "v", "tag"))
    clauses = []
    conditions = []
    if where_tag is not None:
        conditions.append(f"tag = '{where_tag}'")
    if k_bound is not None:
        conditions.append(f"k >= {k_bound}")
    if conditions:
        clauses.append("WHERE " + " AND ".join(conditions))
    if order:
        keys = ", ".join(f"{attr} {'DESC' if desc else 'ASC'}"
                         for attr, desc in order)
        clauses.append(f"ORDER BY {keys}")
    if limit is not None:
        clauses.append(f"LIMIT {limit}")
        if offset:
            clauses.append(f"OFFSET {offset}")
    else:
        offset = 0
    query = "SELECT k, v, tag FROM obs " + " ".join(clauses)
    got = _fetch(conn, query)

    matching = ref_filter(
        table,
        equals=[("tag", where_tag)] if where_tag is not None else (),
        at_least=[("k", k_bound)] if k_bound is not None else (),
    )
    attrs = ("k", "v", "tag")
    if order:
        expected = ref_window(ref_sort(matching, order), limit, offset)
        assert_same_sequence(got, ref_project(expected, attrs), query)
    elif limit is not None:
        size = len(ref_window(matching, limit, offset))
        assert_window_of(got, ref_project(matching, attrs), size, query)
    else:
        assert_same_multiset(got, ref_project(matching, attrs), query)


AGGREGATES = [
    ("count(*)", "count", None), ("count(v)", "count", "v"),
    ("sum(k)", "sum", "k"), ("avg(v)", "avg", "v"),
    ("min(v)", "min", "v"), ("max(k)", "max", "k"),
]


@settings(max_examples=25, deadline=None)
@given(rows=rows_strategy,
       group_attr=st.sampled_from(["k", "tag"]),
       where_tag=st.one_of(st.none(), st.sampled_from(["a", "b"])),
       descending=st.booleans(),
       limit=st.one_of(st.none(), st.integers(min_value=1, max_value=4)))
def test_aggregate_matches_reference(rows, group_attr, where_tag, descending,
                                     limit):
    table = _obs(rows)
    conn = _connect(DDL, obs=_stored(table, "k", "v", "tag"))
    where = f"WHERE tag = '{where_tag}' " if where_tag else ""
    direction = "DESC" if descending else "ASC"
    tail = f" LIMIT {limit}" if limit is not None else ""
    query = (f"SELECT {group_attr}, count(*), count(v), sum(k), avg(v), "
             f"min(v), max(k) FROM obs {where}"
             f"GROUP BY {group_attr} ORDER BY {group_attr} {direction}"
             f"{tail}")
    matching = ref_filter(
        table, equals=[("tag", where_tag)] if where_tag else ()
    )
    groups = ref_aggregate(matching, group_attr, AGGREGATES)
    expected = ref_window(ref_sort(groups, [(group_attr, descending)]), limit)
    assert_same_sequence(_fetch(conn, query), expected, query)


@settings(max_examples=15, deadline=None)
@given(rows=rows_strategy,
       where_tag=st.one_of(st.none(), st.sampled_from(["a", "zz"])))
def test_scalar_aggregate_matches_reference(rows, where_tag):
    """No GROUP BY: one row, even when the predicate rejects every
    stored row (count 0, the other aggregates NULL)."""
    table = _obs(rows)
    conn = _connect(DDL, obs=_stored(table, "k", "v", "tag"))
    where = f" WHERE tag = '{where_tag}'" if where_tag else ""
    query = ("SELECT count(*), count(v), sum(v), avg(v), min(k), "
             f"max(v) FROM obs{where}")
    matching = ref_filter(
        table, equals=[("tag", where_tag)] if where_tag else ()
    )
    expected = ref_aggregate(matching, None, [
        ("count(*)", "count", None), ("count(v)", "count", "v"),
        ("sum(v)", "sum", "v"), ("avg(v)", "avg", "v"),
        ("min(k)", "min", "k"), ("max(v)", "max", "v"),
    ])
    assert_same_sequence(_fetch(conn, query), expected, query)


@settings(max_examples=15, deadline=None)
@given(rows=rows_strategy,
       limit=st.integers(min_value=0, max_value=6),
       offset=st.integers(min_value=0, max_value=6))
def test_projection_limit_matches_reference(rows, limit, offset):
    table = _obs(rows)
    conn = _connect(DDL, obs=_stored(table, "k", "v", "tag"))
    query = f"SELECT k FROM obs ORDER BY oid LIMIT {limit} OFFSET {offset}"
    expected = ref_window(ref_sort(table, [("oid", False)]), limit, offset)
    assert_same_sequence(_fetch(conn, query), ref_project(expected, ("k",)),
                         query)


MIXED_DDL = """
DEFINE CLASS full_obs ( ATTRIBUTES: k = int4; v = float8; )
DEFINE CLASS bare_obs ( ATTRIBUTES: k = int4; )
DEFINE CONCEPT mixed MEMBERS full_obs, bare_obs
"""

full_rows = st.lists(st.tuples(st.integers(0, 6), quarters),
                     min_size=1, max_size=12)
bare_rows = st.lists(st.integers(0, 6), min_size=1, max_size=12)


def _mixed(full, bare):
    full_table = [{"k": k, "v": v} for k, v in full]
    bare_table = [{"k": k} for k in bare]
    conn = _connect(MIXED_DDL, full_obs=full_table, bare_obs=bare_table)
    return conn, full_table, bare_table


@settings(max_examples=20, deadline=None)
@given(full=full_rows, bare=bare_rows, descending=st.booleans())
def test_mixed_schema_union_null_ordering(full, bare, descending):
    """A concept over classes with differing schemas reads the missing
    attribute as NULL; ORDER BY puts those rows last in both
    directions.  (Rows tying on every key are equal after projection,
    so the sequence is well defined whichever member streams first.)"""
    conn, full_table, bare_table = _mixed(full, bare)
    direction = "DESC" if descending else "ASC"
    query = f"SELECT k, v FROM mixed ORDER BY v {direction}, k"
    union = full_table + [{"k": row["k"], "v": None} for row in bare_table]
    expected = ref_sort(union, [("v", descending), ("k", False)])
    got = _fetch(conn, query)
    assert_same_sequence(got, ref_project(expected, ("k", "v")), query)
    assert [row["v"] for row in got[len(full):]] == [None] * len(bare)


# -- properties for the code the one-engine change adds ------------------------

JOIN_DDL = """
DEFINE CLASS lhs ( ATTRIBUTES: k = int4; x = float8; )
DEFINE CLASS rhs ( ATTRIBUTES: k = int4; y = char16; )
DEFINE CLASS keyed ( ATTRIBUTES: k = int4; y = char16; )
DEFINE CLASS unkeyed ( ATTRIBUTES: y = char16; )
DEFINE CONCEPT anyside MEMBERS keyed, unkeyed
DEFINE CLASS tagged ( ATTRIBUTES: k = int4; y = char16; )
DEFINE CLASS untagged ( ATTRIBUTES: k = int4; )
DEFINE CONCEPT eitherway MEMBERS tagged, untagged
"""

lhs_rows = st.lists(st.tuples(st.integers(0, 5), quarters),
                    min_size=1, max_size=12)
rhs_rows = st.lists(st.tuples(st.integers(0, 5),
                              st.sampled_from(["a", "b", "c"])),
                    min_size=1, max_size=12)
labels = st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=6)


def _joined(pairs, left_name, right_name, columns):
    """Reference join output: dict rows keyed ``side.attr``."""
    sides = {left_name: 0, right_name: 1}
    return [
        {column: pair[sides[column.split(".")[0]]].get(column.split(".")[1])
         for column in columns}
        for pair in pairs
    ]


@settings(max_examples=25, deadline=None)
@given(left=lhs_rows, right=rhs_rows,
       where_y=st.one_of(st.none(), st.sampled_from(["a", "b"])))
def test_hash_join_matches_reference(left, right, where_y):
    left_table = [{"k": k, "x": x} for k, x in left]
    right_table = [{"k": k, "y": y} for k, y in right]
    conn = _connect(JOIN_DDL, lhs=left_table, rhs=right_table)
    where = f" WHERE rhs.y = '{where_y}'" if where_y else ""
    query = ("SELECT lhs.x, rhs.y, lhs.k FROM lhs JOIN rhs "
             f"ON lhs.k = rhs.k{where}")
    assert "HashJoin(" in conn.cursor().explain(query)
    pairs = ref_join(
        left_table,
        ref_filter(right_table, equals=[("y", where_y)] if where_y else ()),
        "k", "k",
    )
    expected = _joined(pairs, "lhs", "rhs", ("lhs.x", "rhs.y", "lhs.k"))
    assert_same_multiset(_fetch(conn, query), expected, query)


@settings(max_examples=25, deadline=None)
@given(left=lhs_rows, keyed=rhs_rows, unkeyed=labels,
       concept_on_left=st.booleans())
def test_join_with_concept_side_null_keys_never_match(left, keyed, unkeyed,
                                                      concept_on_left):
    """One side is a concept whose second member has no join attribute:
    its rows carry a NULL key and must match nothing — whichever side
    of the join (and of the hash table) they land on."""
    left_table = [{"k": k, "x": x} for k, x in left]
    keyed_table = [{"k": k, "y": y} for k, y in keyed]
    unkeyed_table = [{"y": y} for y in unkeyed]
    conn = _connect(JOIN_DDL, lhs=left_table, keyed=keyed_table,
                    unkeyed=unkeyed_table)
    concept_table = keyed_table + unkeyed_table
    if concept_on_left:
        query = ("SELECT anyside.y, lhs.x FROM anyside JOIN lhs "
                 "ON anyside.k = lhs.k")
        pairs = ref_join(concept_table, left_table, "k", "k")
        expected = _joined(pairs, "anyside", "lhs", ("anyside.y", "lhs.x"))
    else:
        query = ("SELECT lhs.x, anyside.y FROM lhs JOIN anyside "
                 "ON lhs.k = anyside.k")
        pairs = ref_join(left_table, concept_table, "k", "k")
        expected = _joined(pairs, "lhs", "anyside", ("lhs.x", "anyside.y"))
    assert "HashJoin(" in conn.cursor().explain(query)
    assert_same_multiset(_fetch(conn, query), expected, query)


#: Enough indexed right rows, on enough distinct keys, that a handful
#: of probes always prices below hashing the whole right relation.
PROBED = [{"k": i % 25, "y": "abc"[i % 3]} for i in range(50)]


@settings(max_examples=25, deadline=None)
@given(keyed=st.lists(st.tuples(st.integers(0, 30),
                                st.sampled_from(["a", "b"])),
                      min_size=1, max_size=2),
       unkeyed=st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=2),
       concept_on_left=st.booleans())
def test_index_nested_loop_join_matches_reference(keyed, unkeyed,
                                                  concept_on_left):
    """A tiny left side probing a B-tree-indexed right class: class
    left side and concept left side (whose keyless member's rows carry
    a NULL key and are never probed)."""
    keyed_table = [{"k": k, "y": y} for k, y in keyed]
    unkeyed_table = [{"y": y} for y in unkeyed] if concept_on_left else []
    conn = _connect(JOIN_DDL, keyed=keyed_table, unkeyed=unkeyed_table,
                    rhs=PROBED)
    conn.cursor().execute("CREATE INDEX ON rhs (k)")
    source = "anyside" if concept_on_left else "keyed"
    query = (f"SELECT {source}.y, rhs.y, rhs.k FROM {source} JOIN rhs "
             f"ON {source}.k = rhs.k")
    assert "IndexNestedLoopJoin(" in conn.cursor().explain(query)
    pairs = ref_join(keyed_table + unkeyed_table, PROBED, "k", "k")
    expected = _joined(pairs, source, "rhs",
                       (f"{source}.y", "rhs.y", "rhs.k"))
    assert_same_multiset(_fetch(conn, query), expected, query)


@settings(max_examples=40, deadline=None)
@given(tagged=rhs_rows,
       untagged=st.lists(st.integers(0, 5), min_size=1, max_size=12),
       right=rhs_rows, concept_on_left=st.booleans(), ordered=st.booleans())
def test_qualified_ref_never_reads_the_other_side(tagged, untagged, right,
                                                  concept_on_left, ordered):
    """Both sources have an attribute ``y``, but one concept member
    lacks it: ``eitherway.y`` is NULL for that member's rows — never
    ``rhs.y`` — whether the concept is the hashed or the streamed input,
    and under a Sort, which concatenates the join's batches."""
    tagged_table = [{"k": k, "y": y.upper()} for k, y in tagged]
    untagged_table = [{"k": k} for k in untagged]
    right_table = [{"k": k, "y": y} for k, y in right]
    conn = _connect(JOIN_DDL, tagged=tagged_table, untagged=untagged_table,
                    rhs=right_table)
    concept_table = tagged_table + untagged_table
    columns = ("eitherway.y", "rhs.y", "eitherway.k")
    order = f" ORDER BY {', '.join(columns)}" if ordered else ""
    if concept_on_left:
        query = (f"SELECT {', '.join(columns)} FROM eitherway JOIN rhs "
                 f"ON eitherway.k = rhs.k{order}")
        pairs = ref_join(concept_table, right_table, "k", "k")
        expected = _joined(pairs, "eitherway", "rhs", columns)
    else:
        query = (f"SELECT {', '.join(columns)} FROM rhs JOIN eitherway "
                 f"ON rhs.k = eitherway.k{order}")
        pairs = ref_join(right_table, concept_table, "k", "k")
        expected = _joined(pairs, "rhs", "eitherway", columns)
    assert "HashJoin(" in conn.cursor().explain(query)
    if ordered:
        # every projected column is a sort key: ties are equal rows
        expected = ref_sort(expected, [(c, False) for c in columns])
        assert_same_sequence(_fetch(conn, query), expected, query)
    else:
        assert_same_multiset(_fetch(conn, query), expected, query)


@settings(max_examples=20, deadline=None)
@given(tagged=st.lists(st.tuples(st.integers(0, 30),
                                 st.sampled_from(["A", "B"])),
                       min_size=1, max_size=2),
       untagged=st.lists(st.integers(0, 30), min_size=1, max_size=2))
def test_qualified_ref_over_index_nested_loop_join(tagged, untagged):
    """The same shared-name case with the concept streaming into an
    IndexNestedLoopJoin; an unqualified ``y`` names the left source's
    attribute (left first), so it is NULL for the member lacking it."""
    tagged_table = [{"k": k, "y": y} for k, y in tagged]
    untagged_table = [{"k": k} for k in untagged]
    conn = _connect(JOIN_DDL, tagged=tagged_table, untagged=untagged_table,
                    rhs=PROBED)
    conn.cursor().execute("CREATE INDEX ON rhs (k)")
    query = ("SELECT eitherway.y, rhs.y, y FROM eitherway JOIN rhs "
             "ON eitherway.k = rhs.k")
    assert "IndexNestedLoopJoin(" in conn.cursor().explain(query)
    pairs = ref_join(tagged_table + untagged_table, PROBED, "k", "k")
    expected = [
        {"eitherway.y": l_row.get("y"), "rhs.y": r_row["y"],
         "y": l_row.get("y")}
        for l_row, r_row in pairs
    ]
    assert_same_multiset(_fetch(conn, query), expected, query)


@settings(max_examples=20, deadline=None)
@given(full=full_rows, bare=bare_rows, descending=st.booleans())
def test_mixed_concept_rows_keep_their_class(full, bare, descending):
    """``SELECT FROM <concept> ORDER BY`` without a select list sorts
    across members yet returns every row as an object of its own class
    carrying only its own attributes."""
    conn, full_table, bare_table = _mixed(full, bare)
    direction = "DESC" if descending else "ASC"
    query = f"SELECT FROM mixed ORDER BY k {direction}"
    got = _fetch(conn, query)
    expected = [SciObject("full_obs", 0, row) for row in full_table] \
        + [SciObject("bare_obs", 0, row) for row in bare_table]
    assert_same_multiset(got, expected, query)
    # Rows of different classes may tie on k, and which member streams
    # first is a cost decision: only the key sequence is determined.
    assert [row["k"] for row in got] == sorted(
        (row["k"] for row in full_table + bare_table), reverse=descending
    )
    assert_same_multiset(_fetch(conn, "SELECT FROM mixed"), expected,
                         "SELECT FROM mixed")


@settings(max_examples=20, deadline=None)
@given(rows=rows_strategy, descending=st.booleans())
def test_unlisted_operator_matches_reference(rows, descending):
    """A registered operator with an ordinary Python body — never on
    any vectorization whitelist — as a projection, an ORDER BY key and
    an aggregate argument."""
    table = _obs(rows)
    conn = _connect(DDL, obs=_stored(table, "k", "v", "tag"))
    conn.kernel.operators.register("halve", ["float8"], "float8",
                                   lambda value: value / 2)
    halved = [dict(row, **{"halve(v)": row["v"] / 2}) for row in table]

    direction = "DESC" if descending else "ASC"
    query = f"SELECT halve(v), k FROM obs ORDER BY 1 {direction}, oid"
    expected = ref_sort(halved, [("halve(v)", descending), ("oid", False)])
    assert_same_sequence(_fetch(conn, query),
                         ref_project(expected, ("halve(v)", "k")), query)

    query = ("SELECT tag, sum(halve(v)), max(halve(v)) FROM obs "
             "GROUP BY tag ORDER BY tag")
    groups = ref_aggregate(halved, "tag", [
        ("sum(halve(v))", "sum", "halve(v)"),
        ("max(halve(v))", "max", "halve(v)"),
    ])
    assert_same_sequence(_fetch(conn, query),
                         ref_sort(groups, [("tag", False)]), query)
