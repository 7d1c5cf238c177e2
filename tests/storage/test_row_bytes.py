"""Bytes per stored row, measured with ``tracemalloc``.

Each shape stores 5,000 rows whose values were built beforehand, so
what is traced is what storing adds beyond the values themselves: the
row tuple and its version, heap pages, index entries, the oid map and,
with an in-memory log, the WAL records.  The split is printed per
allocating module (``pytest -s`` shows it).  It is approximate: an
object reused from a free list is charged to the line that first
allocated its memory (``classes.py``'s returned ``SciObject`` dicts are
reused as the in-memory log's INSERT payloads).

* ``btree.py`` — B-tree leaves (oid, ``serial``, ``code``);
* ``grid_index.py`` / ``timeline.py`` — the extent indexes;
* ``catalog.py`` — the validated row tuple;
* ``engine.py`` — the ``TupleVersion``, and in-memory INSERT payloads;
* ``<string>`` — generated constructors: ``TID``s, in-memory records;
* ``classes.py`` — the oid map and the oids;
* ``wal.py`` — in-memory log records.
"""

import tracemalloc
from collections import defaultdict
from pathlib import Path

import repro
from repro.spatial import Box
from repro.temporal import AbsTime

ROWS = 5000
UNIVERSE = Box(-20.0, -35.0, 55.0, 38.0)
STATION_DDL = """
DEFINE CLASS station_obs (
  ATTRIBUTES: serial = int4; code = int4; reading = float8; tag = char16;
  SPATIAL EXTENT: cell = box;
  TEMPORAL EXTENT: timestamp = abstime;
)
"""


def _traced(title, store_all):
    """Bytes per row *store_all* leaves allocated, and the per-module
    split, printed."""
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        store_all()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    split = defaultdict(int)
    for diff in after.compare_to(before, "filename"):
        split[Path(diff.traceback[0].filename).name] += diff.size_diff
    per_row = sum(split.values()) / ROWS
    print(f"\n{title}: {per_row:.0f} B/row")
    for module, size in sorted(split.items(), key=lambda kv: -kv[1]):
        if abs(size) >= 5 * ROWS:
            print(f"  {module:<16} {size / ROWS:6.0f}")
    return per_row


def test_station_rows_in_transactions_with_a_log_file(tmp_path):
    """``station_obs`` rows in 25-row transactions, logged to a file,
    with ``serial`` and ``code`` B-trees beside the oid tree and the
    extent indexes."""
    conn = repro.connect(universe=UNIVERSE)
    conn.kernel.engine.wal.attach_file(tmp_path / "wal.log")
    cur = conn.cursor()
    cur.run(STATION_DDL)
    cur.run("CREATE INDEX ON station_obs (serial)")
    cur.run("CREATE INDEX ON station_obs (code)")
    rows = [{"serial": i, "code": i % 250, "reading": (i % 4000) * 0.25,
             "tag": f"t{i % 50}",
             "cell": Box(i % 70 - 20.0, i % 60 - 30.0,
                         i % 70 - 19.0, i % 60 - 29.0),
             "timestamp": AbsTime(3650 + i // 20)} for i in range(ROWS)]
    store = conn.kernel.store.store

    def store_all():
        for start in range(0, ROWS, 25):
            conn.begin()
            for values in rows[start:start + 25]:
                store("station_obs", values)
            conn.commit()

    per_row = _traced("station_obs, 25-row transactions, log file",
                      store_all)
    conn.kernel.engine.wal.close()
    assert conn.kernel.store.count("station_obs") == ROWS
    # One copy of each row: the log file holds the records, unique keys
    # hold bare entries, the value classes carry no __dict__.
    assert per_row <= 1000


def test_auto_commit_rows_with_an_in_memory_log():
    """Single-row auto-commit stores of ``(int4, float8, char16)``: each
    one logs BEGIN, INSERT and COMMIT records in memory."""
    conn = repro.connect()
    conn.cursor().run(
        "DEFINE CLASS m ( ATTRIBUTES: a = int4; b = float8; c = char16; )")
    rows = [{"a": i, "b": i * 0.5, "c": f"c{i % 100}"} for i in range(ROWS)]
    store = conn.kernel.store.store

    def store_all():
        for values in rows:
            store("m", values)

    per_row = _traced("(int4, float8, char16), auto-commit, memory log",
                      store_all)
    assert conn.kernel.store.count("m") == ROWS
    assert per_row <= 1200  # three in-memory log records a row
