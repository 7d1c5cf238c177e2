"""The stored-read views stop fetching when their consumer stops.

Row views ask ``StorageEngine.value_batches`` for small chunks, so an
existence probe or a first-row fetch on a large class does not start
assembling 1024-row chunks; every stored scan starts with a 64-row
batch and doubles up to its batch size, so a cursor's ``fetchone()`` on
an indexed SELECT pulls 64 TIDs.
"""

import pytest

from repro import connect
from repro.query.batch import DEFAULT_BATCH_SIZE
from repro.storage.engine import FIRST_BATCH_ROWS

ROWS = 20_000
RAMPED = 5_000


@pytest.fixture(scope="module")
def conn():
    connection = connect()
    connection.cursor().execute(
        "DEFINE CLASS big ( ATTRIBUTES: code = int4; tag = char16; );"
        "DEFINE CLASS ramp ( ATTRIBUTES: code = int4; )")
    store = connection.kernel.store
    connection.begin()
    for i in range(ROWS):
        store.store("big", {"code": i, "tag": f"t{i % 7}"})
    for i in range(RAMPED):
        store.store("ramp", {"code": i})
    connection.commit()
    connection.cursor().execute("CREATE INDEX ON big (code)")
    return connection


def _counted(monkeypatch, engine, name):
    """Count what the consumer pulls out of generator ``engine.<name>``:
    returns the list of pulled items' sizes (1 for a non-list item)."""
    pulled: list[int] = []
    original = getattr(engine, name)

    def counting(*args, **kwargs):
        for item in original(*args, **kwargs):
            pulled.append(len(item) if isinstance(item, list) else 1)
            yield item

    monkeypatch.setattr(engine, name, counting)
    return pulled


def test_exists_pulls_one_row(conn, monkeypatch):
    store = conn.kernel.store
    chunks = _counted(monkeypatch, store.engine, "value_batches")
    assert store.exists("big")
    assert chunks == [1]


@pytest.mark.parametrize("kind, predicates", [
    ("full-scan", {}),
    ("full-scan", {"filters": (("tag", "t3"),)}),  # residual re-check
    ("index-range", {"ranges": (("code", ">=", 15_000),)}),
    ("index-eq", {"filters": (("code", 15_000),)}),
])
def test_first_found_row_pulls_one_small_chunk(conn, monkeypatch, kind,
                                               predicates):
    store = conn.kernel.store
    assert store.choose_path("big", **predicates).kind == kind
    chunks = _counted(monkeypatch, store.engine, "value_batches")
    first = next(store.iter_find("big", **predicates))
    assert first.class_name == "big"
    assert len(chunks) == 1 and chunks[0] < DEFAULT_BATCH_SIZE / 8


def test_fetchone_pulls_no_tid_past_the_first_batch(conn, monkeypatch):
    engine = conn.kernel.store.engine
    tids = _counted(monkeypatch, engine, "iter_range_tids")
    cur = conn.cursor()
    source = "SELECT FROM big WHERE code >= ?"
    assert "index-range" in cur.explain(source, (15_000,))
    tids.clear()  # the explain probed the store
    row = cur.execute(source, (15_000,)).fetchone()
    assert row["code"] == 15_000
    assert len(tids) == FIRST_BATCH_ROWS == 64
    assert len(cur.fetchall()) == ROWS - 15_000 - 1


RAMP = [64, 128, 256, 512, 1024, 1024, 1024, 968]
#: An explicit batch size under 64 holds from the first batch on.
SMALL = [3] * (RAMPED // 3) + [RAMPED % 3]
#: The first RAMPED codes of ``big``: an index range of RAMPED TIDs.
LOW_CODES = (("code", "<=", RAMPED - 1),)


@pytest.mark.parametrize("source, predicates, kind", [
    ("ramp", {}, "full-scan"),                          # heap walk
    ("big", {"ranges": LOW_CODES}, "index-range"),      # TID stream
])
def test_scan_batches_ramp_up_to_the_batch_size(conn, source, predicates,
                                                kind):
    store = conn.kernel.store
    assert store.choose_path(source, **predicates).kind == kind

    def sizes(**options):
        return [batch.length for batch in store.iter_scan_batches(
            source, **predicates, **options)]

    assert sizes() == RAMP
    assert sizes(batch_size=3) == SMALL


def test_index_only_batches_ramp_up_to_the_batch_size(conn):
    store = conn.kernel.store
    path = store.choose_path("big", ranges=LOW_CODES, projection=("code",))
    assert path.index_only

    def sizes(**options):
        return [batch.length for batch
                in store.iter_index_only_batches("big", path, **options)]

    assert sizes() == RAMP
    assert sizes(batch_size=3) == SMALL


@pytest.mark.parametrize("source, scans", [
    ("SELECT count(*) FROM big", 1),
    ("SELECT FROM big WHERE tag = 't0'", 1),
    ("SELECT FROM big WHERE code >= 15000", 1),
    # An empty attribute-index probe asks the one existence question.
    ("SELECT FROM big WHERE code = -1", 2),
])
def test_explain_builds_one_object_per_leg(conn, monkeypatch, source, scans):
    """EXPLAIN resolves the §2.1.5 path the way execution does — the
    first stored match answers — so it costs O(1) objects however large
    the class, and records the scan events execution would."""
    from repro.core.classes import SciObject

    store = conn.kernel.store
    built = []
    init = SciObject.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SciObject, "__init__", counting)
    store.scan_log = log = []
    try:
        text = conn.cursor().explain(source)
    finally:
        store.scan_log = None
    assert "path=retrieve" in text
    assert len(built) <= 1
    assert [event[0] for event in log] == ["big"] * scans
