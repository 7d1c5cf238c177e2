"""Property test: the fetch contract — one statement, one bag, one order.

``fetchone`` / ``fetchmany(k)`` / ``fetchall`` / iteration / ``run()``,
through a local cursor or over the wire, are rewritings of one
statement: they must return the same rows in the same order under one
statement snapshot, however the calls are interleaved.

Hypothesis generates a statement shape (plain class source, concept
union, ORDER BY … LIMIT, aggregate, join, and two two-statement
programs whose DDL follows the retrieval — one longer than the page the
remote ``execute`` reply carries, one inside it) and a sequence of
fetch steps —
``one``, ``many(k)``, ``all``, ``iterate j rows then stop`` (on a new
iterator, or resuming one kept across the other steps), and a
``commit`` of a new row by another writer — and drives a local cursor
(batch size shrunk so results span many batches) and a remote cursor
(the server's own connections scan 1,024-row batches over a 2,600-row
class) through them.  The reference is ``run()``'s ``objects``,
computed before the cursor executes:

* the rows fetched so far are always a prefix of the reference, and the
  final drain completes it — so a commit between two fetches never
  shows;
* ``rowcount`` is -1 until a fetch has found the end of the stream and
  the total after;
* the statement after the retrieval runs in the fetch that finds the
  end, not before.

Deterministic companions: both cursors raise the same
``InterfaceError`` before ``execute()`` and after ``close()`` on every
fetch call; a remote ``execute`` carries the first ``_FETCH_BATCH``
rows and iterating costs one frame per ``_FETCH_BATCH`` rows after
them; a local ``fetchall()`` pins the snapshot once per batch of the
scan's ramp; ``fetchone()`` builds one row of its batch.
"""

from __future__ import annotations

import itertools
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.client import remote_connect
from repro.core import classes
from repro.errors import InterfaceError
from repro.query.batch import DEFAULT_BATCH_SIZE
from repro.server import GaeaServer
from repro.server.remote import _FETCH_BATCH

READINGS = 2_600      # > 2 default batches for the server's connections
WIDE = 5_000
LOCAL_BATCH = 300     # the local connection's batches: 9 per reading scan

DDL = """
DEFINE CLASS reading ( ATTRIBUTES: station = int4; value = float8;
                                   tag = char16; );
DEFINE CLASS gauge ( ATTRIBUTES: station = int4; value = float8;
                                 tag = char16; );
DEFINE CLASS site ( ATTRIBUTES: station = int4; name = char16; );
DEFINE CLASS wide ( ATTRIBUTES: n = int4; );
DEFINE CONCEPT observations MEMBERS reading, gauge
"""

SHAPES = {
    "class": "SELECT FROM reading",
    "concept": "SELECT FROM observations",
    "top_k": "SELECT FROM reading ORDER BY value DESC LIMIT 2500",
    "aggregate": "SELECT station, count(*), avg(value) FROM reading "
                 "GROUP BY station",
    "join": "SELECT FROM reading JOIN site "
            "ON reading.station = site.station",
    "program": "SELECT FROM reading",    # + a trailing DEFINE CONCEPT
    # inside the page execute ships: the DDL still waits for the fetch
    # that finds the end
    "short_program": "SELECT FROM site",
}
PROGRAMS = {"program", "short_program"}


class World:
    """One kernel, a server over it, and a connection of each kind."""

    def __init__(self, server: GaeaServer):
        self.kernel = server.kernel
        self.reference = repro.connect(kernel=self.kernel)
        self.local = repro.connect(kernel=self.kernel)
        self.local.executor.physical.batch_size = LOCAL_BATCH
        self.remote = remote_connect(server.host, server.port)
        self.trailing = itertools.count()

    def cursor(self, surface: str):
        return getattr(self, surface).cursor()


@pytest.fixture(scope="module")
def world():
    with GaeaServer() as server:
        w = World(server)
        w.reference.cursor().execute(DDL)
        store = w.kernel.store
        w.reference.begin()
        for i in range(READINGS):
            store.store("reading", {"station": i % 50, "value": i * 0.25,
                                    "tag": f"t{i % 7}"})
        for i in range(300):
            store.store("gauge", {"station": i % 50, "value": -1.0 * i,
                                  "tag": "g"})
        for i in range(50):
            store.store("site", {"station": i, "name": f"site{i}"})
        for i in range(WIDE):
            store.store("wide", {"n": i})
        w.reference.commit()
        yield w
        w.remote.close()


steps = st.lists(st.one_of(
    st.just(("one", 0)),
    st.tuples(st.just("many"), st.integers(1, 1500)),
    st.tuples(st.just("iterate"), st.integers(1, 1500)),   # a new iter(cur)
    st.tuples(st.just("resume"), st.integers(1, 1500)),    # one kept iter(cur)
    st.just(("commit", 0)),
    st.just(("all", 0)),
), max_size=8)


def _step(cur, kept, kind: str, n: int) -> tuple[list, bool]:
    """Run one fetch step: ``(rows, did this fetch find the end)``."""
    if kind == "one":
        row = cur.fetchone()
        return ([] if row is None else [row]), row is None
    if kind == "many":
        rows = cur.fetchmany(n)
        return rows, len(rows) < n
    if kind in ("iterate", "resume"):
        rows = list(itertools.islice(cur if kind == "iterate" else kept, n))
        return rows, len(rows) < n
    return cur.fetchall(), True


@pytest.mark.parametrize("surface", ["local", "remote"])
@settings(max_examples=20, deadline=None)
@given(shape=st.sampled_from(sorted(SHAPES)), steps=steps)
# a fetch turns the page under a suspended iterator, which then resumes
@example(shape="class",
         steps=[("resume", 1), ("many", LOCAL_BATCH), ("resume", 1)])
@example(shape="program",
         steps=[("one", 0), ("commit", 0), ("iterate", 70), ("many", 5000)])
# the whole result arrives with execute; the DDL runs in the 51st fetch
@example(shape="short_program",
         steps=[("iterate", 50), ("one", 0), ("one", 0)])
@example(shape="short_program", steps=[("many", 50), ("many", 1)])
def test_any_interleaving_returns_runs_rows_in_order(world, surface, shape,
                                                     steps):
    source = SHAPES[shape]
    expected = list(world.reference.cursor().run(source)[0].objects)
    concept = None
    if shape in PROGRAMS:
        concept = f"trail_{next(world.trailing)}"
        source += f"; DEFINE CONCEPT {concept} MEMBERS gauge"

    cur = world.cursor(surface)
    cur.execute(source)
    kept = iter(cur)
    got: list = []
    ended = False

    def check() -> None:
        assert got == expected[:len(got)]
        assert cur.rowcount == (len(expected) if ended else -1)
        if concept is not None:
            assert (concept in world.kernel.concepts.names()) == ended
            assert len(cur.results) == ended

    check()
    for kind, n in steps:
        if kind == "commit":
            # The statement snapshot is taken by the first fetch: only a
            # commit *between* fetches must stay invisible.
            if got:
                world.kernel.store.store("reading", {
                    "station": 7, "value": 1e6, "tag": "late"})
            continue
        rows, found_end = _step(cur, kept, kind, n)
        got += rows
        ended = ended or found_end
        check()
    got += cur.fetchall()
    ended = True
    check()
    assert got == expected
    cur.close()


@pytest.mark.parametrize("fetch", [
    lambda cur: cur.fetchone(),
    lambda cur: cur.fetchmany(3),
    lambda cur: cur.fetchall(),
    lambda cur: next(iter(cur)),
], ids=["fetchone", "fetchmany", "fetchall", "iterate"])
@pytest.mark.parametrize("state", ["never-executed", "closed"])
@pytest.mark.parametrize("surface", ["local", "remote"])
def test_fetch_without_a_stream_raises(world, surface, state, fetch):
    cur = world.cursor(surface)
    message = "no execute() has been issued"
    if state == "closed":
        cur.execute("SELECT FROM site")
        cur.close()
        message = "cursor is closed"
    with pytest.raises(InterfaceError, match=re.escape(message)):
        fetch(cur)


@pytest.mark.parametrize("surface", ["local", "remote"])
def test_an_open_iterator_dies_with_its_cursor(world, surface):
    cur = world.cursor(surface)
    rows = iter(cur.execute("SELECT FROM site"))
    next(rows)
    cur.close()
    with pytest.raises(InterfaceError, match="cursor is closed"):
        next(rows)


def test_remote_iteration_pages_by_fetch_batch(world, monkeypatch):
    requests: list[str] = []
    request = world.remote.request

    def counting(payload):
        requests.append(payload["op"])
        return request(payload)

    monkeypatch.setattr(world.remote, "request", counting)
    cur = world.remote.cursor()
    rows = list(cur.execute("SELECT FROM gauge"))
    assert len(rows) == 300
    assert requests[0] == "execute"     # it carries the first 64 rows
    assert requests.count("fetch") \
        <= math.ceil((300 - _FETCH_BATCH) / _FETCH_BATCH) + 1
    # fetchone() slices the page execute brought: no fetch frame
    requests.clear()
    cur.execute("SELECT FROM gauge")
    assert cur.fetchone() == rows[0] and cur.fetchone() == rows[1]
    assert requests == ["execute"]
    cur.close()


def _ramp_batches(rows: int) -> int:
    """Batches of a *rows*-row scan: 64 rows, doubling up to the
    default batch size."""
    size, batches = 64, 0
    while rows > 0:
        rows, batches = rows - size, batches + 1
        size = min(2 * size, DEFAULT_BATCH_SIZE)
    return batches


def test_fetchall_pins_the_snapshot_once_per_batch(world, monkeypatch):
    pins: list[object] = []
    entered = classes.View.entered

    def counting(view):
        pins.append(view.snapshot)
        return entered(view)

    monkeypatch.setattr(classes.View, "entered", counting)
    cur = world.reference.cursor().execute("SELECT FROM wide")
    assert len(cur.fetchall()) == WIDE
    assert len(pins) <= _ramp_batches(WIDE) + 2
    assert len(set(map(id, pins))) == 1    # one statement, one snapshot


def test_fetchone_builds_one_row_of_its_batch(world, monkeypatch):
    built: list[int] = []

    class Counted(classes.SciObject):
        def __init__(self, **fields):
            built.append(fields["oid"])
            super().__init__(**fields)

    monkeypatch.setattr(classes, "SciObject", Counted)
    cur = world.reference.cursor().execute("SELECT FROM wide")
    assert cur.fetchone()["n"] == 0
    assert len(built) == 1      # the batch's other 63 rows stay columns
    assert len(cur.fetchmany(10)) == 10 and len(built) == 11
