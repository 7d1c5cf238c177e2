"""EXP-L: concurrent serving — snapshot readers scale, writers do not
stall them, and the wire server survives saturation.

The paper pitches Gaea as a multi-user scientific DBMS (interactive
scientists sharing one kernel).  This experiment quantifies the
concurrent-serving claims of the v2.1 storage layer:

* **L1 — reader scaling**: N snapshot readers with realistic think time
  hold their statements open concurrently: every reader has a
  half-drained statement in flight while another reader's is, all of
  them return rows, and none waits on another.  Readers never take the
  engine write lock, so wall-clock is bounded by the slowest single
  workload, not the sum (the serialized-vs-concurrent table is printed,
  not asserted: a wall-clock ratio is a measurement, not a property).
* **L2 — writer interference**: reader p99 latency while a writer
  commits continuously stays within 3× of the idle-writer baseline
  (no reader ever blocks on the writer; interference is bounded GIL /
  allocator noise, not lock waits).
* **L3 — wire saturation**: hundreds of concurrent remote cursors (many
  connections, several cursors each, a mix of reads and writes) against
  one GaeaServer: every query returns a consistent snapshot and the
  server reports throughput and latency percentiles.
"""

from __future__ import annotations

import gc
import threading
import time

from conftest import report

from repro import connect
from repro.client import remote_connect
from repro.server import GaeaServer
from repro.spatial import Box
from repro.temporal import AbsTime

DDL = """
DEFINE CLASS land_cover (
  ATTRIBUTES: label = char16;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
)
"""

_READERS = 8
_QUERIES = 25
_THINK = 0.004  # seconds between queries: the interactive-scientist model


def _seed(conn, rows: int = 24) -> None:
    conn.cursor().run(DDL)
    for i in range(rows):
        conn.kernel.store.store("land_cover", {
            "label": f"c{i % 6}",
            "spatialextent": Box(float(10 * i), 0.0, float(10 * i) + 5, 5),
            "timestamp": AbsTime(days=i % 4),
        })


def _percentile(samples: list[float], fraction: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def _reader_workload(conn, latencies: list[float],
                     queries: int = _QUERIES) -> None:
    """One scientist's session: repeated parameterized retrievals with
    think time between them (latency recorded per query, excl. think)."""
    cursor = conn.cursor()
    for i in range(queries):
        start = time.perf_counter()
        cursor.execute("SELECT FROM land_cover WHERE timestamp = ?",
                       [AbsTime(days=i % 4)])
        rows = cursor.fetchall()
        latencies.append(time.perf_counter() - start)
        assert rows, "seeded timestamps must always have objects"
        time.sleep(_THINK)


_JOIN_TIMEOUT = 60.0  # seconds; a reader stuck behind another never joins


def _streaming_reader(conn, spans: list[tuple[float, float]],
                      latencies: list[float]) -> None:
    """One scientist's session, statement left open while thinking:
    execute, look at the first row, think, drain the rest.  *spans*
    gets the ``(opened, resumed)`` stamps between which the statement
    is verifiably in flight (first row delivered, not yet drained)."""
    cursor = conn.cursor()
    for i in range(_QUERIES):
        start = time.perf_counter()
        cursor.execute("SELECT FROM land_cover WHERE timestamp = ?",
                       [AbsTime(days=i % 4)])
        first = cursor.fetchone()
        opened = time.perf_counter()
        time.sleep(_THINK)
        resumed = time.perf_counter()
        rest = cursor.fetchall()
        latencies.append(opened - start + time.perf_counter() - resumed)
        assert first is not None and rest, \
            "seeded timestamps must always have several objects"
        spans.append((opened, resumed))


class TestExpL1ReaderScaling:
    def test_eight_readers_hold_statements_open_concurrently(self):
        conn = connect()
        _seed(conn)
        kernel = conn.kernel

        # Serialized: the same N workloads back to back on one thread.
        serial_lat: list[float] = []
        serial_start = time.perf_counter()
        for _ in range(_READERS):
            _streaming_reader(connect(kernel=kernel), [], serial_lat)
        serial_wall = time.perf_counter() - serial_start

        # Concurrent: one thread (connection) per reader.
        spans: list[list[tuple[float, float]]] = [[] for _ in range(_READERS)]
        lats: list[list[float]] = [[] for _ in range(_READERS)]
        threads = [
            threading.Thread(target=_streaming_reader, daemon=True,
                             args=(connect(kernel=kernel), spans[i], lats[i]))
            for i in range(_READERS)
        ]
        threaded_start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(_JOIN_TIMEOUT)
        threaded_wall = time.perf_counter() - threaded_start
        threaded_lat = [lat for mine in lats for lat in mine]

        report(
            "EXP-L1: snapshot-reader scaling "
            f"({_READERS} readers x {_QUERIES} queries, "
            f"{_THINK * 1000:.0f}ms think time)",
            [
                ("serialized", f"{serial_wall:.3f}s",
                 f"{_percentile(serial_lat, 0.50) * 1000:.2f}ms",
                 f"{_percentile(serial_lat, 0.99) * 1000:.2f}ms"),
                ("concurrent", f"{threaded_wall:.3f}s",
                 f"{_percentile(threaded_lat, 0.50) * 1000:.2f}ms",
                 f"{_percentile(threaded_lat, 0.99) * 1000:.2f}ms"),
                ("speedup", f"{serial_wall / threaded_wall:.2f}x", "", ""),
            ],
            ("mode", "wall", "p50", "p99"),
        )
        assert not any(thread.is_alive() for thread in threads), \
            f"a reader did not finish within {_JOIN_TIMEOUT:.0f}s"
        # every statement of every reader returned rows (the workload
        # asserts it per statement; a dead thread leaves a short list)
        assert [len(mine) for mine in spans] == [_QUERIES] * _READERS
        # Structural scaling claim: statements are open side by side.
        # Were readers to exclude each other for a statement's lifetime
        # these spans could never intersect across threads.
        for i, mine in enumerate(spans):
            others = [span for j, theirs in enumerate(spans) if j != i
                      for span in theirs]
            assert any(lo < other_hi and other_lo < hi
                       for lo, hi in mine for other_lo, other_hi in others), \
                f"reader {i} never had a statement in flight beside another's"


class TestExpL2WriterInterference:
    def test_reader_p99_within_3x_of_idle_writer_baseline(self):
        conn = connect()
        _seed(conn)
        kernel = conn.kernel

        def measure() -> list[float]:
            # A full collection of whatever earlier tests left behind
            # holds the GIL for tens of ms and lands on all readers at
            # once; that is the heap's history, not writer interference.
            gc.collect()
            latencies: list[float] = []
            lock = threading.Lock()

            def worker():
                mine: list[float] = []
                _reader_workload(connect(kernel=kernel), mine, queries=40)
                with lock:
                    latencies.extend(mine)

            threads = [threading.Thread(target=worker)
                       for _ in range(_READERS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            return latencies

        idle_lat = measure()  # baseline: writer idle

        # Active phase: one writer committing small transactions in a
        # tight loop for the whole measurement window.
        stop = threading.Event()

        def writer():
            conn = connect(kernel=kernel)
            i = 0
            while not stop.is_set():
                conn.begin()
                kernel.store.store("land_cover", {
                    "label": "w",
                    "spatialextent": Box(5000.0 + i, 0.0, 5005.0 + i, 5.0),
                    "timestamp": AbsTime(days=1000 + i),
                })
                if i % 4 == 3:
                    conn.rollback()
                else:
                    conn.commit()
                i += 1

        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        try:
            active_lat = measure()
        finally:
            stop.set()
            writer_thread.join()

        p99_idle = _percentile(idle_lat, 0.99)
        p99_active = _percentile(active_lat, 0.99)
        # Floor the baseline: on sub-millisecond queries, scheduler
        # jitter alone can triple a tiny p99 — the claim under test is
        # "no lock waits", not "immune to the GIL".
        budget = 3.0 * max(p99_idle, 0.020)
        report(
            "EXP-L2: reader latency vs writer activity "
            f"({_READERS} readers x 40 queries)",
            [
                ("writer idle",
                 f"{_percentile(idle_lat, 0.50) * 1000:.2f}ms",
                 f"{p99_idle * 1000:.2f}ms"),
                ("writer active",
                 f"{_percentile(active_lat, 0.50) * 1000:.2f}ms",
                 f"{p99_active * 1000:.2f}ms"),
                ("p99 budget (3x, 20ms floor)",
                 "", f"{budget * 1000:.2f}ms"),
            ],
            ("phase", "p50", "p99"),
        )
        assert p99_active <= budget, (
            f"reader p99 {p99_active * 1000:.1f}ms under an active writer "
            f"exceeds {budget * 1000:.1f}ms — readers are stalling"
        )


class TestExpL3WireSaturation:
    _CONNECTIONS = 48
    _CURSORS_PER_CONNECTION = 5  # 240 concurrent cursors
    _CYCLES = 4

    def test_hundreds_of_cursors_mixed_read_write(self):
        with GaeaServer() as server:
            seed = remote_connect(server.host, server.port)
            seed.cursor().execute(DDL)
            for i in range(24):
                seed.store("land_cover", {
                    "label": f"c{i % 6}",
                    "spatialextent": Box(float(10 * i), 0.0,
                                         float(10 * i) + 5, 5.0),
                    "timestamp": AbsTime(days=i % 4),
                })
            seed.close()

            latencies: list[float] = []
            writes = [0]
            failures: list[str] = []
            lock = threading.Lock()
            gate = threading.Barrier(self._CONNECTIONS)

            def session(seat: int):
                mine: list[float] = []
                my_writes = 0
                try:
                    conn = remote_connect(server.host, server.port)
                    cursors = [conn.cursor()
                               for _ in range(self._CURSORS_PER_CONNECTION)]
                    gate.wait()
                    for cycle in range(self._CYCLES):
                        if seat % 6 == 0:
                            # One in six connections also writes
                            # (auto-commit store): reads and writes mix.
                            conn.store("land_cover", {
                                "label": "w",
                                "spatialextent": Box(
                                    9000.0 + seat * 10 + cycle, 0.0,
                                    9005.0 + seat * 10 + cycle, 5.0),
                                "timestamp": AbsTime(days=500 + seat),
                            })
                            my_writes += 1
                        for cursor in cursors:
                            start = time.perf_counter()
                            cursor.execute(
                                "SELECT FROM land_cover "
                                "WHERE timestamp = ?",
                                [AbsTime(days=(seat + cycle) % 4)],
                            )
                            rows = cursor.fetchall()
                            mine.append(time.perf_counter() - start)
                            if len(rows) < 6:
                                failures.append(
                                    f"seat {seat}: torn snapshot, "
                                    f"{len(rows)} rows"
                                )
                                return
                    conn.close()
                except Exception as exc:  # noqa: BLE001 — collect all
                    failures.append(f"seat {seat}: {exc!r}")
                finally:
                    with lock:
                        latencies.extend(mine)
                        writes[0] += my_writes

            threads = [threading.Thread(target=session, args=(seat,))
                       for seat in range(self._CONNECTIONS)]
            wall_start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
            wall = time.perf_counter() - wall_start
            assert not any(thread.is_alive() for thread in threads), \
                "saturation sessions hung"
            assert not failures, failures[0]

            queries = len(latencies)
            report(
                "EXP-L3: wire saturation "
                f"({self._CONNECTIONS} connections x "
                f"{self._CURSORS_PER_CONNECTION} cursors, "
                f"{writes[0]} writes mixed in)",
                [
                    ("queries", queries),
                    ("throughput", f"{queries / wall:.0f} q/s"),
                    ("p50 latency",
                     f"{_percentile(latencies, 0.50) * 1000:.2f}ms"),
                    ("p99 latency",
                     f"{_percentile(latencies, 0.99) * 1000:.2f}ms"),
                ],
                ("metric", "value"),
            )
            expected = (self._CONNECTIONS * self._CURSORS_PER_CONNECTION
                        * self._CYCLES)
            assert queries == expected
