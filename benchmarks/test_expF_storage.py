"""EXP-F — storage-substrate viability.

The derivation framework sits on the POSTGRES-substitute engine; this
experiment measures the substrate's primitive costs (insert, scan,
B-tree / spatial / temporal lookups, WAL recovery) so the higher-level
numbers of EXP-A…E can be interpreted.
"""

import pytest
from conftest import report

from repro.adt import make_standard_registries
from repro.spatial import Box
from repro.storage import StorageEngine
from repro.temporal import AbsTime


def _engine(rows: int = 0, index: bool = True) -> StorageEngine:
    types, _ = make_standard_registries()
    engine = StorageEngine(types=types)
    engine.create_relation("scenes", [
        ("area", "char16"), ("spatialextent", "box"),
        ("timestamp", "abstime"), ("resolution", "float4"),
    ])
    if index:
        engine.create_index("scenes", "area")
        engine.create_spatial_index("scenes", "spatialextent",
                                    universe=Box(-180, -90, 180, 90))
        engine.create_temporal_index("scenes", "timestamp")
    for i in range(rows):
        engine.insert_row("scenes", _row(i))
    return engine


def _row(i: int):
    x = float((i * 7) % 300 - 150)
    y = float((i * 13) % 140 - 70)
    return (f"area{i % 50}", Box(x, y, x + 5, y + 5), AbsTime(i % 1000),
            30.0 + i % 10)


@pytest.mark.parametrize("indexed", [True, False],
                         ids=["indexed", "heap-only"])
def test_expF_insert_throughput(benchmark, indexed):
    engine = _engine(index=indexed)
    counter = iter(range(10_000_000))

    def insert():
        engine.insert_row("scenes", _row(next(counter)))

    benchmark(insert)


@pytest.mark.parametrize("rows", [100, 1000])
def test_expF_full_scan(benchmark, rows):
    engine = _engine(rows=rows)

    def scan():
        return sum(1 for _ in engine.scan("scenes"))

    assert benchmark(scan) == rows


def test_expF_btree_point_lookup(benchmark):
    engine = _engine(rows=1000)

    def lookup():
        return list(engine.iter_lookup("scenes", "area", "area7"))

    rows = benchmark(lookup)
    assert len(rows) == 20


def test_expF_spatial_lookup(benchmark):
    engine = _engine(rows=1000)
    query = Box(-10, -10, 10, 10)

    def lookup():
        return list(engine.iter_spatial("scenes", query))

    rows = benchmark(lookup)
    assert all(row["spatialextent"].overlaps(query) for row in rows)


def test_expF_temporal_lookup(benchmark):
    engine = _engine(rows=1000)

    def lookup():
        return list(engine.iter_temporal("scenes", AbsTime(500)))

    rows = benchmark(lookup)
    assert all(row["timestamp"] == AbsTime(500) for row in rows)


def test_expF_index_vs_scan_selectivity(benchmark):
    """The series behind index choice: lookup vs scan latency at growing
    relation sizes."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    import time

    rows_out = []
    for n in (200, 1000, 5000):
        engine = _engine(rows=n)
        start = time.perf_counter()
        list(engine.iter_lookup("scenes", "area", "area7"))
        t_idx = time.perf_counter() - start
        start = time.perf_counter()
        matches = [r for r in engine.scan("scenes") if r["area"] == "area7"]
        t_scan = time.perf_counter() - start
        rows_out.append((n, f"{t_idx * 1e6:.0f} us",
                         f"{t_scan * 1e6:.0f} us",
                         f"{t_scan / t_idx:.1f}x"))
        assert len(matches) == n // 50
    report("EXP-F: B-tree lookup vs heap scan", rows_out,
           header=("rows", "index lookup", "full scan", "scan/index"))


def test_expF_wal_recovery(benchmark):
    engine = _engine(rows=500, index=False)
    types = engine.types

    def recover():
        return StorageEngine.recover(engine.wal, types)

    recovered = benchmark(recover)
    assert recovered.stats("scenes")["visible_rows"] == 500


def test_expF_no_overwrite_versioning(benchmark):
    """Abort churn: dead versions accumulate (nothing is ever overwritten
    or removed), visibility, recovery and a later index build skip them."""
    engine = _engine(rows=100, index=False)

    def churn():
        tx = engine.begin()
        tids = [engine.insert("scenes", _row(1000 + i), tx)
                for i in range(10)]
        engine.abort(tx)
        return tids

    # Fixed rounds: every round adds versions the next round's scan
    # must walk, so an auto-calibrated round count only measures its
    # own growing backlog.
    benchmark.pedantic(churn, rounds=5, iterations=1)
    stats = engine.stats("scenes")
    assert stats["visible_rows"] == 100
    assert stats["versions"] > stats["visible_rows"]
    recovered = StorageEngine.recover(engine.wal, engine.types)
    assert recovered.stats("scenes")["versions"] == 100
    engine.create_index("scenes", "area")
    assert engine.index_stats("scenes", "area")["entries"] == 100
